"""``tools/src_lines.py`` gives every line of a source one kind."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPEC = importlib.util.spec_from_file_location(
    "src_lines", ROOT / "tools" / "src_lines.py")
src_lines = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(src_lines)

SOURCE = '''"""Module docstring,

over three lines."""

import os  # a trailing comment leaves its line code

# a comment line


def f(x):
    """One line."""  # a comment after it
    s = """a string
    that is code"""
    "a string statement in a body"
    return (s,
            # a comment inside brackets
            os.sep)
'''


def test_each_kind():
    # docstrings: lines 1, 3, 11 and 14; blank: 2, 4, 6, 8 and 9;
    # comments: 7 and 16; code: 5, 10, 12, 13, 15 and 17
    assert src_lines.count(SOURCE) == {
        "code": 6, "docstring": 4, "comment": 2, "blank": 5}


def test_counts_sum_to_the_lines_of_src():
    for file in (ROOT / "src").rglob("*.py"):
        text = file.read_text()
        assert sum(src_lines.count(text).values()) == \
            len(text.splitlines())

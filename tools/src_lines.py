"""Count the lines of ``src/`` by kind: code, docstring, comment and blank.

    python3 tools/src_lines.py [PATH ...]

Reads every ``*.py`` file under each PATH (default: the ``src`` of the
checkout the script sits in) with ``tokenize`` and prints one line per file
and a total, each ``code / docstring / comment / blank = total``.  A line
is blank where it holds nothing but white space, inside a string or not;
otherwise a docstring line where a string that stands alone as a statement
covers it, a comment line where it holds a comment and no other token, and
code otherwise.  So every line has one kind, and the four counts sum to the
file's line count.
"""

from __future__ import annotations

import io
import itertools
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
KINDS = ("code", "docstring", "comment", "blank")
# tokens that carry no code: layout, and the markers of a statement's start
LAYOUT = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENCODING, tokenize.ENDMARKER}


def _ends_statement(tokens, i: int) -> bool:
    """Whether the first token after the i-th that is not a comment ends
    the statement."""
    for tok in itertools.islice(tokens, i + 1, None):
        if tok.type != tokenize.COMMENT:
            return tok.type in (tokenize.NEWLINE, tokenize.ENDMARKER)
    return True


def count(text: str) -> dict:
    """The lines of the Python source ``text`` by kind (module docstring)."""
    lines = text.splitlines()
    kind = ["blank" if not line.strip() else None for line in lines]
    tokens = list(tokenize.generate_tokens(io.StringIO(text).readline))
    starts = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, None}
    prev = None
    for i, tok in enumerate(tokens):
        rows = range(tok.start[0] - 1, tok.end[0])
        if (tok.type == tokenize.STRING and prev in starts and
                _ends_statement(tokens, i)):
            for row in rows:
                if kind[row] is None:
                    kind[row] = "docstring"
        elif tok.type == tokenize.COMMENT:
            if kind[tok.start[0] - 1] is None:
                kind[tok.start[0] - 1] = "comment"
        elif tok.type not in LAYOUT:
            for row in rows:
                if kind[row] in (None, "comment"):
                    kind[row] = "code"
        if tok.type not in (tokenize.NL, tokenize.COMMENT):
            prev = tok.type
    return {k: sum(1 for row in kind if (row or "code") == k)
            for k in KINDS}


def line(counts: dict) -> str:
    return (" / ".join(f"{counts[k]:,}" for k in KINDS) +
            f" = {sum(counts.values()):,}")


def counts_of(path: Path) -> list:
    """(file, its counts) for every ``*.py`` file under ``path``, or for
    ``path`` itself where it is a file."""
    files = sorted(path.rglob("*.py")) if path.is_dir() else [path]
    return [(file, count(file.read_text())) for file in files]


def total(files: list) -> dict:
    """The sum by kind of ``counts_of``'s counts."""
    return {k: sum(counts[k] for _, counts in files) for k in KINDS}


def main(argv=None) -> None:
    paths = [Path(p) for p in (argv or sys.argv[1:])] or [SRC]
    files = [item for path in paths for item in counts_of(path)]
    for file, counts in files:
        print(f"{file}: {line(counts)}")
    print(f"total ({' / '.join(KINDS)}): {line(total(files))}")


if __name__ == "__main__":
    main()

"""``tools/route_values.py`` reads the checkout it sits in, writes the same
bytes on every run and rebinds nothing of numpy or of detlab."""

import ast
import importlib.util
import io
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


def test_refuses_a_detlab_from_elsewhere(tmp_path):
    # a copy of the tool with no src of its own finds detlab only through
    # PYTHONPATH, and exits before it writes a line
    tool = tmp_path / "tools" / "route_values.py"
    tool.parent.mkdir()
    shutil.copy(ROOT / "tools" / "route_values.py", tool)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(tool)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1 and proc.stdout == ""
    assert f"not {tmp_path / 'src'}" in proc.stderr


def route_values(monkeypatch):
    """The tool, loaded in this process; its thread settings and path entry
    are undone after the test."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    spec = importlib.util.spec_from_file_location(
        "route_values", ROOT / "tools" / "route_values.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_two_runs_write_the_same_bytes(monkeypatch):
    # every value diff compares two dumps, so a dump may not depend on what
    # ran before it: the second run in one process finds every memo, held
    # grid and sample that the first one filled
    tool = route_values(monkeypatch)
    runs = []
    for _ in range(2):
        out = io.StringIO()
        tool.main(out)
        runs.append(out.getvalue().encode())
    assert runs[0] == runs[1]
    assert runs[0].count(b"\n") > 1000


def test_binds_nothing_of_numpy_or_detlab(monkeypatch):
    # the tool reads each path from cauchy.Notes: it stores no attribute
    # and names no setattr or mock, and a run leaves every attribute of
    # numpy.linalg and of each detlab module the object it was
    tree = ast.parse((ROOT / "tools" / "route_values.py").read_text())
    for node in ast.walk(tree):
        assert not (isinstance(node, ast.Attribute) and
                    isinstance(node.ctx, ast.Store)), ast.unparse(node)
        if isinstance(node, (ast.Name, ast.alias)):
            assert ast.unparse(node) not in ("setattr", "mock")
    tool = route_values(monkeypatch)
    modules = [np.linalg] + [module for name, module in sys.modules.items()
                             if name.split(".")[0] == "detlab"]
    before = [dict(vars(module)) for module in modules]
    tool.main(io.StringIO())
    for module, attrs in zip(modules, before):
        after = vars(module)
        assert after.keys() == attrs.keys(), module.__name__
        for name, value in attrs.items():
            assert after[name] is value, f"{module.__name__}.{name}"


def route_diff():
    spec = importlib.util.spec_from_file_location(
        "route_diff", ROOT / "tools" / "route_diff.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_route_diff_summary():
    # two small outputs: one line moves by rounding, one moves in its
    # words, one is new; the others, and a nan that stays, do not count
    tool = route_diff()
    old = ("route F4 slavnov x=16 (958395.8079114329-1.8e-09j)\n"
           "route F4 szego x=3 (1+0j)\n"
           "ladder F6 tau_eff_kernel[split 45] x=6 ((33, 70), 1e-12)\n"
           "verify seed=0 mdual-F4-x3 nan 2.0\n")
    new = ("route F4 slavnov x=16 (958395.8079114328-1.8e-09j)\n"
           "route F4 szego x=3 (1+0j)\n"
           "ladder F6 tau_eff_kernel[residue 1] x=6 ((40,), 0.0)\n"
           "verify seed=0 mdual-F4-x3 nan 2.0\n"
           "verify seed=3 mdual-F4-x3 nan 2.5\n")
    assert tool.summary(old, old) == "identical\n"
    assert tool.summary(old, new) == (
        "route F4 slavnov: 1 moved, largest relative move 1.2e-16\n"
        "ladder F6 tau_eff_kernel: 1 moved, in text\n"
        "verify mdual-F4-x3: 1 moved, in text\n"
        "3 of 5 lines moved\n")
    assert tool.relative_move("a 2.0 (1+1j)", "a 2.5 (1+1j)") == 0.2


def test_route_diff_line_split(tmp_path):
    # two trees, no git: the old src has a module of 2 code, 1 docstring,
    # 1 comment and 1 blank line; the new one adds a package of 1 code line
    # and drops the comment
    old, new = tmp_path / "old", tmp_path / "new"
    (old / "src" / "pkg").mkdir(parents=True)
    (new / "src" / "pkg").mkdir(parents=True)
    (old / "src" / "pkg" / "m.py").write_text(
        '"""Doc."""\n\n# note\nx = 1\ny = 2\n')
    (new / "src" / "pkg" / "m.py").write_text('"""Doc."""\n\nx = 1\ny = 2\n')
    (new / "src" / "pkg" / "__init__.py").write_text("z = 3\n")
    assert route_diff().line_split(old, new, "REV") == (
        "src lines (code / docstring / comment / blank = total)\n"
        "  REV: 2 / 1 / 1 / 1 = 5\n"
        "  this tree: 3 / 1 / 0 / 1 = 5\n"
        "  change: +1 / +0 / -1 / +0 = +0\n")

"""``tools/route_values.py`` reads the checkout it sits in, and writes the
same bytes on every run."""

import importlib.util
import io
import os
import shutil
import subprocess
import sys
from pathlib import Path

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


def test_two_runs_write_the_same_bytes(monkeypatch):
    # every value diff compares two dumps, so a dump may not depend on what
    # ran before it: the second run in one process finds every memo, held
    # grid and sample that the first one filled.  The tool's thread
    # settings and path entry are undone after the test
    monkeypatch.setattr(sys, "path", list(sys.path))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    spec = importlib.util.spec_from_file_location(
        "route_values", ROOT / "tools" / "route_values.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    runs = []
    for _ in range(2):
        out = io.StringIO()
        tool.main(out)
        runs.append(out.getvalue().encode())
    assert runs[0] == runs[1]
    assert runs[0].count(b"\n") > 1000

"""``tools/route_values.py`` reads the checkout it sits in."""

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

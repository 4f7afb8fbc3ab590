"""The benchmark harness's own self-tests, run as the harness documents them.

They pin names the harness reads from the library (``orthopoly.y_moment``
bound by value, the spans it traces), so a refactor that drops one fails
here and not only when the benchmark runs.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_selftest_passes():
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "selftest.py")],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr

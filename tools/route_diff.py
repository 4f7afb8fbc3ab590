"""Diff ``tools/route_values.py`` between a git revision and this checkout.

    python3 tools/route_diff.py REV

Writes ``git archive REV`` of ``src/`` and ``tools/`` to a temporary
directory, runs that checkout's ``tools/route_values.py`` and this one's,
each on its own tree, and prints "identical" when the two outputs are the
same bytes.  Otherwise it prints one line per group of lines that moved, in
the order the groups first appear, with the number of moved lines and the
largest relative move |a - b| / max(|a|, |b|) over the numbers on them,
real or complex, and then the count of moved lines of all.  A line's group
is its kind and the labels among its first three words, such as "route F4
slavnov" or "verify mdual-F4-x3" (words holding a value, "x=3" or
"seed=0", are not labels).  Lines are paired by ``difflib``; a moved line
whose words other than its numbers changed, or that has no partner, moves
"in text".  Last it prints ``tools/src_lines.py``'s code / docstring /
comment / blank split of ``src/`` at REV and in this checkout, and the
change between them.
"""

from __future__ import annotations

import difflib
import io
import math
import re
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import src_lines  # noqa: E402  (tools/ is no package)

ROOT = Path(__file__).resolve().parent.parent
_REAL = r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"
NUMBER = re.compile(rf"{_REAL}(?:[-+](?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)?j"
                    rf"|{_REAL}|\b(?:inf|nan)\b")
LABEL = re.compile(r"([A-Za-z][\w*.-]*)(?:$|[\[(])")


def group_of(line: str) -> str:
    """The kind of ``line`` and the labels among its first three words."""
    words = line.split()[:3]
    labels = [m.group(1) for m in map(LABEL.match, words[1:]) if m]
    return " ".join(words[:1] + labels)


def relative_move(old: str, new: str) -> float:
    """The largest |a - b| / max(|a|, |b|) over the paired numbers of two
    lines, 0 where both are 0; inf where the words between the numbers
    differ or a number turns non-finite."""
    if NUMBER.sub("#", old) != NUMBER.sub("#", new):
        return math.inf
    worst = 0.0
    for a, b in zip(*(map(complex, NUMBER.findall(s)) for s in (old, new))):
        if repr(a) == repr(b):   # nan too
            continue
        gap, size = abs(a - b), max(abs(a), abs(b))
        worst = max(worst, gap / size if math.isfinite(gap) else math.inf)
    return worst


def summary(old: str, new: str) -> str:
    """The report on two outputs of ``route_values.py`` (module docstring)."""
    if old == new:
        return "identical\n"
    a, b = old.splitlines(), new.splitlines()
    groups = {}
    matcher = difflib.SequenceMatcher(None, a, b, autojunk=False)
    for tag, i0, i1, j0, j1 in matcher.get_opcodes():
        if tag == "equal":
            continue
        for k in range(max(i1 - i0, j1 - j0)):
            was = a[i0 + k] if i0 + k < i1 else None
            now = b[j0 + k] if j0 + k < j1 else None
            move = math.inf if None in (was, now) else relative_move(was, now)
            count, worst = groups.get(group_of(now or was), (0, 0.0))
            groups[group_of(now or was)] = count + 1, max(worst, move)
    out = io.StringIO()
    for group, (count, worst) in groups.items():
        size = ("in text" if worst == math.inf else
                f"largest relative move {worst:.1e}")
        out.write(f"{group}: {count} moved, {size}\n")
    moved = sum(count for count, _ in groups.values())
    out.write(f"{moved} of {len(b)} lines moved\n")
    return out.getvalue()


def line_split(old_root: Path, new_root: Path, rev: str) -> str:
    """``src_lines``' split of the ``src/`` under each root, and the
    change from the first to the second."""
    old, new = (src_lines.total(src_lines.counts_of(root / "src"))
                for root in (old_root, new_root))
    change = (" / ".join(f"{new[k] - old[k]:+,}" for k in src_lines.KINDS) +
              f" = {sum(new.values()) - sum(old.values()):+,}")
    return (f"src lines ({' / '.join(src_lines.KINDS)} = total)\n"
            f"  {rev}: {src_lines.line(old)}\n"
            f"  this tree: {src_lines.line(new)}\n"
            f"  change: {change}\n")


def route_values(root: Path) -> str:
    """The output of the ``tools/route_values.py`` under ``root``."""
    return subprocess.run([sys.executable, str(root / "tools" /
                                               "route_values.py")],
                          check=True, capture_output=True, text=True).stdout


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", argv[0],
                              "src", "tools"], check=True,
                             capture_output=True).stdout
    with tempfile.TemporaryDirectory() as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp, filter="data")
        old = route_values(Path(tmp))
        split = line_split(Path(tmp), ROOT, argv[0])
    sys.stdout.write(summary(old, route_values(ROOT)) + split)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

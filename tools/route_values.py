"""Dump every route value and verification residual, exactly, for diffing.

    PYTHONPATH=src python3 tools/route_values.py > values.txt

Writes one line per value: every ``cli.ROUTES`` route on the fixtures
F0-F7 at x in {1, 2, 3, 6, 16, 40}, then the Nystrom ladder
(``DetResult.grids``) of ``fredholm_S`` and of ``tau_eff_kernel`` on the
same fixtures and x, then every ``detlab verify`` residual at seeds 0, 3
and 9, then ``formfactors.tau_eff_finite`` at x = 2 for F1 and F2 at N = L,
L in {64, 256, 1024, 2048}, and for F2 and F6 at (L, N) = (16, 6).  Numbers
are written as ``repr``, so two checkouts compute bit-identical values, and
try the same grids, exactly when ``diff`` of their outputs is empty; a
route that raises writes its error type and message instead.  Last come the
rows of ``detlab compare --spec F4 --x 1..32`` over every route, as the CLI
prints them (17 significant digits), which run inside compare's suite scope.
"""

from __future__ import annotations

import contextlib
import io
import sys

from detlab import asymptotics, cli, errors, formfactors, fredholm, symbols

X_VALUES = (1, 2, 3, 6, 16, 40)
SEEDS = (0, 3, 9)
FINITE_X = 2
FINITE_CASES = [(name, L, L) for name in ("F1", "F2")
                for L in (64, 256, 1024, 2048)] + [("F2", 16, 6), ("F6", 16, 6)]
COMPARE = ("compare", "--spec", "F4", "--x", "1..32",
           "--methods", ",".join(cli.ROUTES))
LADDERS = {
    "fredholm_S": lambda spec, x: (fredholm.kernel_S(spec, x),
                                   asymptotics.base_contour(spec)),
    "tau_eff_kernel": asymptotics.tau_eff_kernel,
}


def outcome(call) -> str:
    try:
        return repr(call())
    except errors.DetlabError as exc:
        return f"{type(exc).__name__}: {exc}"


def main(out=sys.stdout) -> None:
    for name in symbols.FIXTURE_NAMES:
        spec = symbols.fixture(name)
        for route, call in cli.ROUTES.items():
            for x in X_VALUES:
                value = outcome(lambda: call(spec, x, None))
                out.write(f"route {name} {route} x={x} {value}\n")
    for name in symbols.FIXTURE_NAMES:
        spec = symbols.fixture(name)
        for kernel, build in LADDERS.items():
            for x in X_VALUES:
                grids = outcome(
                    lambda: fredholm.nystrom_det(*build(spec, x)).grids)
                out.write(f"ladder {name} {kernel} x={x} {grids}\n")
    for seed in SEEDS:
        for check, _, run in cli._verify_checks(seed):
            out.write(f"verify seed={seed} {check} {outcome(run)}\n")
    for name, L, N in FINITE_CASES:
        value = outcome(lambda: formfactors.tau_eff_finite(
            symbols.fixture(name), L, N, FINITE_X))
        out.write(f"ff {name} L={L} N={N} x={FINITE_X} {value}\n")
    table = io.StringIO()
    with contextlib.redirect_stdout(table):
        cli.main(list(COMPARE))
    for row in table.getvalue().splitlines():
        out.write(f"compare F4 {row}\n")


if __name__ == "__main__":
    main()

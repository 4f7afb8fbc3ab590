"""Write 50-digit Toeplitz log determinants of the banded fixtures.

    python3 tools/toeplitz_references.py

Needs ``mpmath`` (written with 1.3.0), which ``detlab`` does not depend on;
tests read the JSON this writes and need no ``mpmath``.

The fixtures F0, F1 and F3-F7 are Laurent polynomials phi = P(q)/(a q^p),
so their moments c_k = P_{k+p}/a are exact and vanish past the band.  Each
is scaled to the radius rho of the fixture's sampling circle, c_k rho^k, as
``toeplitz.moment_table`` samples it: det T_x is unchanged by that
similarity, and on that circle phi does not wind, so the sections are well
conditioned.  log det T_x is then the sum of the logarithms of the
prediction errors of the nonsymmetric Levinson recursion, run in mpmath at
WORKING_DPS digits and written with DIGITS significant digits.

Writes ``tests/data/toeplitz_references.json``: per fixture its rho and,
per order x in ORDERS, log det T_x as the strings [real, imaginary], the
imaginary part in (-pi, pi].
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import mpmath as mp

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from detlab import symbols, toeplitz  # noqa: E402

NAMES = ("F0", "F1", "F3", "F4", "F5", "F6", "F7")
ORDERS = (2, 8, 32, 128, 512, 1024)
DIGITS = 50
WORKING_DPS = 70
OUT = ROOT / "tests" / "data" / "toeplitz_references.json"


def exact_moments(spec: symbols.SymbolSpec, rho, x: int) -> list:
    """rho^k c_k, k = -x .. x, of phi = P(q)/(a q^p) from its coefficients."""
    (p, a), = [(i, d) for i, d in enumerate(spec.denom) if d]
    moments = []
    for k in range(-x, x + 1):
        i = k + p
        coeff = spec.numer[i] if 0 <= i < len(spec.numer) else 0
        moments.append(mp.mpc(coeff) / mp.mpc(a) * rho ** k)
    return moments


def levinson_log_det(moments: list):
    """sum_k log eps_k of the recursion in ``toeplitz._levinson_log_det``,
    on mpmath numbers and without its growth monitor."""
    x = len(moments) // 2
    c = lambda k: moments[x + k]  # noqa: E731
    p, q = [mp.mpc(1)], [mp.mpc(1)]
    eps = c(0)
    log_det = mp.log(eps)
    for k in range(1, x):
        eta = mp.fsum(c(k - j) * p[j] for j in range(k))
        xi = mp.fsum(c(-1 - j) * q[j] for j in range(k))
        alpha, gamma = eta / eps, xi / eps
        p, q = ([a - alpha * b for a, b in zip(p + [0], [0] + q)],
                [b - gamma * a for a, b in zip(p + [0], [0] + q)])
        eps *= 1 - alpha * gamma
        log_det += mp.log(eps)
    # the phase in (-pi, pi]
    turns = mp.floor((mp.pi - log_det.imag) / (2 * mp.pi))
    return mp.mpc(log_det.real, log_det.imag + 2 * mp.pi * turns)


def main() -> None:
    mp.mp.dps = WORKING_DPS
    table = {}
    for name in NAMES:
        spec = symbols.fixture(name)
        rho = toeplitz._sample_radius(spec)
        values = {}
        for x in ORDERS:
            log_det = levinson_log_det(exact_moments(spec, mp.mpf(rho), x))
            values[str(x)] = [mp.nstr(log_det.real, DIGITS),
                              mp.nstr(log_det.imag, DIGITS)]
            print(f"{name} x={x}: {values[str(x)][0]}", flush=True)
        table[name] = {"rho": rho, "log_det": values}
    OUT.write_text(json.dumps(table, indent=1) + "\n")
    print(f"wrote {OUT.relative_to(ROOT)}")


if __name__ == "__main__":
    main()

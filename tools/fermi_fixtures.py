"""Write the finite-temperature Fermi weights as symbol files for the tests.

    python3 tools/fermi_fixtures.py

The weight of free fermions on a lattice at inverse temperature beta is

    phi(k) = 1 + (e^{i alpha} - 1) n(k),  n(k) = 1/(1 + e^{beta(eps(k) - mu)}),

with eps(k) = -2 cos k and q = e^{ik}, here at mu = 0.3 and alpha = 2.  On
|q| = 1 it runs along the segment from 1 to e^{2i}, which keeps |phi| >=
cos 1, so it does not wind and log phi is the principal logarithm.  In the
one symbol form phi = exp(sum_j t_j q^j), and the t_j are the Laurent
coefficients of log phi: one FFT of log phi on N_NODES nodes, truncated
where |t_j| falls below CUTOFF of the largest.  The bandwidth max |j| is 59
at beta = 1, 112 at 2, 218 at 4 and 425 at 8.

Writes ``tests/data/fermi_beta<beta>.json`` for each beta in BETAS, in the
form of ``symbols.to_json_dict``, which ``symbols.load_symbol`` and the
``--spec`` option of every ``detlab`` command read.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from detlab import symbols  # noqa: E402

MU, ALPHA = 0.3, 2.0
BETAS = (1, 2, 4, 8)
N_NODES = 32768
CUTOFF = 1e-16
OUT = ROOT / "tests" / "data"


def fermi_log_coeffs(beta: float) -> dict:
    """{j: t_j} of log phi at inverse temperature ``beta``."""
    k = 2.0 * np.pi * np.arange(N_NODES) / N_NODES
    occupation = 1.0 / (1.0 + np.exp(beta * (-2.0 * np.cos(k) - MU)))
    t = np.fft.fft(np.log(1.0 + (np.exp(1j * ALPHA) - 1.0) * occupation))
    t /= N_NODES
    j = np.fft.fftfreq(N_NODES, 1.0 / N_NODES).astype(int)
    keep = np.abs(t) >= CUTOFF * np.max(np.abs(t))
    return {int(jj): complex(tt) for jj, tt in sorted(zip(j[keep], t[keep]))}


def fermi_spec(beta: float) -> symbols.SymbolSpec:
    return symbols.SymbolSpec(log_coeffs=fermi_log_coeffs(beta),
                              label=f"fermi_beta{beta}")


def main() -> None:
    OUT.mkdir(parents=True, exist_ok=True)
    for beta in BETAS:
        spec = fermi_spec(beta)
        path = OUT / f"{spec.label}.json"
        path.write_text(json.dumps(symbols.to_json_dict(spec), indent=1) +
                        "\n")
        width = max(abs(j) for j, _ in spec.log_coeffs)
        print(f"{path.relative_to(ROOT)}: {len(spec.log_coeffs)} t_j, "
              f"bandwidth {width}")


if __name__ == "__main__":
    main()

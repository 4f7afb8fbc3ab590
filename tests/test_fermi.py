"""The paper's own weight: finite-temperature Fermi symbols.

phi(k) = 1 + (e^{2i} - 1) n(k), n(k) = 1/(1 + e^{beta(-2 cos k - 0.3)}),
written to ``tests/data`` by ``tools/fermi_fixtures.py`` in the one symbol
form, its t_j the Laurent coefficients of log phi.  It does not wind.
"""

import cmath
import importlib.util
from pathlib import Path

import pytest

from detlab import asymptotics, cli, symbols

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "tests" / "data"
BANDWIDTH = {1: 59, 2: 112, 4: 218, 8: 425}
EXACT_ROUTES = ("toeplitz", "fredholm_S", "bo")


def fermi(beta):
    return symbols.load_symbol(DATA / f"fermi_beta{beta}.json")


def log_gap(a, b) -> float:
    return abs(cmath.log(a / b))


def test_files_are_the_tools_output():
    spec = importlib.util.spec_from_file_location(
        "fermi_fixtures", ROOT / "tools" / "fermi_fixtures.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    for beta in tool.BETAS:
        written = dict(fermi(beta).log_coeffs)
        made = tool.fermi_log_coeffs(beta)
        assert written.keys() == made.keys()
        assert max(abs(j) for j in made) == BANDWIDTH[beta]
        assert max(abs(written[j] - made[j]) for j in made) < 1e-15


@pytest.mark.parametrize("beta", [1, 2, 4])
@pytest.mark.parametrize("x", [4, 16, 64, 256])
def test_exact_routes_agree(beta, x):
    spec = fermi(beta)
    values = [cli.ROUTES[route](spec, x, None) for route in EXACT_ROUTES]
    for i, a in enumerate(values):
        for b in values[i + 1:]:
            assert log_gap(a, b) < 1e-11
    # at winding 0 tau_eff is the Szego value, whatever x
    assert log_gap(asymptotics.tau_eff(spec, x),
                   asymptotics.szego(spec, x)) < 1e-12


@pytest.mark.parametrize("x", [8, 64])
def test_oracle_serves_beta_8(x):
    # phi's moments converge past moment_table's first grid at x = 8
    spec = fermi(8)
    assert log_gap(cli.ROUTES["toeplitz"](spec, x, None),
                   asymptotics.borodin_okounkov(spec, x)) < 1e-11

"""Orthogonal polynomials on the circle and the 2x2 matrix boundary problem.

``cd_diagonal_from_rhp`` and ``variational_moment_check`` are checks of the
boundary problem's solution that only these tests use.
"""

import numpy as np
import pytest
from numpy.polynomial import polynomial as P

from detlab import errors, symbols
from detlab.orthopoly import (MeasureMu, RHPSolution, christoffel_darboux,
                              hf_moment_equivalence, moment_matrix,
                              monic_orthogonal)


def cd_diagonal_from_rhp(sol: RHPSolution, q) -> complex:
    """(alpha beta' - alpha' beta)/(2 pi i) -- equals the diagonal kernel."""
    q = complex(q)
    da, db = P.polyder(sol.alpha), P.polyder(sol.beta)
    val = (P.polyval(q, sol.alpha) * P.polyval(q, db) -
           P.polyval(q, da) * P.polyval(q, sol.beta))
    return complex(val / (2j * np.pi))


def variational_moment_check(measure: MeasureMu, eps: float = 1e-6):
    """Finite difference of ln det(moment matrix) under mu -> mu(1 + eps k)
    against the reproducing-kernel integral; returns (fd, formula)."""
    n = measure.n
    base = moment_matrix(measure)

    def det_shifted(sign):
        shift = np.array([[measure.moment(n + i - j) for j in range(n)]
                          for i in range(n)], dtype=complex)
        return complex(np.linalg.det(base + sign * eps * shift))

    fd = (np.log(det_shifted(+1)) - np.log(det_shifted(-1))) / (2 * eps)

    sol = RHPSolution(measure)
    nodes, weights, mu = measure.values(512)
    da, db = P.polyder(sol.alpha), P.polyder(sol.beta)
    dens = (P.polyval(nodes, sol.alpha) * P.polyval(nodes, db) -
            P.polyval(nodes, da) * P.polyval(nodes, sol.beta))
    formula = np.sum(weights * nodes * mu * dens) / (2j * np.pi)
    return complex(fd), complex(formula)


class TestMeasure:
    def test_winding_guard(self):
        with pytest.raises(errors.WindingNonnegative):
            MeasureMu(symbols.fixture("F2"), 2)

    def test_gram_nonsingular(self):
        MeasureMu(symbols.fixture("F3"), 3).check_solvable()

    def test_orthogonality(self):
        mu = MeasureMu(symbols.fixture("F5"), 3)
        k = mu.n - 1
        coeffs, h = monic_orthogonal(mu, k)
        assert abs(coeffs[-1] - 1.0) < 1e-12   # monic
        for j in range(k):
            ip = sum(c * mu.moment(i + j) for i, c in enumerate(coeffs))
            assert abs(ip) < 1e-10, j
        ip = sum(c * mu.moment(i + k) for i, c in enumerate(coeffs))
        assert abs(ip - h) / abs(h) < 1e-10

    def test_moment_range_guard(self):
        mu = MeasureMu(symbols.fixture("F3"), 2)
        with pytest.raises(errors.InputError):
            mu.moment(10 ** 6)


class TestRHP:
    @pytest.mark.parametrize("name,x", [("F3", 2), ("F3", 5), ("F5", 3)])
    def test_jump_and_normalization(self, name, x):
        sol = RHPSolution(MeasureMu(symbols.fixture(name), x))
        for q in np.exp(2j * np.pi * np.array([0.13, 0.41, 0.77])):
            assert sol.jump_residual(q) < 1e-10
        assert sol.normalization_residual() < 1e-10

    def test_unit_determinant(self):
        mu = MeasureMu(symbols.fixture("F3"), 3)
        for q in (0.3 + 0.1j, 4.0 - 1.0j):
            mat = RHPSolution(mu).matrix(q)
            assert abs(np.linalg.det(mat) - 1.0) < 1e-9

    def test_far_field_tail_is_first_order(self):
        sol = RHPSolution(MeasureMu(symbols.fixture("F5"), 3))
        r1 = sol.far_field_residual(radius=400.0)
        r2 = sol.far_field_residual(radius=2000.0)
        assert r2 < 0.3 * r1   # decays like 1/radius

    @pytest.mark.parametrize("name,x", [("F3", 1), ("F3", 4), ("F5", 2)])
    def test_moment_equivalence(self, name, x):
        assert hf_moment_equivalence(symbols.fixture(name), x) < 1e-10


class TestChristoffelDarboux:
    def test_sum_equals_closed_form(self):
        mu = MeasureMu(symbols.fixture("F5"), 3)
        rng = np.random.default_rng(3)
        for _ in range(3):
            p, q = 0.9 * np.exp(2j * np.pi * rng.random(2))
            a = christoffel_darboux(mu, p, q, route="sum")
            b = christoffel_darboux(mu, p, q, route="closed")
            assert abs(a - b) / max(abs(a), 1e-30) < 1e-9

    def test_diagonal_from_rhp(self):
        mu = MeasureMu(symbols.fixture("F5"), 3)
        q = 0.8 * np.exp(1.3j)
        a = christoffel_darboux(mu, q, q, route="closed")
        b = cd_diagonal_from_rhp(RHPSolution(mu), q)
        assert abs(a - b) / abs(a) < 1e-8


class TestVariational:
    def test_derivative_of_log_norm(self):
        mu = MeasureMu(symbols.fixture("F3"), 3)
        fd, formula = variational_moment_check(mu, 1e-6)
        assert abs(fd - formula) / max(abs(formula), 1e-8) < 1e-4

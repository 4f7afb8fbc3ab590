"""Orthogonal polynomials on the circle and the 2x2 matrix boundary problem.

``cd_diagonal_from_rhp``, ``variational_moment_check`` and
``far_field_residual`` are checks of the boundary problem's solution that
only these tests use; ``moment_matrix`` is the Toeplitz matrix of the
measure's moments they perturb.  ``gram_det`` signs the measure's Gram
log-determinant; ``fresh_gram_det`` and ``fresh_monic_orthogonal`` gather
a fresh moment matrix on every call, the reference for the measure's one
Gram matrix.
"""

import numpy as np
import pytest
from numpy.polynomial import polynomial as P

from detlab import cauchy, errors, orthopoly, symbols, toeplitz
from detlab._series import circle_weights
from detlab.orthopoly import (MeasureMu, RHPSolution, christoffel_darboux,
                              hf_moment_equivalence, monic_orthogonal)
from test_asymptotics import record_split_work


def moment_matrix(measure: MeasureMu) -> np.ndarray:
    n = measure.n
    return np.array([[measure.moment(n - 1 + i - j) for j in range(n)]
                     for i in range(n)], dtype=complex)


def cd_diagonal_from_rhp(sol: RHPSolution, q) -> complex:
    """(alpha beta' - alpha' beta)/(2 pi i) -- equals the diagonal kernel."""
    q = complex(q)
    da, db = P.polyder(sol.alpha), P.polyder(sol.beta)
    val = (P.polyval(q, sol.alpha) * P.polyval(q, db) -
           P.polyval(q, da) * P.polyval(q, sol.beta))
    return complex(val / (2j * np.pi))


def far_field_residual(sol: RHPSolution, radius: float = 1e3) -> float:
    """‖Y_<(q) diag(q^{-n}, q^{n}) - Id‖ at |q| = radius; this carries the
    honest O(1/radius) tail of the expansion."""
    n = sol.measure.n
    res = 0.0
    for q in radius * np.exp(2j * np.pi * np.arange(4) / 4 + 0.3j):
        y = sol.matrix(q, side="outside")
        scaled = y @ np.diag([q ** (-n), q ** n])
        res = max(res, float(np.max(np.abs(scaled - np.eye(2)))))
    return res


def gram_det(measure: MeasureMu, k: int) -> complex:
    """Determinant of the k x k matrix of moments mu_{i+j}, from its log
    (``MeasureMu.gram_log_det``) and the sign of its row reversal."""
    return (-1) ** (k * (k - 1) // 2) * errors.exp_in_range(
        measure.gram_log_det(k))


def fresh_gram_det(measure: MeasureMu, k: int) -> complex:
    """Determinant of the k x k matrix of moments mu_{i+j}, by the one
    moment log-determinant on its row reversal, c_d = mu_{k-1-d}, the
    moments gathered afresh."""
    moments = [measure.moment(k - 1 - d) for d in range(1 - k, k)]
    return (-1) ** (k * (k - 1) // 2) * errors.exp_in_range(
        toeplitz.moment_log_det(np.pad(moments, 1)))


def fresh_monic_orthogonal(measure: MeasureMu, k: int):
    """``monic_orthogonal`` from a freshly gathered k x k moment system."""
    if k == 0:
        coeffs = np.array([1.0 + 0.0j])
    else:
        mat = np.array([[measure.moment(i + j) for i in range(k)]
                        for j in range(k)], dtype=complex)
        rhs = -np.array([measure.moment(k + j) for j in range(k)],
                        dtype=complex)
        coeffs = np.concatenate([np.linalg.solve(mat, rhs), [1.0 + 0.0j]])
    h_k = sum(coeffs[i] * coeffs[j] * measure.moment(i + j)
              for i in range(k + 1) for j in range(k + 1))
    return coeffs, complex(h_k)


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
    nodes, mu = measure.values
    weights = circle_weights(nodes, nodes.size)
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

    @pytest.mark.parametrize("name", ["F3", "F5"])
    @pytest.mark.parametrize("x", range(1, 7))
    def test_gram_matrix_is_the_fresh_moments(self, name, x):
        # one Gram matrix serves every order: the same bits as a moment
        # matrix gathered afresh for each determinant and each system
        mu = MeasureMu(symbols.fixture(name), x)
        assert not mu.gram.flags.writeable
        for k in range(1, mu.n + 1):
            assert gram_det(mu, k) == fresh_gram_det(mu, k)
        for k in range(mu.n + 1):
            coeffs, h = monic_orthogonal(mu, k)
            ref_coeffs, ref_h = fresh_monic_orthogonal(mu, k)
            assert np.array_equal(coeffs, ref_coeffs) and h == ref_h

    @pytest.mark.parametrize("name", ["F3", "F5"])
    @pytest.mark.parametrize("x", [2, 3, 6])
    def test_gram_det_is_the_dense_determinant(self, name, x):
        # the Toeplitz log-determinant of the row-reversed Gram block,
        # signed by the reversal, is the determinant of the block itself
        mu = MeasureMu(symbols.fixture(name), x)
        for k in range(1, mu.n + 1):
            want = np.linalg.det(mu.gram[:k, :k])
            assert abs(gram_det(mu, k) - want) <= 1e-14 * abs(want)

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

    def test_jump_probes_share_one_split(self, monkeypatch):
        # every probe reads mu from the suite's ratio split: none makes one
        sol = RHPSolution(MeasureMu(symbols.fixture("F3"), 5))
        made = []
        real = orthopoly.LaurentSplit

        def counted(values, radius):
            made.append(radius)
            return real(values, radius)

        monkeypatch.setattr(orthopoly, "LaurentSplit", counted)
        for q in np.exp(2j * np.pi * np.array([0.13, 0.41, 0.77, 0.9])):
            assert sol.jump_residual(q) < 1e-10
        assert made == []

    @pytest.mark.parametrize("name,x", [("F3", 5), ("F5", 3)])
    def test_nothing_recomputed_from_the_ratio(self, name, x, monkeypatch):
        # mu on the grid is the ratio split's own samples times q^(-x-n),
        # and off it the split's series: neither the measure nor a jump
        # probe transforms those samples again; the boundary problem builds
        # its two Cauchy-transform splits and no other
        spec = symbols.fixture(name)
        with cauchy.SuiteScope():
            cauchy.suite_for(spec, unit=True).ratio
            builds, reads = record_split_work(monkeypatch)
            sol = RHPSolution(MeasureMu(spec, x))
            for q in np.exp(2j * np.pi * np.array([0.13, 0.41, 0.77])):
                assert sol.jump_residual(q) < 1e-10
        assert builds == [1.0, 1.0] and reads == []

    def test_unit_determinant(self):
        mu = MeasureMu(symbols.fixture("F3"), 3)
        for q in (0.3 + 0.1j, 4.0 - 1.0j):
            mat = RHPSolution(mu).matrix(q)
            assert abs(np.linalg.det(mat) - 1.0) < 1e-9

    def test_far_field_tail_is_first_order(self):
        sol = RHPSolution(MeasureMu(symbols.fixture("F5"), 3))
        r1 = far_field_residual(sol, radius=400.0)
        r2 = far_field_residual(sol, radius=2000.0)
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

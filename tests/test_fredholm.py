"""Integrable kernels, Nystrom determinants, resolvent, and dual routes."""

import numpy as np
import pytest

from detlab import asymptotics, errors, fredholm, symbols, toeplitz
from detlab.cauchy import CauchySuite
from detlab.contours import unit_circle


def suite_for(name, x):
    spec = symbols.fixture(name)
    return spec, CauchySuite(spec, asymptotics.base_contour(spec), x)


class TestNystrom:
    def test_zero_kernel(self):
        res = fredholm.nystrom_det(fredholm.zero_kernel(), unit_circle())
        assert abs(res.value - 1.0) < 1e-14

    def test_constant_symbol_sine_kernel(self):
        # diag of S is x theta/(2 pi i q); det(1+S) = 1.5^x
        spec = symbols.fixture("F1")
        ct = asymptotics.base_contour(spec)
        for x in (1, 4):
            res = fredholm.nystrom_det(fredholm.kernel_S(spec, x), ct)
            assert abs(res.value - 1.5 ** x) < 1e-10

    def test_error_estimate_is_honest(self):
        spec = symbols.fixture("F4")
        ct = asymptotics.base_contour(spec)
        res = fredholm.nystrom_det(fredholm.kernel_S(spec, 3), ct)
        truth = toeplitz.toeplitz_det(spec, 3)
        assert abs(res.value - truth) < 10 * max(res.err_estimate, 1e-13)

    def test_not_converged_raises(self):
        spec = symbols.fixture("F4")
        ct = asymptotics.base_contour(spec)
        with pytest.raises(errors.NotConverged):
            fredholm.nystrom_det(fredholm.kernel_S(spec, 3), ct,
                                 tol=1e-15, m_cap=32)

    def test_overflow_is_not_converged(self):
        # det(1 + 1e9 I) is finite at 32 nodes and overflows at 64, where
        # err = inf would otherwise pass err <= tol * |det| = inf
        class Huge:
            label = "huge"

            def matrix(self, nodes, weights):
                return 1e9 * np.eye(len(nodes), dtype=complex)

        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(errors.NotConverged):
            fredholm.nystrom_det(Huge(), unit_circle())


class TestKernelAlgebra:
    def test_sine_equals_v_minus_delta(self):
        spec, suite = suite_for("F4", 3)
        ct = suite.contour
        s_det = fredholm.nystrom_det(fredholm.kernel_S(spec, 3), ct).value
        combo = fredholm.SumKernel(
            [fredholm.kernel_V(suite)] +
            [fredholm.kernel_W(spec, z, 3) for z in suite.zeros_inside()],
            "V-Delta")
        v_det = fredholm.nystrom_det(combo, ct).value
        assert abs(s_det - v_det) / abs(s_det) < 1e-10

    def test_v_residue_route(self):
        spec, suite = suite_for("F4", 2)
        kern_a = fredholm.kernel_V(suite)
        kern_b = fredholm.kernel_V_residue(spec, 2, suite.zeros_inside())
        ct = suite.contour
        a = fredholm.nystrom_det(kern_a, ct).value
        b = fredholm.nystrom_det(kern_b, ct).value
        assert abs(a - b) / abs(a) < 1e-10

    def test_delta_residue_matches_split(self):
        spec, suite = suite_for("F4", 2)
        nodes = suite.nodes[::16]
        weights = np.ones_like(nodes)
        d1 = fredholm.kernel_Delta(suite)
        d2 = fredholm.kernel_Delta_residue(spec, 2, suite.zeros_inside())
        m1 = d1.matrix(nodes, weights)
        m2 = d2.matrix(nodes, weights)
        assert np.max(np.abs(m1 - m2)) < 1e-10

    def test_positive_winding_kernel(self):
        # F7 (winding +1) on the unit circle reproduces the oracle
        spec = symbols.fixture("F7")
        for x in (2, 4):
            det = fredholm.nystrom_det(fredholm.kernel_Q(spec, x),
                                       unit_circle()).value
            assert abs(det - toeplitz.toeplitz_det(spec, x)) < 1e-9

    def test_q_kernel_zero_winding(self):
        spec = symbols.fixture("F1")
        det = fredholm.nystrom_det(fredholm.kernel_Q(spec, 3),
                                   unit_circle()).value
        assert abs(det - 1.5 ** 3) < 1e-9


class TestResolvent:
    def test_inversion_identity(self):
        for name, x in (("F2", 2), ("F4", 3)):
            _, suite = suite_for(name, x)
            res = fredholm.build_resolvent(suite)
            assert res.inversion_residual < 1e-8

    def test_m_function_dual_routes(self):
        _, suite = suite_for("F4", 2)
        rng = np.random.default_rng(7)
        for _ in range(4):
            r = suite.rho * (0.3 + 0.5 * rng.random(2))
            k1, k2 = r * np.exp(2j * np.pi * rng.random(2))
            a, b = fredholm.m_function(suite, k1, k2)
            assert abs(a - b) / max(abs(b), 1e-30) < 1e-8

    def test_m_function_diagonal(self):
        _, suite = suite_for("F2", 2)
        k = 0.55 * np.exp(0.9j)
        a, b = fredholm.m_function(suite, k, k)
        assert abs(a - b) / abs(b) < 1e-8


class TestRankOne:
    @pytest.mark.parametrize("name,x", [("F2", 2), ("F6", 5)])
    def test_three_determinant_identity(self, name, x):
        res = fredholm.rank_one_shift_identity(symbols.fixture(name), x)
        assert res["residual_difference"] < 1e-8
        assert res["residual_closed"] < 1e-8

    def test_not_a_simple_zero_guard(self):
        # phi = (q - 1.3)^2 / q has a double zero: the rank-one residue
        # kernel must refuse it
        spec = symbols.from_json_dict(
            {"kind": "rational",
             "numer": [[1.69, 0.0], [-2.6, 0.0], [1.0, 0.0]],
             "denom": [[0.0, 0.0], [1.0, 0.0]]}, label="double-zero")
        with pytest.raises(errors.NotASimpleZero):
            fredholm.kernel_W(spec, 1.3, 2)

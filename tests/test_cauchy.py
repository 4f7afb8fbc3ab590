"""Scalar transforms: splits, jump condition, w and b functions."""

import numpy as np
import pytest

from detlab import asymptotics, cauchy, errors, fredholm, symbols
from detlab.cauchy import CauchySuite, WindingAdjustedSuite
from detlab.contours import Circle, Contour, unit_circle


def suite_for(name, x=2):
    spec = symbols.fixture(name)
    return CauchySuite(spec, asymptotics.base_contour(spec), x)


class TestJump:
    @pytest.mark.parametrize("name", symbols.FIXTURE_NAMES[1:])
    def test_jump_residual_small(self, name):
        assert suite_for(name).jump_residual < 1e-10

    def test_f2_closed_form(self):
        # log phi = 0.3 q + 0.2/q splits exactly into 0.3 q inside, -0.2/q outside
        s = suite_for("F2")
        q_in = np.array([0.3 + 0.1j])
        q_out = np.array([1.7 - 0.4j])
        assert abs(s.Omega_gt(q_in)[0] - 0.3 * q_in[0]) < 1e-12
        assert abs(s.Omega_lt(q_out)[0] + 0.2 / q_out[0]) < 1e-12

    def test_overflowing_density_raises(self):
        # 2^1024 overflows a double: w's density q^x is inf on the grid
        circle = Contour((Circle(0.0, 2.0, 1),))
        with pytest.raises(errors.OverflowGuard):
            CauchySuite(symbols.fixture("F2"), circle, 1024)

    def test_winding_on_wrong_circle_rejected(self):
        with pytest.raises(errors.WindingNonzero):
            CauchySuite(symbols.fixture("F3"), unit_circle(), 2)


class TestWFunction:
    def test_series_vs_residue(self):
        s = suite_for("F4", x=3)
        zeros = s.zeros_inside()
        q = np.array([s.rho * 1.4 + 0.2j, s.rho * np.exp(0.7j)])
        a = fredholm.kernel_V(s).vp(q)
        b = fredholm.kernel_V_residue(s.spec, 3, zeros).vp(q)
        assert np.max(np.abs(a - b)) < 1e-10

    def test_derivative_vs_finite_difference(self):
        s = suite_for("F4", x=3)
        q, h = 4.0 + 1.0j, 1e-6
        fd = (s.w_split.minus(np.array([q + h]))[0] -
              s.w_split.minus(np.array([q - h]))[0]) / (2 * h)
        assert abs(s.w_split.minus(np.array([q]), 1)[0] - fd) < 1e-7

    def test_direct_quadrature_matches(self):
        s = suite_for("F4", x=2)
        q = 1.4 * s.rho
        direct = cauchy.varphi_C(s, q)
        series = s.w_split.minus(np.array([q]))[0]
        assert abs(direct - series) < 1e-10

    def test_too_close_to_contour(self):
        s = suite_for("F4", x=2)
        with pytest.raises(errors.TooCloseToContour):
            cauchy.varphi_C(s, s.nodes[3] * (1 + 1e-9))


class TestBFunction:
    def test_series_vs_residue(self):
        s = suite_for("F4", x=2)
        zeros = s.zeros_outside()
        q = np.array([0.2 + 0.1j, -0.4j])
        a = s.b_plus(q)
        b = s.b_plus_residue(q, zeros)
        assert np.max(np.abs(a - b)) < 1e-10

    def test_direct_quadrature_matches(self):
        s = suite_for("F4", x=2)
        q = 0.25 + 0.15j
        assert abs(cauchy.b_C_quadrature(s, q) - s.b_plus(np.array([q]))[0]) \
            < 1e-10

    def test_residue_route_needs_rational(self):
        s = suite_for("F2")
        with pytest.raises(errors.NoResidueForm):
            s.zeros_outside()


class TestWindingAdjusted:
    def test_compensated_shift_is_single_valued(self):
        for name in ("F3", "F5", "F7"):
            ws = WindingAdjustedSuite(symbols.fixture(name))
            assert ws.split.tail_ratio() < 1e-12, name

    def test_jump_of_adjusted_transforms(self):
        ws = WindingAdjustedSuite(symbols.fixture("F5"))
        jump = ws.omega_gt(ws.nodes) - ws.omega_lt(ws.nodes)
        assert np.max(np.abs(jump - 2j * np.pi * ws.nu_adj)) < 1e-10

    def test_small_omega_sides(self):
        ws = WindingAdjustedSuite(symbols.fixture("F3"))
        inside = ws.omega_gt(np.array([0.2 + 0j]))
        outside = ws.omega_lt(np.array([3.0 + 0j]))
        assert np.isfinite(inside).all() and np.isfinite(outside).all()

    def test_relation_between_raw_and_adjusted(self):
        # on the unit circle for winding -n: e^{omega_gt} = e^{Omega-like piece}
        # checked indirectly: the adjusted jump reproduces nu up to the
        # compensating sawtooth
        spec = symbols.fixture("F3")
        ws = WindingAdjustedSuite(spec)
        nu = symbols.eval_nu_grid(spec, ws.nodes)
        ang = np.angle(ws.nodes)
        expect = nu - ws.winding * (ang + np.pi) / (2 * np.pi)
        assert np.max(np.abs(ws.nu_adj - expect)) < 1e-10

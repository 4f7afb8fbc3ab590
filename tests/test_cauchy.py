"""Scalar transforms: splits, jump condition, w and b functions.

``direct_transform`` and ``b_plus_residue`` are the independent routes to
the suite's series transforms: the trapezoid sum of a Cauchy integral at a
point off the circle, and b as a residue sum over the zeros outside it.
"""

import numpy as np
import pytest

from detlab import errors, fredholm, symbols
from detlab.cauchy import CauchySuite


def suite_for(name, x=2):
    return CauchySuite(symbols.fixture(name), x)


def w_density(suite: CauchySuite):
    """q^x theta/(1 + theta) on the suite's nodes."""
    return suite.nodes ** suite.x * suite.theta / (1.0 + suite.theta)


def b_density(suite: CauchySuite):
    """-q^{-x} theta e^{-Omega_gt - Omega_lt} on the suite's nodes."""
    return -suite.nodes ** (-suite.x) * suite.theta * np.exp(
        -suite.Omega_gt(suite.nodes) - suite.Omega_lt(suite.nodes))


def w_minus(suite: CauchySuite, q, derivative: int = 0):
    """Outside part of the suite's w split at the points q."""
    split = fredholm._w_split(suite.nodes, suite.theta, suite.x, suite.rho)
    return split.minus(np.array([q]), derivative)[0]


def direct_transform(suite: CauchySuite, density, q) -> complex:
    """Direct quadrature of the Cauchy transform of ``density`` (sampled on
    the suite's nodes) at a point off the circle."""
    q = complex(q)
    mindist = np.min(np.abs(suite.nodes - q))
    if mindist < 2.0 * np.pi * suite.rho / suite.m:
        raise errors.TooCloseToContour(f"distance {mindist:.2e} below node spacing")
    return complex(np.sum(suite.weights * density / (suite.nodes - q))
                   / (2j * np.pi))


def b_plus_residue(suite: CauchySuite, q, zeros_outside, derivative: int = 0):
    """b via residues over the zeros of phi outside the circle.

    The overall sign is fixed so that the series and residue routes agree;
    equivalently, so that the explicit resolvent built from b satisfies
    the inversion identity (checked in ``test_fredholm.py``).
    """
    q = np.asarray(q, dtype=complex)
    acc = np.zeros(np.shape(q), dtype=complex)
    for w in zeros_outside:
        pref = -suite.residue_weight(w)
        if derivative == 0:
            acc = acc + pref / (w - q)
        elif derivative == 1:
            acc = acc + pref / (w - q) ** 2
        else:
            raise errors.InputError("only first derivatives are supported")
    return acc


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
        # F7 sits on radius 0.32, where q^-1024 overflows a double: the
        # suite builds, and b's density raises at its first read
        s = suite_for("F7", x=1024)
        with pytest.raises(errors.OverflowGuard):
            s.b_plus(0.1)


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
        fd = (w_minus(s, q + h) - w_minus(s, q - h)) / (2 * h)
        assert abs(w_minus(s, q, 1) - fd) < 1e-7

    def test_direct_quadrature_matches(self):
        s = suite_for("F4", x=2)
        q = 1.4 * s.rho
        assert abs(direct_transform(s, w_density(s), q) - w_minus(s, q)) < 1e-10

    def test_too_close_to_contour(self):
        s = suite_for("F4", x=2)
        with pytest.raises(errors.TooCloseToContour):
            direct_transform(s, w_density(s), s.nodes[3] * (1 + 1e-9))


class TestBFunction:
    def test_series_vs_residue(self):
        s = suite_for("F4", x=2)
        zeros = s.zeros_outside()
        q = np.array([0.2 + 0.1j, -0.4j])
        a = s.b_plus(q)
        b = b_plus_residue(s, q, zeros)
        assert np.max(np.abs(a - b)) < 1e-10

    def test_direct_quadrature_matches(self):
        s = suite_for("F4", x=2)
        q = 0.25 + 0.15j
        assert abs(direct_transform(s, b_density(s), q) -
                   s.b_plus(np.array([q]))[0]) < 1e-10

    def test_residue_route_needs_rational(self):
        s = suite_for("F2")
        with pytest.raises(errors.NoResidueForm):
            s.zeros_outside()


def unit_suite(name, x=2):
    return CauchySuite(symbols.fixture(name), x, unit=True)


class TestWindingAdjusted:
    """The unit-circle suite of the winding-compensated phase shift."""

    def test_compensated_shift_is_single_valued(self):
        for name in ("F3", "F5", "F7"):
            assert unit_suite(name).nu_split.tail_ratio() < 1e-12, name

    def test_jump_of_adjusted_transforms(self):
        for name in ("F3", "F5", "F7"):
            s = unit_suite(name)
            jump = s.Omega_gt(s.nodes) - s.Omega_lt(s.nodes)
            assert np.max(np.abs(jump - 2j * np.pi * s.nu)) < 1e-10, name

    def test_small_omega_sides(self):
        s = unit_suite("F3")
        inside = s.Omega_gt(np.array([0.2 + 0j]))
        outside = s.Omega_lt(np.array([3.0 + 0j]))
        assert np.isfinite(inside).all() and np.isfinite(outside).all()

    def test_relation_between_raw_and_adjusted(self):
        # the split reproduces the raw nu up to the compensating sawtooth
        spec = symbols.fixture("F3")
        s = CauchySuite(spec, 2, unit=True)
        nu = symbols.eval_nu_grid(spec, s.nodes)
        ang = np.angle(s.nodes)
        expect = nu - s.winding * (ang + np.pi) / (2 * np.pi)
        assert np.max(np.abs(s.nu_split.reconstruct(s.nodes) - expect)) < 1e-10

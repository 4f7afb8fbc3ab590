"""Scalar transforms: splits, jump condition, w and b functions.

``direct_transform`` and ``b_plus_residue`` are the independent routes to
the suite's series transforms: the trapezoid sum of a Cauchy integral at a
point off the circle, and b as a residue sum over the zeros outside it.
``series_weight`` forms a residue weight from the series Omega, against
which the weights read from the factorization of P/Q are checked.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from detlab import asymptotics, cauchy, errors, fredholm, symbols
from detlab.cauchy import CauchySuite
from test_asymptotics import two_sided_symbols


def suite_for(name):
    return CauchySuite(symbols.fixture(name))


def w_density(suite: CauchySuite, x):
    """q^x theta/(1 + theta) on the suite's nodes."""
    theta = symbols.eval_theta(suite.spec, suite.nodes)
    return suite.nodes ** x * theta / (1.0 + theta)


def b_density(suite: CauchySuite, x):
    """-q^{-x} theta e^{-Omega_gt - Omega_lt} on the suite's nodes."""
    theta = symbols.eval_theta(suite.spec, suite.nodes)
    return -suite.nodes ** (-x) * theta * np.exp(
        -suite.Omega_gt(suite.nodes) - suite.Omega_lt(suite.nodes))


def w_minus(suite: CauchySuite, x, q):
    """Outside part of kernel_V's w at the point q, read off its generator
    vp = g_1 = q^{x/2} + q^{-x/2} w_minus."""
    half = complex(q) ** (x / 2.0)
    kern = fredholm.kernel_V(suite.spec, x, suite.rho)
    return (kern.generators(np.array([q]))[2][0][0] - half) * half


def direct_transform(suite: CauchySuite, density, q) -> complex:
    """Direct quadrature of the Cauchy transform of ``density`` (sampled on
    the suite's nodes) at a point off the circle."""
    q = complex(q)
    mindist = np.min(np.abs(suite.nodes - q))
    if mindist < 2.0 * np.pi * suite.rho / suite.m:
        raise errors.TooCloseToContour(f"distance {mindist:.2e} below node spacing")
    return complex(np.sum(suite.weights * density / (suite.nodes - q))
                   / (2j * np.pi))


def b_plus_residue(suite: CauchySuite, x, q, zeros_outside,
                   derivative: int = 0):
    """b via residues over the zeros of phi outside the circle.

    The overall sign is fixed so that the series and residue routes agree;
    equivalently, so that the explicit resolvent built from b satisfies
    the inversion identity (checked in ``test_fredholm.py``).
    """
    q = np.asarray(q, dtype=complex)
    acc = np.zeros(np.shape(q), dtype=complex)
    for w in zeros_outside:
        pref = -suite.residue_weight(w, x)
        if derivative == 0:
            acc = acc + pref / (w - q)
        elif derivative == 1:
            acc = acc + pref / (w - q) ** 2
        else:
            raise errors.InputError("only first derivatives are supported")
    return acc


def series_weight(suite: CauchySuite, z, x) -> complex:
    """z^x e^{2 Omega_gt(z)} / phi'(z) inside the circle, z^{-x} e^{-2
    Omega_lt(z)} / phi'(z) outside it, Omega summed from the suite's
    series and phi' from ``eval_dphi`` on an array."""
    dphi = complex(symbols.eval_dphi(suite.spec, np.asarray(z)))
    if abs(z) < suite.rho:
        return complex(z ** x * np.exp(2.0 * suite.Omega_gt(z)) / dphi)
    return complex(z ** (-x) * np.exp(-2.0 * suite.Omega_lt(z)) / dphi)


class TestResidueWeights:
    """``residue_weight`` reads Omega at a zero from the factorization of
    P/Q over the other zeros and the poles; the series Omega agrees with it
    to at worst 1.5e-14 on the fixtures and 7.0e-14 over 300 draws of
    ``two_sided_symbols``, relative, at x up to 64."""

    TOL = 1e-12

    def assert_weights_match(self, spec, xs):
        suite = CauchySuite(spec)
        zeros = symbols.analyze(spec).zeros
        assert zeros
        for z in zeros:
            for x in xs:
                want = series_weight(suite, z, x)
                assert abs(suite.residue_weight(z, x) - want) <= \
                    self.TOL * abs(want), (z, x)

    # F6's circle is the unit circle, round its pole at the origin; F7's
    # contracts to 0.32, so its one zero, 0.4, lies outside it
    @pytest.mark.parametrize("name", ["F3", "F4", "F5", "F6", "F7"])
    def test_fixtures(self, name):
        self.assert_weights_match(symbols.fixture(name), (0, 2, 16, 64))

    @settings(max_examples=25, deadline=None)
    @given(spec=two_sided_symbols(), x=st.integers(0, 16))
    def test_two_sided_draws(self, spec, x):
        self.assert_weights_match(spec, (x,))

    def test_winding_suite_has_no_weights(self):
        # F4 winds -1 on the unit circle, where its suite splits the
        # compensated shift: that split is no factorization of phi
        with pytest.raises(errors.WindingNonzero):
            unit_suite("F4").residue_weight(1.4, 3)

    def test_exponential_factor_has_no_weights(self):
        with pytest.raises(errors.NoResidueForm):
            suite_for("F2").residue_weight(0.5, 3)


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
        # suite builds, and b's split raises at x = 1024 only
        s = suite_for("F7")
        s.b_split(512)
        with pytest.raises(errors.OverflowGuard):
            s.b_split(1024)


class TestWFunction:
    def test_series_vs_residue(self):
        s = suite_for("F4")
        zeros = s.zeros_inside()
        q = np.array([s.rho * 1.4 + 0.2j, s.rho * np.exp(0.7j)])
        a = fredholm.kernel_V(s.spec, 3, s.rho).generators(q)[2][0]
        b = fredholm.kernel_V_residue(s.spec, 3, zeros).generators(q)[2][0]
        assert np.max(np.abs(a - b)) < 1e-10

    def test_derivative_vs_finite_difference(self):
        # w_minus' read back from dvp = g_1' = (x/2) q^{x/2-1}
        #   + q^{-x/2} (w_minus' - (x/2) w_minus / q)
        s, x = suite_for("F4"), 3
        kern = fredholm.kernel_V(s.spec, x, s.rho)
        q, h = 4.0 + 1.0j, 1e-6
        dvp = kern.generators(np.array([q]))[3][0][0]
        dw = (dvp - (x / 2) * q ** (x / 2 - 1)) * q ** (x / 2) + \
            (x / 2) * w_minus(s, x, q) / q
        fd = (w_minus(s, x, q + h) - w_minus(s, x, q - h)) / (2 * h)
        assert abs(dw - fd) < 1e-7

    def test_direct_quadrature_matches(self):
        s = suite_for("F4")
        q = 1.4 * s.rho
        assert abs(direct_transform(s, w_density(s, 2), q) -
                   w_minus(s, 2, q)) < 1e-10

    def test_too_close_to_contour(self):
        s = suite_for("F4")
        with pytest.raises(errors.TooCloseToContour):
            direct_transform(s, w_density(s, 2), s.nodes[3] * (1 + 1e-9))


class TestBFunction:
    def test_series_vs_residue(self):
        s = suite_for("F4")
        zeros = s.zeros_outside()
        q = np.array([0.2 + 0.1j, -0.4j])
        a = s.b_split(2).plus(q)
        b = b_plus_residue(s, 2, q, zeros)
        assert np.max(np.abs(a - b)) < 1e-10

    def test_direct_quadrature_matches(self):
        s = suite_for("F4")
        q = 0.25 + 0.15j
        assert abs(direct_transform(s, b_density(s, 2), q) -
                   s.b_split(2).plus(np.array([q]))[0]) < 1e-10

    def test_residue_route_needs_rational(self):
        s = suite_for("F2")
        with pytest.raises(errors.NoResidueForm):
            s.zeros_outside()


def unit_suite(name):
    return CauchySuite(symbols.fixture(name), unit=True)


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
        s = CauchySuite(spec, unit=True)
        nu = symbols.eval_nu_grid(spec, s.nodes)
        ang = np.angle(s.nodes)
        expect = nu - s.winding * (ang + np.pi) / (2 * np.pi)
        assert np.max(np.abs(s.nu_split.reconstruct(s.nodes) - expect)) < 1e-10


class TestLazySuite:
    """The boundary values on the grid, the jump check and the weights are
    formed on first read, by whichever route reads first."""

    MEMBERS = ("Omega_gt_nodes", "Omega_lt_nodes", "jump_residual")

    @staticmethod
    def read(suite, order):
        """The suite's boundary arrays, ratio split and b split of x = 3,
        read in ``order``, returned in a fixed order."""
        got = {}
        for name in order:
            got[name] = suite.b_split(3) if name == "b" else getattr(suite,
                                                                     name)
        return (got["Omega_gt_nodes"], got["Omega_lt_nodes"], got["ratio"].c,
                got["b"].c)

    @pytest.mark.parametrize("name,unit", [("F1", False), ("F2", False),
                                           ("F3", True), ("F4", False),
                                           ("F4", True), ("F7", False)])
    def test_read_orders_give_the_same_bits(self, name, unit):
        spec = symbols.fixture(name)
        orders = (("Omega_gt_nodes", "Omega_lt_nodes", "ratio", "b"),
                  ("b", "ratio", "Omega_lt_nodes", "Omega_gt_nodes"),
                  ("ratio", "b", "Omega_gt_nodes", "Omega_lt_nodes"))
        first, *rest = (self.read(CauchySuite(spec, unit=unit), order)
                        for order in orders)
        for other in rest:
            assert all(np.array_equal(a, b) for a, b in zip(first, other))

    def test_members_are_read_only(self):
        s = suite_for("F4")
        for a in (s.nu, s.weights, s.Omega_gt_nodes, s.Omega_lt_nodes):
            assert not a.flags.writeable
        assert s.Omega_gt_nodes is s.Omega_gt_nodes

    @pytest.mark.parametrize("member", MEMBERS + ("ratio",))
    def test_bad_jump_raises_on_first_read(self, member, monkeypatch):
        # the suite builds; the first read of any member runs the check
        real = CauchySuite.Omega_gt
        monkeypatch.setattr(CauchySuite, "Omega_gt",
                            lambda self, q, d=0: real(self, q, d) + 1e-9)
        s = suite_for("F4")
        for _ in range(2):   # a failed check is not held
            with pytest.raises(errors.NumericalError, match="jump residual"):
                getattr(s, member)
        with pytest.raises(errors.NumericalError):
            s.b_split(3)

    @pytest.mark.parametrize("route,name", [(asymptotics.szego, "F1"),
                                            (asymptotics.szego, "F6"),
                                            (asymptotics.tau_leading, "F4"),
                                            (asymptotics.slavnov_series, "F4"),
                                            (asymptotics.slavnov_series, "F6")])
    def test_routes_leave_the_boundary_unformed(self, route, name):
        spec = symbols.fixture(name)
        with cauchy.SuiteScope():
            route(spec, 8)
            suite = cauchy.suite_for(spec)
            assert "_boundary" not in vars(suite)
            suite.jump_residual
            assert "_boundary" in vars(suite)

"""Scalar transforms: the closed-form factors, jump condition, w and b.

``direct_transform`` and ``b_plus_residue`` are the independent routes to
the suite's transforms: the trapezoid sum of a Cauchy integral at a point
off the circle, and b as a residue sum over the zeros outside it.
``sampled_split`` (``test_asymptotics``) is the sampled reference of the
factors read from the roots: ``series_weight`` forms a residue weight from
it, and ``TestClosedForm`` holds the factors, nu_0 and the strong-limit
exponent to it.  ``TestNotes`` holds ``cauchy.Notes``, the record of the
path each determinant took.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from detlab import (asymptotics, cauchy, cli, errors, fredholm, symbols,
                    toeplitz)
from detlab._series import circle_nodes, circle_weights, grid_of
from detlab.cauchy import CauchySuite
from test_asymptotics import (sampled_split, sampled_strong_limit,
                              two_sided_symbols)
from test_formfactors import banded_symbols

M = 256   # nodes of the trapezoid grids here


def suite_for(name):
    return CauchySuite(symbols.fixture(name))


def w_density(suite: CauchySuite, x):
    """q^x theta/(1 + theta) on M nodes of the suite's circle."""
    nodes = circle_nodes(suite.rho, M)
    theta = symbols.eval_theta(suite.spec, nodes)
    return nodes ** x * theta / (1.0 + theta)


def b_density(suite: CauchySuite, x):
    """-q^{-x} theta e^{-Omega_gt - Omega_lt} on M nodes of the circle."""
    nodes = circle_nodes(suite.rho, M)
    theta = symbols.eval_theta(suite.spec, nodes)
    return -nodes ** (-x) * theta * np.exp(
        -suite.Omega_gt(nodes) - suite.Omega_lt(nodes))


def w_minus(suite: CauchySuite, x, q):
    """Outside part of kernel_V's w at the point q, read off its generator
    vp = g_1 = q^{x/2} + q^{-x/2} w_minus."""
    half = complex(q) ** (x / 2.0)
    kern = fredholm.kernel_V(suite.spec, x, suite.rho)
    return (kern.generators(np.array([q]))[2][0][0] - half) * half


def direct_transform(suite: CauchySuite, density, q) -> complex:
    """Direct quadrature of the Cauchy transform of ``density`` (sampled on
    M nodes of the suite's circle) at a point off the circle."""
    q = complex(q)
    nodes = circle_nodes(suite.rho, M)
    mindist = np.min(np.abs(nodes - q))
    if mindist < 2.0 * np.pi * suite.rho / M:
        raise errors.TooCloseToContour(f"distance {mindist:.2e} below node spacing")
    return complex(np.sum(circle_weights(nodes, M) * density / (nodes - q))
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
    Omega_lt(z)} / phi'(z) outside it, Omega summed from the series of
    ``sampled_split`` and phi' from ``eval_dphi`` on an array."""
    split = sampled_split(suite.spec, suite.rho, suite.winding)
    dphi = complex(symbols.eval_dphi(suite.spec, np.asarray(z)))
    if abs(z) < suite.rho:
        return complex(z ** x * np.exp(4j * np.pi * split.plus(z)) / dphi)
    return complex(z ** (-x) * np.exp(-4j * np.pi * split.minus(z)) / dphi)


class TestResidueWeights:
    """``residue_weight`` reads Omega at a zero from the roots of phi on
    either side of the circle; the sampled series Omega agrees with it to
    at worst 1.5e-14 on the fixtures and 7.0e-14 over 300 draws of
    ``two_sided_symbols``, relative, at x up to 64 (measured with the
    suite's own sampled split)."""

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
            direct_transform(s, w_density(s, 2),
                             circle_nodes(s.rho, M)[3] * (1 + 1e-9))


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

    @pytest.mark.parametrize("name,x", [
        (name, x) for name in ("F2", "F3", "F4", "F6")
        for x in (8, 64, 120, 126, 128, 200)])
    def test_resolvent_past_the_first_grid(self, name, x):
        # b's grid is sized from x, max(256, 4x) nodes: q^-x shifts modes
        # past the 128 of a 256-node grid at x near 128, and on it F4 read
        # 4.84 at x = 126 (4.1e-12 on 512 nodes).  The residual's own grid
        # is sized from x and theta's modes: on a fixed 128 nodes F2, whose
        # theta has a mode at every index, read 2.7e-5 at x = 126
        try:
            residual = fredholm.resolvent_residual(suite_for(name), x)
        except errors.DetlabError:
            return
        assert residual < 1e-8


def unit_suite(name):
    return CauchySuite(symbols.fixture(name), unit=True)


class TestWindingAdjusted:
    """The unit-circle suite where phi winds w: the factors of psi =
    q^-w phi, against the phase shift compensated for the winding."""

    def test_compensated_shift_is_single_valued(self):
        # the closed form meets the halves of the sampled compensated shift,
        # whose split converges: it is single-valued on the circle
        for name in ("F3", "F5", "F7"):
            s = unit_suite(name)
            assert s.winding != 0
            assert sampled_split(s.spec, 1.0, s.winding).tail_ratio() < \
                1e-12, name
            assert s.jump_residual < 1e-12, name

    def test_jump_of_adjusted_transforms(self):
        for name in ("F3", "F5", "F7"):
            s = unit_suite(name)
            nodes = circle_nodes(1.0, M)
            nu = symbols.eval_nu_grid(s.spec, nodes) - \
                s.winding * (np.angle(nodes) + np.pi) / (2 * np.pi)
            jump = s.Omega_gt(nodes) - s.Omega_lt(nodes)
            assert np.max(np.abs(jump - 2j * np.pi * nu)) < 1e-10, name

    def test_small_omega_sides(self):
        s = unit_suite("F3")
        inside = s.Omega_gt(np.array([0.2 + 0j]))
        outside = s.Omega_lt(np.array([3.0 + 0j]))
        assert np.isfinite(inside).all() and np.isfinite(outside).all()

    def test_relation_between_raw_and_adjusted(self):
        # e^{Omega_gt - Omega_lt} = e^{2 pi i nu} e^{-i w (arg q + pi)} =
        # (-1)^w q^-w phi on the circle, and off it, in the annulus free of
        # roots, where both sides are analytic
        for name in ("F3", "F5", "F7"):
            s = unit_suite(name)
            for r in (0.97, 1.0, 1.03):
                q = r * np.exp(1j * np.linspace(-3.1, 3.1, 9))
                want = (-1.0) ** s.winding * q ** -s.winding * \
                    symbols.eval_phi(s.spec, q)
                got = np.exp(s.Omega_gt(q) - s.Omega_lt(q))
                assert np.max(np.abs(got - want) / np.abs(want)) < 1e-13


@st.composite
def exponent_factors(draw):
    """A draw of ``two_sided_symbols`` or ``banded_symbols``, times a small
    exp(sum_j t_j q^j), |t_j| <= 0.2 at j = -2 .. 2, or not."""
    spec = draw(st.one_of(two_sided_symbols(), banded_symbols()))
    if not draw(st.booleans()):
        return spec
    t = st.complex_numbers(max_magnitude=0.2)
    return symbols.SymbolSpec(numer=spec.numer, denom=spec.denom,
                              log_coeffs={j: draw(t) for j in range(-2, 3)})


class TestClosedForm:
    """The factors read from the roots and t_j against ``sampled_split``,
    the split of the sampled phase shift: both suites at every winding the
    strategies give."""

    TOL = 1e-12

    @settings(max_examples=40, deadline=None)
    @given(spec=exponent_factors(), x=st.integers(0, 16))
    def test_factors_match_the_sample(self, spec, x):
        for unit in (False, True):
            suite = CauchySuite(spec, unit=unit)
            split = sampled_split(spec, suite.rho, suite.winding)
            # off the circle, inside the annulus free of roots
            angles = np.exp(1j * np.linspace(-3.0, 3.1, 7))
            inner, outer = 0.97 * suite.rho * angles, 1.03 * suite.rho * angles
            assert np.max(np.abs(suite.Omega_gt(inner) -
                                 2j * np.pi * split.plus(inner))) < self.TOL
            assert np.max(np.abs(suite.Omega_lt(outer) -
                                 2j * np.pi * split.minus(outer))) < self.TOL
            assert abs(suite.C - 2j * np.pi * split.coefficient(0)) < self.TOL
            assert abs(asymptotics._log_strong_limit(suite, x) -
                       sampled_strong_limit(split, x, suite.winding)) < \
                self.TOL * max(1, x)

    @pytest.mark.parametrize("name", symbols.FIXTURE_NAMES)
    def test_derivatives_match_the_sample(self, name):
        spec = symbols.fixture(name)
        suite = CauchySuite(spec)
        split = sampled_split(spec, suite.rho, 0)
        q = suite.rho * np.exp(1j * np.linspace(-3.0, 3.1, 7))
        for side, half, r in (("Omega_gt", split.plus, 0.97),
                              ("Omega_lt", split.minus, 1.03)):
            got = getattr(suite, side)(r * q, 1)
            assert np.max(np.abs(got - 2j * np.pi * half(r * q, 1))) < 1e-11

    def test_scalar_and_array_agree(self):
        suite = suite_for("F4")
        q = np.array([0.5 + 0.2j, 2.5 - 1j])
        for side in ("Omega_gt", "Omega_lt"):
            for d in (0, 1):
                arr = getattr(suite, side)(q, d)
                assert all(abs(getattr(suite, side)(p, d) - a) < 1e-15
                           for p, a in zip(q.tolist(), arr))

    def test_construction_samples_nothing(self, monkeypatch):
        def sampled(*args):
            raise AssertionError("a suite sampled the symbol")

        for name in symbols.FIXTURE_NAMES:   # the memoised analyses
            symbols.analyze(symbols.fixture(name))
        for name in ("eval_phi", "eval_nu_grid", "eval_dphi"):
            monkeypatch.setattr(symbols, name, sampled)
        monkeypatch.setattr(cauchy, "_converged_split", sampled)
        for name in symbols.FIXTURE_NAMES:
            for unit in (False, True):
                CauchySuite(symbols.fixture(name), unit=unit)


class TestLazySuite:
    """The jump check, the ratio split and the b split are formed on first
    read, by whichever route reads first."""

    MEMBERS = ("jump_residual", "ratio")

    @staticmethod
    def read(suite, order):
        """The suite's jump residual, ratio split, b split of x = 3 and nu
        split, read in ``order``, returned in a fixed order."""
        got = {}
        for name in order:
            got[name] = suite.b_split(3) if name == "b" else getattr(suite,
                                                                     name)
        return (got["jump_residual"], got["ratio"].c, got["b"].c,
                got["nu_split"].c)

    @pytest.mark.parametrize("name,unit", [("F1", False), ("F2", False),
                                           ("F3", True), ("F4", False),
                                           ("F4", True), ("F7", False)])
    def test_read_orders_give_the_same_bits(self, name, unit):
        spec = symbols.fixture(name)
        orders = (("jump_residual", "ratio", "b", "nu_split"),
                  ("b", "ratio", "jump_residual", "nu_split"),
                  ("ratio", "b", "jump_residual", "nu_split"),
                  ("nu_split", "b", "ratio", "jump_residual"))
        first, *rest = (self.read(CauchySuite(spec, unit=unit), order)
                        for order in orders)
        for other in rest:
            assert all(np.array_equal(a, b) for a, b in zip(first, other))

    def test_members_are_read_only(self):
        s = suite_for("F4")
        assert not s.ratio.values.flags.writeable
        assert s.ratio is s.ratio
        assert isinstance(s.outside, tuple) and isinstance(s.inside, tuple)

    @pytest.mark.parametrize("member", MEMBERS)
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
            assert "jump_residual" not in vars(suite)
            suite.jump_residual
            assert "jump_residual" in vars(suite)

    def test_factors_evaluated_once_on_the_check_grid(self, monkeypatch):
        # the jump check keeps e^{-Omega_gt - Omega_lt} on its grid, and the
        # ratio's sample there reads it
        calls = []
        for side in ("Omega_gt", "Omega_lt"):
            def counted(self, q, derivative=0,
                        real=getattr(CauchySuite, side), side=side):
                if grid_of(q) == (1.0, M):
                    calls.append(side)
                return real(self, q, derivative)
            monkeypatch.setattr(CauchySuite, side, counted)
        asymptotics.hartwig_fisher(symbols.fixture("F4"), 16)
        assert sorted(calls) == ["Omega_gt", "Omega_lt"]

    def test_double_routes_read_the_checked_nu(self, monkeypatch):
        # one split of nu per suite: the jump check's, which the double
        # routes read within the scope
        splits = []
        real = cauchy._converged_split

        def counted(sample, m0):
            splits.append(m0)
            return real(sample, m0)

        monkeypatch.setattr(cauchy, "_converged_split", counted)
        monkeypatch.setattr(asymptotics, "_converged_split", counted)
        spec = symbols.fixture("F4")
        with cauchy.SuiteScope():
            cauchy.suite_for(spec).jump_residual
            assert splits == [M]
            asymptotics.tau_leading(spec, 8, route="double")
            asymptotics.variational_check(spec, 8, 1)
        assert splits == [M]



class TestNotes:
    """Each determinant notes the path it took where it chose it, into the
    innermost entered ``cauchy.Notes``; outside any, nothing is kept."""

    @pytest.mark.parametrize("name", [f"F{k}" for k in range(1, 8)])
    @pytest.mark.parametrize("x", [2, 32])
    def test_every_determinant_notes_its_path(self, name, x):
        # toeplitz_det notes a path, and a nystrom_det that returns one
        # ladder, right after the grids it took; F7's tau_eff, 0 at
        # positive winding, builds no kernel
        spec = symbols.fixture(name)
        for route in ("toeplitz", "fredholm_S", "fredholm_V"):
            with cauchy.Notes() as notes:
                value = cli.ROUTES[route](spec, x, None)
            if route == "toeplitz":
                assert notes and {kind for kind, in notes} <= {
                    "levinson", "block", "lu"}
            elif notes or value:
                (_, res), = [e for e in notes if e[0] == "ladder"]
                grids = tuple(e[1] for e in notes if e[0] == "grid")
                assert notes[-1][1] is res and grids == res.grids
                assert res.value == value

    def test_nothing_is_kept_outside(self):
        # a note goes to the innermost entered Notes alone, and outside any
        # there is no list to keep it
        spec = symbols.fixture("F4")
        with cauchy.Notes() as outer:
            with cauchy.Notes() as inner:
                toeplitz.toeplitz_det(spec, 2)
            toeplitz.toeplitz_det(spec, 2)
        toeplitz.toeplitz_det(spec, 2)
        assert inner == outer == [("lu",)] and cauchy._NOTES.get() is None

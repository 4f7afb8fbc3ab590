"""The ladder of exact and asymptotic determinant formulas.

``slavnov_term`` and ``enumerated_series`` are the oracle of the correction
series: the sum taken term by term over all pairs of equally sized zero
subsets, against which the closed form of ``slavnov_series`` is checked.
They read Omega at the zeros from ``sampled_split``, the Cauchy split of the
sampled phase shift, not from the roots that ``slavnov_series``' weights
read.
"""

import dataclasses
import inspect
import itertools
import json
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from detlab import asymptotics as A
from detlab import cauchy, cli, contours, errors, fredholm, symbols, toeplitz
from detlab._series import LaurentSplit, circle_nodes, grid_of
from detlab.cauchy import CauchySuite
from test_formfactors import banded_symbols, log_gap
from test_perfbench_hooks import PERFBENCH, load_perfbench


class SizeMismatch(ValueError):
    """Zero subsets of unequal size given to ``slavnov_term``."""


def sampled_split(spec, radius, winding):
    """The sampled reference of a suite's factors on the circle of
    ``radius``: the Cauchy split (``laurent_coeffs``) of the phase shift
    sampled by ``eval_nu_grid``, less the sawtooth w (arg q + pi)/(2 pi)
    of the winding w there, on the grid where its tail converges
    (``cauchy._converged_split`` from 256 nodes).  Omega_gt and Omega_lt
    are 2 pi i times its plus and minus parts."""
    def sample(m):
        nodes = circle_nodes(radius, m)
        return (symbols.eval_nu_grid(spec, nodes) - winding *
                (np.angle(nodes) + np.pi) / (2.0 * np.pi), radius)
    return cauchy._converged_split(sample, 256)[0]


def sampled_strong_limit(split, x, winding) -> complex:
    """(x - w) v_0 plus the mode sum sum_{m>=1} m v_m v_{-m}, v_j = 2 pi i
    times coefficient j of ``split``: the strong-limit exponent of the
    sample."""
    js, v = split.j, 2j * np.pi * split.c
    pos = js > 0
    modes = np.sum(js[pos] * v[pos] * v[np.searchsorted(js, -js[pos])])
    return (x - winding) * 2j * np.pi * split.coefficient(0) + modes


def slavnov_term(spec, x, zset, wset) -> complex:
    """One Cauchy-determinant correction for equally sized zero subsets."""
    if len(zset) != len(wset):
        raise SizeMismatch("zero subsets must have equal size")
    if not zset:
        return 1.0 + 0.0j
    split = sampled_split(spec, CauchySuite(spec).rho, 0)
    val = 1.0 + 0.0j
    for w in wset:
        val *= w ** (-x) * np.exp(-4j * np.pi * split.minus(w)) / \
            complex(symbols.eval_dphi(spec, np.asarray(w)))
    for z in zset:
        val *= z ** x * np.exp(4j * np.pi * split.plus(z)) / \
            complex(symbols.eval_dphi(spec, np.asarray(z)))
    for a, b in itertools.combinations(range(len(wset)), 2):
        val *= (wset[a] - wset[b]) ** 2
    for a, b in itertools.combinations(range(len(zset)), 2):
        val *= (zset[a] - zset[b]) ** 2
    for z in zset:
        for w in wset:
            val /= (z - w) ** 2
    return complex(val)


def enumerated_series(spec, x, max_order=None) -> complex:
    """Leading value times 1 plus every correction term up to max_order."""
    suite = CauchySuite(spec)
    zset, wset = suite.zeros_inside(), suite.zeros_outside()
    tau = A.tau_leading(spec, x)
    kmax = min(len(zset), len(wset))
    if max_order is not None:
        kmax = min(kmax, max_order)
    total = 1.0 + 0.0j
    for k in range(1, kmax + 1):
        for zs in itertools.combinations(zset, k):
            for wsub in itertools.combinations(wset, k):
                total += slavnov_term(spec, x, zs, wsub)
    return complex(tau * total)


class TestLeading:
    @pytest.mark.parametrize("name,x", [("F1", 3), ("F2", 4), ("F4", 3)])
    def test_dual_routes_agree(self, name, x):
        spec = symbols.fixture(name)
        a = A.tau_leading(spec, x, route="modes")
        b = A.tau_leading(spec, x, route="double")
        assert abs(a - b) / abs(b) < 1e-9

    def test_constant_symbol_exact(self):
        spec = symbols.fixture("F1")
        for x in (1, 5):
            assert abs(A.tau_leading(spec, x) - 1.5 ** x) < 1e-10

    def test_variational_formula(self):
        for name, x, j in [("F2", 2, -1), ("F2", 3, 0), ("F4", 2, 1)]:
            fd, formula = A.variational_check(symbols.fixture(name), x, j)
            assert abs(fd - formula) / max(abs(formula), 1e-8) < 1e-4


class TestSzego:
    def test_f2_closed_form(self):
        # log phi = 0.3 q + 0.2/q: strong-limit constant exp(0.3*0.2)
        spec = symbols.fixture("F2")
        assert abs(A.szego(spec, 5) - np.exp(0.06)) < 1e-12

    def test_f1_equals_power(self):
        spec = symbols.fixture("F1")
        assert abs(A.szego(spec, 4) - 1.5 ** 4) < 1e-12

    def test_tau_eff_past_default_grid(self):
        # at x = 256 the weight's modes near j = x would fold into the minus
        # part of a 512-node split; tau_eff sizes its grid from x instead
        spec = symbols.fixture("F1")
        value, closed = A.tau_eff(spec, 256), A.szego(spec, 256)
        assert abs(value / closed - 1) < 1e-10

    def test_underflow_is_loud(self):
        # phi = exp(-1 + 0.1 q): every route's value is e^-x, which leaves
        # the normal double range below x ~ 708 like the oracle's does
        spec = symbols.SymbolSpec("laurent_phase",
                                  log_coeffs={0: -1.0, 1: 0.1})
        for x in (720, 800):
            with pytest.raises(errors.OverflowGuard):
                A.szego(spec, x)
            with pytest.raises(errors.OverflowGuard):
                A.tau_leading(spec, x)
            with pytest.raises(errors.OverflowGuard):
                toeplitz.toeplitz_det(spec, x)
        t = toeplitz.toeplitz_det(spec, 700)
        assert abs(A.szego(spec, 700) - t) < 1e-12 * abs(t)
        assert abs(A.tau_leading(spec, 700) - t) < 1e-12 * abs(t)

    @pytest.mark.parametrize("x", [3, 80])
    def test_tiny_phi_is_not_a_zero(self, x):
        # phi = exp(20 q + 20/q) has no zeros, though |phi(-1)| = e^-40
        spec = symbols.SymbolSpec("laurent_phase",
                                  log_coeffs={1: 20.0, -1: 20.0})
        modes = A.tau_leading(spec, x)
        double = A.tau_leading(spec, x, route="double")
        assert abs(modes - double) / abs(modes) < 1e-12
        assert A.szego(spec, x) == modes
        if x == 80:   # past x = 40 the index-space kernel is negligible
            assert abs(A.borodin_okounkov(spec, x) - modes) / abs(modes) \
                < 1e-12


# symbols of winding -n with fewer than n zeros outside the unit circle, and
# their D_4: 50-digit mpmath determinants of the 400-node trapezoid moments
# on the unit circle
SHORT_OF_ZEROS = {
    "q^-1 e": (symbols.SymbolSpec(numer=(1.0,), denom=(0.0, 1.0),
                                  log_coeffs={1: 0.3, -1: 0.2}),
               3.5409083731583213e-4),
    "(q + 0.5)/q^2 e": (symbols.SymbolSpec(
        numer=(0.5, 1.0), denom=(0.0, 0.0, 1.0),
        log_coeffs={1: 0.3, -1: 0.2}), 3.9902824712050182e-4),
    "(q - 1.5)/q^3 e": (symbols.SymbolSpec(
        numer=(-1.5, 1.0), denom=(0.0, 0.0, 0.0, 1.0),
        log_coeffs={1: 0.3, -1: 0.2}), 1.7491339586487408e-8),
}


class TestHartwigFisher:
    @pytest.mark.parametrize("name,x", [("F3", 1), ("F3", 4), ("F5", 3)])
    def test_exact_at_finite_x(self, name, x):
        spec = symbols.fixture(name)
        hf = A.hartwig_fisher(spec, x)
        det = A.tau_eff(spec, x)
        assert abs(hf - det) / abs(det) < 1e-10

    def test_needs_negative_winding(self):
        with pytest.raises(errors.WindingNonnegative):
            A.hartwig_fisher(symbols.fixture("F2"), 2)

    @pytest.mark.parametrize("name,x", [("F3", 2), ("F3", 6), ("F5", 3)])
    def test_leading_routes_agree(self, name, x):
        spec = symbols.fixture(name)
        a = A.hf_leading(spec, x, route="angular")
        b = A.hf_leading(spec, x, route="reduced")
        assert abs(a - b) / abs(b) < 1e-10

    @pytest.mark.parametrize("label", SHORT_OF_ZEROS)
    def test_leading_raises_short_of_zeros(self, label):
        # its formula sums over the n zeros of z_list; with fewer it
        # returned a value off D_4 by 3.0e3 ... 3.9e7 relative, no error
        spec, d4 = SHORT_OF_ZEROS[label]
        ana = symbols.analyze(spec)
        assert len(ana.z_list) < -ana.winding
        for route in ("angular", "reduced"):
            with pytest.raises(errors.EmptyAnnulus):
                A.hf_leading(spec, 4, route=route)
        # the oracle reads the same moments and still holds D_4
        assert abs(toeplitz.toeplitz_det(spec, 4) - d4) <= 1e-12 * d4

    def test_fixtures_and_workload_symbols_hold_their_zeros(self):
        # so the guard above moves no route value: each symbol the lab and
        # its benchmark read holds |n| zeros at winding n
        bw = load_perfbench("bench_workloads",
                            PERFBENCH / "bench_workloads.py")
        specs = [symbols.fixture(name) for name in symbols.FIXTURE_NAMES]
        for seed in (*range(10), 123):
            specs += bw.random_symbols(seed).values()
        for spec in specs:
            ana = symbols.analyze(spec)
            assert len(ana.z_list) == abs(ana.winding), spec.label

    def test_leading_matches_contour_form(self):
        spec = symbols.fixture("F5")
        tl = A.tau_leading(spec, 4)
        assert abs(A.hf_leading(spec, 4) - tl) / abs(tl) < 1e-9

    @pytest.mark.parametrize("name", ["F3", "F5"])
    def test_y_moment_is_trapezoid_coefficient(self, name):
        # the trapezoid of the sampled ratio e^{-2 pi i nu - 2 Omega_lt},
        # nu and Omega_lt from ``sampled_split``, against the coefficients
        # of the split of the closed form e^{-Omega_gt - Omega_lt}
        spec = symbols.fixture(name)
        suite = CauchySuite(spec, unit=True)
        split = sampled_split(spec, 1.0, suite.winding)
        k = circle_nodes(1.0, split.m)
        dens = np.exp(-2j * np.pi * (split.values + 2.0 * split.minus(k)))
        for s in (-3, 0, 2, 7, 40):
            direct = np.mean(k ** (-s) * dens)
            assert abs(A.y_moment(suite, s) - direct) < 1e-15

    @pytest.mark.parametrize("name", ["F3", "F4", "F5"])
    def test_y_moment_past_ratio_grid_raises(self, name):
        # y_{m/2} would fold onto y_{-m/2}: a loud failure, not a value
        suite = CauchySuite(symbols.fixture(name), unit=True)
        half = suite.ratio.m // 2
        A.y_moment(suite, half - 1)
        for s in (half, -half, 2 * half):
            with pytest.raises(errors.TruncationFailure):
                A.y_moment(suite, s)

    def test_exponentiates_once(self):
        # F3 with its numerator scaled by e^22: log D_32 = 704 is in range,
        # while the strong-limit exponent alone (741.8) is not; the y-moment
        # determinant (~e^-37.8) enters as a log before the one exponential
        f3 = symbols.fixture("F3")
        spec = dataclasses.replace(
            f3, numer=tuple(np.exp(22.0) * c for c in f3.numer))
        want = toeplitz._log_det(spec, 32)
        assert abs(want - 704.0) < 1e-9
        assert log_gap(np.log(A.hartwig_fisher(spec, 32)), want) <= 1e-8

    @pytest.mark.parametrize("name,x", [("F3", 128), ("F4", 256),
                                        ("F5", 512)])
    def test_past_ratio_grid_raises(self, name, x):
        # the fixtures' ratio splits converge on 256 nodes
        with pytest.raises(errors.TruncationFailure):
            A.hartwig_fisher(symbols.fixture(name), x)


def _rational(zeros, pole_order):
    """phi(q) = prod (q - z) / q**pole_order."""
    numer = np.polynomial.polynomial.polyfromroots(zeros)
    return symbols.SymbolSpec("rational", tuple(numer),
                              (0.0,) * pole_order + (1.0,))


class TestTauEffPositiveWinding:
    """Positive winding: det(1 + V) on the unit circle is a structural 0."""

    @pytest.mark.parametrize("x", [0, 3, 32, 2048])
    def test_f7_is_exactly_zero_without_a_kernel(self, x, monkeypatch):
        # past the node cap too: no Nystrom ladder runs
        monkeypatch.setattr(A, "tau_eff_kernel", None)
        assert A.tau_eff(symbols.fixture("F7"), x) == 0.0

    def test_bad_x_still_raises(self):
        with pytest.raises(errors.InputError, match="nonnegative integer"):
            A.tau_eff(symbols.fixture("F7"), -1)

    def test_raw_kernel_is_still_available(self):
        # detlab fredholm --kernel V: the unit-circle Nystrom value itself,
        # rounding noise against the 0 above
        res = fredholm.nystrom_det(*A.tau_eff_kernel(symbols.fixture("F7"), 3))
        assert res.value != 0.0 and abs(res.value) < 1e-12


class TestTauEffDeformed:
    """Negative winding: det(1 + V) of the unit circle, taken on the circle
    where phi does not wind."""

    @pytest.mark.parametrize("x", [32, 64, 128, 256])
    def test_f3_is_unity_at_large_x(self, x):
        # F3's determinant is 1 at every x (see test_toeplitz)
        assert abs(A.tau_eff(symbols.fixture("F3"), x) - 1.0) < 1e-12

    @pytest.mark.parametrize("name", ["F3", "F4"])
    @pytest.mark.parametrize("x", [1, 2, 4, 8])
    def test_matches_hartwig_fisher(self, name, x):
        spec = symbols.fixture(name)
        hf = A.hartwig_fisher(spec, x)
        assert abs(A.tau_eff(spec, x) - hf) / abs(hf) < 1e-14

    @pytest.mark.parametrize("x,tol", [(32, 1e-8), (64, 1e-6)])
    def test_f4_at_large_x(self, x, tol):
        # on the unit circle these ran to m_cap and raised NotConverged
        spec = symbols.fixture("F4")
        hf = A.hartwig_fisher(spec, x)
        assert abs(A.tau_eff(spec, x) - hf) / abs(hf) < tol

    def test_no_overflow_past_radius_two(self):
        # selected circle rho ~ 2.11: rho^1024 overflows, rho^512 does not
        spec = _rational([0.3, 1.65j, -2.7], 2)
        assert A.base_contour(spec) > 2.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                value = A.tau_eff(spec, 1024)
            except errors.NotConverged:
                return
        assert np.isfinite(value)

    def test_conjugate_zero_pair_unchanged(self):
        # winding 0 selects no zero, so the equal moduli of a conjugate pair
        # are harmless: analyze succeeds and every route takes the unit circle
        zeros = [0.5 * np.exp(1j), 0.5 * np.exp(-1j),
                 2 * np.exp(0.7j), 2 * np.exp(-0.7j)]
        spec = _rational(zeros, 2)
        ana = symbols.analyze(spec)
        assert ana.winding == 0 and ana.z_list == ()
        for x, tau, det in [(3, 97.10801467715439, 96.95703426533626),
                            (8, 99438.60702939723, 99438.94106258238)]:
            assert abs(A.tau_eff(spec, x) - tau) / tau < 1e-12
            assert abs(toeplitz.toeplitz_det(spec, x) - det) / det < 1e-12
            fredholm_s = fredholm.nystrom_det(fredholm.kernel_S(spec, x),
                                              A.base_contour(spec)).value
            assert abs(fredholm_s - det) / det < 1e-12
            assert abs(A.slavnov_series(spec, x) - det) / det < 1e-12

    @pytest.mark.parametrize("x", [3, 8])
    def test_conjugate_pair_off_the_selection_edge(self, x):
        # winding -1 selects the zero 1.5; the pair 3e^{+-0.5i} is not at
        # the edge of the selection, so its equal moduli are harmless
        zeros = [0.3, 1.5, 3 * np.exp(0.5j), 3 * np.exp(-0.5j)]
        spec = _rational(zeros, 2)
        assert symbols.winding_number(spec) == -1
        det = toeplitz.toeplitz_det(spec, x)
        fredholm_s = fredholm.nystrom_det(fredholm.kernel_S(spec, x),
                                          A.base_contour(spec)).value
        assert abs(fredholm_s - det) / abs(det) < 1e-12
        assert abs(A.slavnov_series(spec, x) - det) / abs(det) < 1e-12
        tau = A.tau_eff(spec, x)
        assert abs(A.hartwig_fisher(spec, x) - tau) / abs(tau) < 1e-12

    def test_conjugate_zero_pair_keeps_suite_routes(self):
        # the suite locates the zeros of a conjugate pair at winding 0 too
        zeros = [0.5 * np.exp(1j), 0.5 * np.exp(-1j),
                 2 * np.exp(0.7j), 2 * np.exp(-0.7j)]
        spec = _rational(zeros, 2)
        assert CauchySuite(spec).rho == 1.0
        det = 96.95703426533626
        assert abs(A.borodin_okounkov(spec, 3) - det) / det < 1e-12


class TestLargeX:
    """phi = (q - 0.3)(q - 1.05)(q - 9)/(9.45 q^2) has winding -1 and sits on
    the circle of radius sqrt(1.05 * 9) = 3.07, where q^x overflows a double
    from x ~ 632."""

    SPEC = symbols.SymbolSpec(
        "rational",
        tuple(np.polynomial.polynomial.polyfromroots([0.3, 1.05, 9.0]) / 9.45),
        (0.0, 0.0, 1.0))

    @pytest.mark.parametrize("x", [700, 800])
    def test_routes_that_read_no_q_x_density(self, x):
        t = toeplitz.toeplitz_det(self.SPEC, x)
        assert abs(A.tau_leading(self.SPEC, x) - t) < 1e-10 * abs(t)
        assert abs(A.slavnov_series(self.SPEC, x) - t) < 1e-10 * abs(t)

    def test_kernel_v_reads_the_overflowing_density(self):
        with pytest.raises(errors.OverflowGuard):
            fredholm.kernel_V(self.SPEC, 700, CauchySuite(self.SPEC).rho)


@st.composite
def two_sided_symbols(draw, negative=True):
    """phi(q) = c prod (1 - q/w) prod (1 - z/q) with 2-3 zeros on each side
    of select_contour's circle, moduli in separate bands: winding 0 with 2-3
    zeros inside |q| = 1, or (unless not ``negative``) winding -1 with 1-2
    there and one more in [1.5, 1.7] that the contour encloses."""
    def zero(lo, hi):
        return draw(st.floats(lo, hi)) * np.exp(1j * draw(st.floats(0, 6.3)))

    winding = -draw(st.integers(0, int(negative)))
    n_in, n_out = draw(st.integers(2, 3)), draw(st.integers(2, 3))
    bands_in = ((0.2, 0.28), (0.36, 0.44), (0.52, 0.6))[:n_in + winding]
    inner = [zero(lo, hi) for lo, hi in bands_in]
    outer = [zero(lo, hi) for lo, hi in
             ((1.5, 1.7), (2.3, 2.6), (2.9, 3.3), (3.7, 4.3))[1 + winding:]]
    outer = outer[:n_out - winding]
    numer = np.polynomial.polynomial.polyfromroots(inner + outer)
    numer = draw(st.floats(0.5, 2.0)) * numer / np.prod([-w for w in outer])
    denom = [0.0] * (len(inner) - winding) + [1.0]
    return symbols.SymbolSpec("rational", tuple(numer), tuple(denom))


@st.composite
def laurent_symbols(draw):
    """phi(q) = c prod (1 - q/w) prod (q - z) / q^p: zero moduli in separate
    bands on both sides of |q| = 1, pole order p = 0..3 at the origin and
    winding #inner - p in -2..1, so the moments form a banded Toeplitz
    matrix, sampled on the zero-winding circle when one exists."""
    def zero(lo, hi):
        return draw(st.floats(lo, hi)) * np.exp(1j * draw(st.floats(0, 6.3)))

    inner = [zero(lo, hi) for lo, hi in ((0.2, 0.3), (0.35, 0.45), (0.55, 0.7))
             if draw(st.booleans())]
    outer = [zero(lo, hi) for lo, hi in ((1.5, 1.7), (2.2, 2.9), (3.1, 4.0))
             if draw(st.booleans())]
    poles = draw(st.integers(max(0, len(inner) - 1), min(3, len(inner) + 2)))
    numer = np.polynomial.polynomial.polyfromroots(inner + outer)
    numer = draw(st.floats(0.5, 2.0)) * numer / np.prod([-w for w in outer])
    return symbols.SymbolSpec("rational", tuple(numer),
                              tuple([0.0] * poles + [1.0]))


class TestSplitV:
    @settings(max_examples=25, deadline=None)
    @given(spec=two_sided_symbols(), x=st.integers(0, 8))
    def test_v_plus_residues_is_s(self, spec, x):
        # S = V + sum_z W_z on the suite's circle, which at winding -1 is
        # select_contour's, off the unit circle
        suite = CauchySuite(spec)
        parts = [fredholm.kernel_V(spec, x, suite.rho)] + [
            fredholm.kernel_W(spec, z, x) for z in suite.zeros_inside()]
        v = fredholm.nystrom_det(fredholm.kernel_sum(parts), suite.rho)
        s = fredholm.nystrom_det(fredholm.kernel_S(spec, x), suite.rho)
        assert abs(v.value - s.value) <= 1e-8 * abs(s.value)


def v_form(spec, x):
    """(kernel, form) of ``tau_eff_kernel(spec, x)`` at zero winding, on
    the unit circle, form "residue" or "split" as its one note says."""
    with cauchy.Notes() as notes:
        kernel, radius = A.tau_eff_kernel(spec, x)
    (_, form, _), = notes
    assert radius == 1.0
    return kernel, form


def near_double(d):
    """phi = (q - 0.5)(q - 0.5 - d)/q^2: winding 0, both zeros inside."""
    return _rational([0.5, 0.5 + d], 2)


def log_scale(value):
    return max(1.0, abs(np.log(abs(value))))


class TestTauEffResidueAtZeroWinding:
    """At winding 0 with phi = P/Q, split V's tail is the residue sum over
    the zeros inside |q| = 1, so ``tau_eff`` takes V's residue form there,
    of rank x + #zeros; with t_j, or two zeros inside within SEP_TOL, it
    keeps split V."""

    # |delta log| per max(1, |log det|): on 2,042 draws of the strategies
    # below at x = 1 ... 512, the residue form read at most 2.2e-14 off
    # split V and off szego, and split V 1.7e-14 off szego
    BOUND = 1e-12

    @settings(max_examples=40, deadline=None)
    @given(spec=st.one_of(two_sided_symbols(negative=False),
                          laurent_symbols()),
           x=st.integers(1, 512))
    def test_matches_split_v_and_szego(self, spec, x):
        assume(symbols.winding_number(spec) == 0)
        kernel, form = v_form(spec, x)
        inside = [z for z in symbols.analyze(spec).zeros if abs(z) < 1.0]
        assert form == "residue" and kernel.rank == x + len(inside)
        got = fredholm.nystrom_det(kernel, 1.0).value
        split = fredholm.nystrom_det(fredholm.kernel_V(spec, x, 1.0),
                                     1.0).value
        want = A.szego(spec, x)
        for ref in (split, want):
            assert log_gap(np.log(got), np.log(ref)) <= \
                self.BOUND * log_scale(want)

    @pytest.mark.parametrize("name, zeros", [("F0", 0), ("F1", 0),
                                             ("F6", 1)])
    @pytest.mark.parametrize("x", [2, 16, 128, 512])
    def test_fixtures(self, name, zeros, x):
        # F1's residue form over no zeros is S; F6's has one zero, 0.5
        spec = symbols.fixture(name)
        kernel, form = v_form(spec, x)
        assert form == "residue" and kernel.rank == x + zeros
        want = A.szego(spec, x)
        assert log_gap(np.log(A.tau_eff(spec, x)), np.log(want)) <= \
            self.BOUND * log_scale(want)

    @pytest.mark.parametrize("x", [1, 4, 64])
    def test_exponential_factor_keeps_split_v(self, x):
        assert v_form(symbols.fixture("F2"), x)[1] == "split"

    @pytest.mark.parametrize("d", [0.0, 1e-6, 1e-5, 1e-4, 1e-3])
    @pytest.mark.parametrize("x", [1, 2, 4, 8])
    def test_near_double_zeros(self, d, x):
        # (q - 0.5)^2/q^2's two computed zeros lie 2.6e-8 apart, within
        # SEP_TOL, and keep split V; forced onto them the residue form read
        # 3.9e-11 off szego at x = 4 and raised NotConverged at x = 1, 2.
        # From d = 1e-6 on it serves: 7.3e-12 off at x = 1 and d = 1e-6,
        # 1.3e-12 at 1e-5 and 1.0e-13 at 1e-4, split V at most 2.6e-16
        # at x <= 4
        spec = near_double(d)
        assert v_form(spec, x)[1] == ("split" if d == 0.0 else "residue")
        want = A.szego(spec, x)
        assert abs(A.tau_eff(spec, x) - want) <= fredholm.TOL * abs(want)

    @pytest.mark.parametrize("x", [0, 1, 3, 40])
    def test_zero_at_the_origin(self, x):
        # phi = q (q - 2)/(q - 0.5): the zero 0 weighs 0^x/phi'(0), 0 for
        # x > 0 and 1/phi'(0) at x = 0, which residue_coefficient forms
        # without log 0
        spec = symbols.SymbolSpec("rational", (0.0, -2.0, 1.0), (-0.5, 1.0))
        assert v_form(spec, x)[1] == "residue"
        want = A.szego(spec, x)
        assert log_gap(np.log(A.tau_eff(spec, x)), np.log(want)) <= \
            self.BOUND * log_scale(want)


SIGNATURES = {A.szego: ["spec", "x"], A.hartwig_fisher: ["spec", "x"],
              A.tau_eff: ["spec", "x"], A.borodin_okounkov: ["spec", "x"],
              symbols.analyze: ["spec"], symbols.winding_number: ["spec"],
              A.tau_leading: ["spec", "x", "route"],
              A.variational_check: ["spec", "x", "j"],
              CauchySuite: ["spec", "unit"],
              fredholm.kernel_V: ["spec", "x", "radius"],
              fredholm.nystrom_det: ["kernel", "radius", "tol", "m_cap"],
              contours.radius_past: ["r", "obstructions", "sign"],
              contours.base_contour: ["spec"],
              contours.select_contour: ["analysis"]}


@pytest.mark.parametrize("fn", list(SIGNATURES), ids=lambda f: f.__name__)
def test_routes_take_only_mathematical_arguments(fn):
    # node counts, tolerances and caps are module constants, not arguments
    assert list(inspect.signature(fn).parameters) == SIGNATURES[fn]


class TestCirclesAgreeAtZeroWinding:
    """At winding 0 the symbol's own circle is the unit circle: both suites
    hold the same roots, halves of the exponent and constant, so the same
    factors, and szego is tau_leading's value, bit for bit; at any other
    winding szego raises before it builds a suite."""

    @staticmethod
    def assert_agree(spec, x):
        own, unit = CauchySuite(spec), CauchySuite(spec, unit=True)
        for member in ("rho", "winding", "C", "outside", "inside", "halves"):
            assert getattr(own, member) == getattr(unit, member), member
        nodes = circle_nodes(1.0, 64)
        assert np.array_equal(own.ratio.c, unit.ratio.c)
        assert np.array_equal(own.Omega_lt(nodes, 1), unit.Omega_lt(nodes, 1))
        assert A.szego(spec, x) == A.tau_leading(spec, x)

    @settings(max_examples=25, deadline=None)
    @given(spec=st.one_of(two_sided_symbols(negative=False),
                          banded_symbols()),
           x=st.integers(0, 64))
    def test_random_rational(self, spec, x):
        self.assert_agree(spec, x)

    @pytest.mark.parametrize("name", ["F3", "F4", "F5", "F7"])
    def test_szego_at_nonzero_winding_builds_no_suite(self, name,
                                                      monkeypatch):
        built = TestSuiteScope.count_builds(monkeypatch)
        with pytest.raises(errors.WindingNonzero):
            A.szego(symbols.fixture(name), 3)
        assert built == []

    @pytest.mark.parametrize("x", [0, 2, 5, 64, 512])
    def test_laurent_phase(self, x):
        self.assert_agree(symbols.fixture("F2"), x)


# 50-digit log det T_x of the banded fixtures (tools/toeplitz_references.py)
REFERENCES = json.loads((Path(__file__).parent / "data" /
                         "toeplitz_references.json").read_text())
# where the determinant leaves the double range: F4 and F6 overflow, F7
# underflows
PAST_RANGE = {("F4", 1024), ("F6", 1024), ("F7", 1024)}


class TestSlavnov:
    # against REFERENCES, in units of x eps max(1, |log det|), the full
    # series reads at worst 6.2 (F4, x = 2) and 0.61 at every other point;
    # with Omega summed from the suite's series at the zeros and the
    # characteristic polynomial from its eigenvalues, F4 read 12.9 at x = 2
    REFERENCE_UNITS = 8.0

    @pytest.mark.parametrize("name, x", [
        (name, int(x)) for name, entry in REFERENCES.items()
        for x in entry["log_det"] if (name, int(x)) not in PAST_RANGE])
    def test_references(self, name, x):
        want = complex(*map(float, REFERENCES[name]["log_det"][str(x)]))
        got = np.log(A.slavnov_series(symbols.fixture(name), x))
        assert log_gap(got, want) <= self.REFERENCE_UNITS * x * np.finfo(
            float).eps * max(abs(want.real), 1.0)

    @pytest.mark.parametrize("name, x", sorted(PAST_RANGE))
    def test_references_past_the_double_range(self, name, x):
        with pytest.raises(errors.OverflowGuard):
            A.slavnov_series(symbols.fixture(name), x)

    def test_needs_a_residue_form(self):
        # F2 has t_j: the residue sums over zeros cannot carry exp(...)
        assert issubclass(errors.NoResidueForm, errors.InputError)
        with pytest.raises(errors.NoResidueForm):
            A.slavnov_series(symbols.fixture("F2"), 2)

    def test_empty_sets_give_unity(self):
        spec = symbols.fixture("F4")
        assert abs(slavnov_term(spec, 3, [], []) - 1.0) < 1e-14

    def test_size_mismatch(self):
        spec = symbols.fixture("F4")
        with pytest.raises(SizeMismatch):
            slavnov_term(spec, 3, [1.4], [])

    @pytest.mark.parametrize("x", [2, 4, 6])
    def test_full_series_is_exact(self, x):
        spec = symbols.fixture("F4")
        s = A.slavnov_series(spec, x)
        t = toeplitz.toeplitz_det(spec, x)
        assert abs(s - t) / abs(t) < 1e-10

    def test_order_zero_is_strictly_worse(self):
        spec = symbols.fixture("F4")
        t = toeplitz.toeplitz_det(spec, 4)
        e0 = abs(A.slavnov_series(spec, 4, max_order=0) - t)
        ef = abs(A.slavnov_series(spec, 4) - t)
        assert ef < e0

    def test_one_suite_per_call(self, monkeypatch):
        built = []
        init = CauchySuite.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        def summed(*args, **kwargs):
            raise AssertionError("a series is summed")

        # and no Omega is read off the suite's series: the residue weights
        # come from the factorization, the leading value from the modes
        monkeypatch.setattr(CauchySuite, "__init__", counting)
        monkeypatch.setattr(LaurentSplit, "_eval", summed)
        A.slavnov_series(symbols.fixture("F4"), 4)
        assert len(built) == 1

    def test_negative_order_rejected(self):
        with pytest.raises(errors.InputError):
            A.slavnov_series(symbols.fixture("F4"), 4, max_order=-1)

    def test_correction_matrix_matches_terms(self):
        # tau det(I - A) equals tau (1 + sum of the explicit correction terms)
        spec = symbols.fixture("F4")
        det = A.slavnov_series(spec, 3) / A.tau_leading(spec, 3)
        total = 1.0 + slavnov_term(spec, 3, [0.3], [2.2]) + \
            slavnov_term(spec, 3, [1.4], [2.2])
        assert abs(det - total) / abs(total) < 1e-10

    @settings(max_examples=25, deadline=None)
    @given(spec=two_sided_symbols(), x=st.integers(1, 8))
    def test_closed_form_matches_enumeration(self, spec, x):
        suite = CauchySuite(spec)
        zset, wset = suite.zeros_inside(), suite.zeros_outside()
        assert 2 <= len(zset) <= 3 and 2 <= len(wset) <= 3
        for order in range(min(len(zset), len(wset)) + 1):
            want = enumerated_series(spec, x, order)
            got = A.slavnov_series(spec, x, order)
            assert abs(got - want) <= 1e-12 * abs(want), order
        t = toeplitz.toeplitz_det(spec, x)
        assert abs(A.slavnov_series(spec, x) - t) <= 1e-10 * abs(t)

    @pytest.mark.parametrize("x", [2, 3])
    def test_contour_swap_ratio(self, x):
        spec = symbols.fixture("F4")
        closed, ratio, err = A.tau_ratio_swap(spec, x, 1.4, 2.2)
        assert abs(closed - ratio) / abs(ratio) < 1e-8
        assert abs(closed - ratio) <= err < 1e-8 * abs(ratio)

    @pytest.mark.parametrize("x", [110, 127, 200])
    def test_contour_swap_past_its_range_raises(self, x):
        # the swapped kernel's reach falls under its true fold here (25, 8
        # and 2 modes), and one grid read the ratio's cancellation noise,
        # 5.2e-5 + 3.2e-5i at x = 127 against the closed form's -8.2e-26,
        # under a bound of 1.6e-15; the ladder's drifts never settle, also
        # on its grids past 2x nodes, where the direct side of Jacobi's
        # identity, which rounds less than the LU it replaced, takes them
        with cauchy.Notes() as notes, pytest.raises(errors.NotConverged):
            A.tau_ratio_swap(symbols.fixture("F4"), x, 1.4, 2.2)
        assert max(event[1] for event in notes if event[0] == "grid") > 2 * x

    @pytest.mark.parametrize("x", [3, 16])
    def test_contour_swap_keeps_the_ladders_it_ran(self, monkeypatch, x):
        # where the reach was clipped at M_START, both kernels already ran
        # the ladder: the values are those of their own reach, bit for bit
        spec = symbols.fixture("F4")
        got = A.tau_ratio_swap(spec, x, 1.4, 2.2)
        monkeypatch.setattr(A, "_ladder_only", lambda kernel: kernel)
        assert A.tau_ratio_swap(spec, x, 1.4, 2.2) == got

    def test_contour_swap_circle(self, monkeypatch):
        # F4's only pole is the origin: the swapped circle lies EXPANSION
        # past the zero 2.2, the base circle is the suite's
        radii = []

        def recording(kernel, radius, *args):
            radii.append(radius)
            return fredholm.nystrom_det(kernel, radius, *args)

        monkeypatch.setattr(A, "nystrom_det", recording)
        spec = symbols.fixture("F4")
        A.tau_ratio_swap(spec, 3, 1.4, 2.2)
        poles = symbols.analyze(spec).pole_moduli
        assert radii == [contours.radius_past(2.2, poles, 1),
                         CauchySuite(spec).rho]
        assert radii[0] == pytest.approx(2.75)

    @settings(max_examples=15, deadline=None)
    @given(spec=two_sided_symbols(), x=st.integers(1, 4))
    def test_contour_swap_every_pair(self, spec, x):
        # the Nystrom ratio is a quotient of LU determinants, whose errors
        # are absolute on the scale of O(1) entries (up to ~2e-13 seen): a
        # ratio below 1e-4 is held to 1e-12 absolute.  Its error bound
        # counts both determinants' err_estimate and LU rounding
        suite = CauchySuite(spec)
        for z in suite.zeros_inside():
            for w in suite.zeros_outside():
                closed, ratio, err = A.tau_ratio_swap(spec, x, z, w)
                gap = abs(closed - ratio)
                assert gap <= 1e-8 * max(abs(ratio), 1e-4)
                assert gap <= err

    def test_contour_swap_across_a_pole_raises(self):
        # phi = (q - 0.3)(q - 1.2)(q - 2.5)/(q^2 (q - 1.8)): every circle
        # past 2.5 also encloses the pole at 1.8, where V is singular
        numer = np.polynomial.polynomial.polyfromroots([0.3, 1.2, 2.5])
        denom = np.polynomial.polynomial.polyfromroots([0.0, 0.0, 1.8])
        spec = symbols.SymbolSpec("rational", tuple(numer), tuple(denom))
        with pytest.raises(errors.EmptyAnnulus):
            A.tau_ratio_swap(spec, 2, 1.2, 2.5)

    @pytest.mark.parametrize("name,z_a,w_b,side", [
        ("F7", 0.1, 0.4, "inside"), ("F3", 0.4, 2.0, "outside")])
    def test_contour_swap_needs_a_zero_on_each_side(self, name, z_a, w_b,
                                                    side):
        # F7 has no zero inside its contour (0.4 lies outside), F3 none
        # outside it (0.4 and 1.6 lie inside)
        with pytest.raises(errors.NotAvailable, match=side):
            A.tau_ratio_swap(symbols.fixture(name), 3, z_a, w_b)

    def test_double_zero_raises(self):
        # phi = (q - 0.3)(q - 3)^2/q has winding 0; its residue weights would
        # divide by phi'(3) = 0 (the series read 899.569 + 6.8e-4i at x = 3
        # against the Toeplitz determinant's 899.586)
        spec = _rational([0.3, 3.0, 3.0], 1)
        assert symbols.winding_number(spec) == 0
        assert abs(toeplitz.toeplitz_det(spec, 3) - 899.586) < 1e-9
        with pytest.raises(errors.NotASimpleZero):
            CauchySuite(spec).zeros_outside()
        with pytest.raises(errors.NotASimpleZero):
            A.slavnov_series(spec, 3)
        with pytest.raises(errors.NotASimpleZero):
            A.tau_ratio_swap(spec, 3, 0.3, 3.0)

    def test_residue_weights_past_double_range_raise(self):
        # the weight of the zero 1.4 passes e^709 at x = 4096 and, times
        # that of 2.2, at x = 2500: a typed failure, like every overflow
        spec = symbols.fixture("F4")
        with pytest.raises(errors.OverflowGuard):
            A.slavnov_series(spec, 4096)
        with pytest.raises(errors.OverflowGuard):
            fredholm.kernel_W(spec, 1.4, 4096)
        with pytest.raises(errors.OverflowGuard):
            A.tau_ratio_swap(spec, 2500, 1.4, 2.2)

    @pytest.mark.parametrize("name", ["F3", "F5"])
    def test_residue_weights_underflow_to_zero(self, name):
        # every correction underflows at x = 4096, which is no failure:
        # the series is its leading value
        spec = symbols.fixture(name)
        tau = A.tau_leading(spec, 4096)
        assert abs(A.slavnov_series(spec, 4096) - tau) <= 1e-12 * abs(tau)

    def test_terms_decay_in_x(self):
        spec = symbols.fixture("F4")
        mags = [abs(slavnov_term(spec, x, [1.4], [2.2]))
                for x in (2, 4, 6, 8)]
        assert all(a > b for a, b in zip(mags, mags[1:]))


# log phi = sum_{|j| <= 300} 0.4 0.9^|j| q^j: |c-_n| and |c+_n| stay above
# 1e-16 / max|c+-| for hundreds of n, far past any fixed row count (48 rows
# were off by 8.8e-7 and 5.6e-7 in log at x = 4, 8), and the moments of phi
# take 1024 nodes to decay below cauchy.TAIL_TOL
SLOW = {j: 0.4 * 0.9 ** abs(j) for j in range(-300, 301)}


def record_split_work(monkeypatch):
    """(builds, reads): the radius of every ``LaurentSplit`` built and of
    every ``reconstruct`` on a split's own grid, a second FFT of the
    samples it was built from, recorded from here on."""
    builds, reads = [], []
    init, reconstruct = LaurentSplit.__init__, LaurentSplit.reconstruct

    def counted_init(self, values, radius):
        builds.append(radius)
        init(self, values, radius)

    def counted_reconstruct(self, q, derivative=0):
        if grid_of(q) == (self.radius, self.m):
            reads.append(self.radius)
        return reconstruct(self, q, derivative)

    monkeypatch.setattr(LaurentSplit, "__init__", counted_init)
    monkeypatch.setattr(LaurentSplit, "reconstruct", counted_reconstruct)
    return builds, reads


class TestIndexSeries:
    @pytest.mark.parametrize("name", ["F2", "F6"])
    def test_reads_the_ratio_samples(self, name, monkeypatch):
        # the inverse of the ratio comes from the samples its split holds,
        # not from a transform back onto their grid
        spec = symbols.fixture(name)
        want = A.borodin_okounkov(spec, 5)
        with cauchy.SuiteScope():
            A.suite_for(spec, unit=True).ratio
            builds, reads = record_split_work(monkeypatch)
            assert A.borodin_okounkov(spec, 5) == want
        assert builds == [] and reads == []

    @pytest.mark.parametrize("name,x", [("F2", 3), ("F2", 5), ("F6", 3),
                                        ("F6", 5), ("F6", 8)])
    def test_identity(self, name, x):
        spec = symbols.fixture(name)
        bo = A.borodin_okounkov(spec, x)
        t = toeplitz.toeplitz_det(spec, x)
        assert abs(bo - t) / abs(t) < 1e-10

    def test_f1_closed_form(self):
        assert abs(A.borodin_okounkov(symbols.fixture("F1"), 3) -
                   1.5 ** 3) < 1e-10

    @pytest.mark.parametrize("x", [3, 5, 10])
    def test_cancelled_determinant_raises(self, x):
        # on phi = exp(20 q + 20/q), det(Id - K) is 1e-101 ... 8e-61 of the
        # product of its row norms, and the value it gave was off by
        # 3.5e25, 1.3e15 and 2.5 relative to det [I_{i-j}(40)]
        spec = symbols.SymbolSpec("laurent_phase",
                                  log_coeffs={1: 20.0, -1: 20.0})
        with pytest.raises(errors.Cancellation):
            A.borodin_okounkov(spec, x)

    def test_no_cancellation_at_x_40(self):
        # det [I_{i-j}(40)] of order 40, the Toeplitz determinant of
        # exp(20 q + 20/q), from 60-digit Bessel moments
        spec = symbols.SymbolSpec("laurent_phase",
                                  log_coeffs={1: 20.0, -1: 20.0})
        exact = 5.0704260363127643415e173
        assert abs(A.borodin_okounkov(spec, 40) / exact - 1) < 1e-12

    @staticmethod
    def fft_exponent(t, m):
        """sum_j t_j q^j at q = e^{2 pi i k/m}, k = 0 .. m-1, by one inverse
        FFT."""
        expo = np.zeros(m, dtype=complex)
        expo[[j % m for j in t]] = list(t.values())
        return m * np.fft.ifft(expo)

    @classmethod
    def dense_log_det(cls, t, x):
        """log det of the x-by-x moments of exp(sum_j t_j q^j) from 2^14
        nodes, the exponent summed by one inverse FFT."""
        m = 2 ** 14
        moments = np.fft.fft(np.exp(cls.fft_exponent(t, m))) / m
        sign, log_abs = np.linalg.slogdet(
            moments[np.subtract.outer(np.arange(x), np.arange(x)) % m])
        return log_abs + 1j * np.angle(sign)

    def test_exponent_is_the_inverse_fft_sum(self):
        # 601 terms by Horner's rule on the 1024 points of the inverse FFT,
        # the grid turned by pi to start at angle 0
        q = -circle_nodes(1.0, 1024)
        got = 2j * np.pi * symbols.eval_nu_grid(
            symbols.SymbolSpec(log_coeffs=SLOW), q)
        assert np.max(np.abs(got - self.fft_exponent(SLOW, 1024))) < \
            1e-13

    @pytest.mark.parametrize("x", [4, 8])
    def test_rows_read_from_the_coefficient_decay(self, x):
        # toeplitz's moments converge on 1024 nodes, past its first grid
        spec = symbols.SymbolSpec(log_coeffs=SLOW)
        dense = self.dense_log_det(SLOW, x)
        assert abs(np.log(toeplitz.toeplitz_det(spec, x)) - dense) < 1e-12
        bo = A.borodin_okounkov(spec, x)
        assert abs(np.log(bo) - dense) < 1e-12

    def test_rows_stop_above_the_rounding_floor(self):
        # a row alone, max(A_n B_0, A_0 B_n), flattens at ~1.4e-16, above
        # BO_TAIL_TOL, and kept all 507 rows of the grid; the tail sum
        # T_n = sum_{s>=n} A_s B_s passes below it at n = 144
        spec = symbols.SymbolSpec(log_coeffs=SLOW)
        with mock.patch.object(np.linalg, "slogdet",
                               wraps=np.linalg.slogdet) as slogdet:
            bo = A.borodin_okounkov(spec, 4)
        # one factorization gives both the value and the Hadamard ratio
        assert slogdet.call_count == 1
        assert slogdet.call_args.args[0].shape[0] <= 160
        assert abs(bo / np.exp(self.dense_log_det(SLOW, 4)) - 1) < 1e-14

    @pytest.mark.parametrize("x", [470, 600])
    def test_indices_past_grid_read_zero(self, x):
        # the kernel's rows need c-_{x+1}, c-_{x+2}, ..., all past the
        # ratio's grid, where they lie below its tail
        spec = symbols.fixture("F2")
        t = toeplitz.toeplitz_det(spec, x)
        assert abs(A.borodin_okounkov(spec, x) - t) / abs(t) < 1e-12


class TestDecay:
    def test_f2_szego_gap_decays_to_floor(self):
        spec = symbols.fixture("F2")
        gaps = [abs(toeplitz.toeplitz_det(spec, x) / A.szego(spec, x) - 1)
                for x in range(4, 13)]
        floor = 1e-13
        above = [g for g in gaps if g > floor]
        assert all(a > b for a, b in zip(above, above[1:]))


class TestSuiteScope:
    """Inside a ``cauchy.SuiteScope`` one suite serves each (spec, unit);
    outside any scope every request builds its own."""

    SPEC = symbols.fixture("F4")

    @staticmethod
    def count_builds(monkeypatch):
        """The (spec, unit) of every CauchySuite built from now on."""
        built = []
        real = CauchySuite.__init__

        def counted(self, spec, *, unit=False):
            built.append((spec, unit))
            real(self, spec, unit=unit)

        monkeypatch.setattr(CauchySuite, "__init__", counted)
        return built

    def test_one_suite_per_key_inside_a_scope(self):
        with cauchy.SuiteScope():
            own = cauchy.suite_for(self.SPEC)
            unit = cauchy.suite_for(self.SPEC, unit=True)
            assert own is not unit
            assert cauchy.suite_for(self.SPEC) is own
            assert cauchy.suite_for(symbols.fixture("F4")) is own
            assert cauchy.suite_for(self.SPEC, unit=True) is unit

    @pytest.mark.parametrize("name,winding", [("F1", 0), ("F2", 0), ("F6", 0),
                                              ("F3", -1), ("F4", -1)])
    def test_zero_winding_shares_the_unit_suite(self, name, winding):
        # at winding 0 the symbol's own circle is the unit circle
        spec = symbols.fixture(name)
        assert symbols.winding_number(spec) == winding
        with cauchy.SuiteScope():
            own = cauchy.suite_for(spec)
            shared = own is cauchy.suite_for(spec, unit=True)
        assert shared == (winding == 0)

    def test_nothing_shared_outside_or_across_scopes(self):
        assert cauchy.suite_for(self.SPEC) is not cauchy.suite_for(self.SPEC)
        outer = cauchy.SuiteScope()
        with outer:
            first = cauchy.suite_for(self.SPEC)
            with cauchy.SuiteScope():
                assert cauchy.suite_for(self.SPEC) is not first
            assert cauchy.suite_for(self.SPEC) is first
        with cauchy.SuiteScope():
            assert cauchy.suite_for(self.SPEC) is not first
        assert cauchy.suite_for(self.SPEC) is not first
        # entered again, a scope still holds its suites
        with outer:
            assert cauchy.suite_for(self.SPEC) is first

    def test_verify_pass_builds_each_suite_once(self, monkeypatch):
        built = self.count_builds(monkeypatch)
        counts = []
        for _ in range(2):
            # the checks of a pass are all made before any runs, as the
            # benchmark does: the scope outlives the generator
            checks = list(cli._verify_checks(9))
            start = len(built)
            for _, _, run in checks:
                run()
            counts.append(len(built) - start)
            assert len(set(built[start:])) == counts[-1]
        assert counts == [9, 9]

    def test_scope_left_on_an_exception(self, monkeypatch):
        built = self.count_builds(monkeypatch)
        with pytest.raises(errors.NotConverged):
            with cauchy.SuiteScope():
                inside = cauchy.suite_for(self.SPEC)
                raise errors.NotConverged("raised inside the scope")
        assert cauchy.suite_for(self.SPEC) is not inside
        assert len(built) == 2

    def test_a_failed_construction_is_not_held(self, monkeypatch):
        calls = []
        real = CauchySuite.__init__

        def fails_first(self, spec, *, unit=False):
            calls.append(spec)
            if len(calls) == 1:
                raise errors.TruncationFailure("the first build fails")
            real(self, spec, unit=unit)

        monkeypatch.setattr(CauchySuite, "__init__", fails_first)
        with cauchy.SuiteScope():
            with pytest.raises(errors.TruncationFailure):
                cauchy.suite_for(self.SPEC)
            suite = cauchy.suite_for(self.SPEC)
            assert cauchy.suite_for(self.SPEC) is suite
        assert len(calls) == 2

    ROUTES = (A.tau_eff, A.hartwig_fisher, A.slavnov_series, A.szego,
              A.tau_leading)

    @staticmethod
    def outcomes(spec, x):
        """repr of each route's value, or its error, in ROUTES order."""
        out = []
        for route in TestSuiteScope.ROUTES:
            try:
                out.append(repr(route(spec, x)))
            except errors.DetlabError as exc:
                out.append(f"{type(exc).__name__}: {exc}")
        return out

    @settings(max_examples=25, deadline=None)
    @given(spec=two_sided_symbols(), x=st.integers(0, 8))
    def test_values_identical_inside_a_scope(self, spec, x):
        fresh = self.outcomes(spec, x)
        with cauchy.SuiteScope():
            # the second round reads every suite the first one built
            assert self.outcomes(spec, x) == fresh
            assert self.outcomes(spec, x) == fresh

"""The ladder of exact and asymptotic determinant formulas.

``slavnov_term`` and ``enumerated_series`` are the oracle of the correction
series: the sum taken term by term over all pairs of equally sized zero
subsets, against which the closed form of ``slavnov_series`` is checked.
"""

import inspect
import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from detlab import asymptotics as A
from detlab import contours, errors, fredholm, symbols, toeplitz
from detlab.cauchy import CauchySuite


class SizeMismatch(ValueError):
    """Zero subsets of unequal size given to ``slavnov_term``."""


def slavnov_term(spec, x, zset, wset) -> complex:
    """One Cauchy-determinant correction for equally sized zero subsets."""
    if len(zset) != len(wset):
        raise SizeMismatch("zero subsets must have equal size")
    if not zset:
        return 1.0 + 0.0j
    suite = CauchySuite(spec, x)
    val = 1.0 + 0.0j
    for w in wset:
        val *= w ** (-x) * np.exp(-2.0 * suite.Omega_lt(w)) / \
            complex(symbols.eval_dphi(spec, np.asarray(w)))
    for z in zset:
        val *= z ** x * np.exp(2.0 * suite.Omega_gt(z)) / \
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
    suite = CauchySuite(spec, x)
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

    def test_leading_matches_contour_form(self):
        spec = symbols.fixture("F5")
        tl = A.tau_leading(spec, 4)
        assert abs(A.hf_leading(spec, 4) - tl) / abs(tl) < 1e-9


def _rational(zeros, pole_order):
    """phi(q) = prod (q - z) / q**pole_order."""
    numer = np.polynomial.polynomial.polyfromroots(zeros)
    return symbols.SymbolSpec("rational", tuple(numer),
                              (0.0,) * pole_order + (1.0,))


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
        assert A.base_contour(spec).radius > 2.0
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

    def test_conjugate_zero_pair_keeps_suite_routes(self):
        # the suite locates the zeros of a conjugate pair at winding 0 too
        zeros = [0.5 * np.exp(1j), 0.5 * np.exp(-1j),
                 2 * np.exp(0.7j), 2 * np.exp(-0.7j)]
        spec = _rational(zeros, 2)
        assert CauchySuite(spec, 3).rho == 1.0
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
            fredholm.kernel_V(CauchySuite(self.SPEC, 700))


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


SIGNATURES = {A.szego: ["spec", "x"], A.hartwig_fisher: ["spec", "x"],
              A.tau_eff: ["spec", "x"], A.borodin_okounkov: ["spec", "x"],
              symbols.analyze: ["spec"], symbols.winding_number: ["spec"],
              A.tau_leading: ["spec", "x", "route"],
              A.variational_check: ["spec", "x", "j"],
              CauchySuite: ["spec", "x", "m", "unit"],
              contours.unit_circle: [],
              contours.select_contour: ["analysis"]}


@pytest.mark.parametrize("fn", list(SIGNATURES), ids=lambda f: f.__name__)
def test_routes_take_only_mathematical_arguments(fn):
    # node counts, tolerances and caps are module constants, not arguments
    assert list(inspect.signature(fn).parameters) == SIGNATURES[fn]


class TestCirclesAgreeAtZeroWinding:
    """At winding 0 the symbol's own circle is the unit circle: both suites
    build the same split, and szego reads tau_leading's exponent."""

    @staticmethod
    def assert_agree(spec, x):
        own, unit = CauchySuite(spec, x), CauchySuite(spec, x, unit=True)
        assert own.m == unit.m
        assert np.array_equal(own.nu_split.c, unit.nu_split.c)
        assert np.array_equal(own.Omega_gt_nodes, unit.Omega_gt_nodes)
        assert np.array_equal(own.Omega_lt_nodes, unit.Omega_lt_nodes)
        assert A.szego(spec, x) == A.tau_leading(spec, x)

    @settings(max_examples=25, deadline=None)
    @given(spec=two_sided_symbols(negative=False), x=st.integers(0, 64))
    def test_random_rational(self, spec, x):
        self.assert_agree(spec, x)

    @pytest.mark.parametrize("x", [0, 2, 5, 64, 512])
    def test_laurent_phase(self, x):
        self.assert_agree(symbols.fixture("F2"), x)


class TestSlavnov:
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

        monkeypatch.setattr(CauchySuite, "__init__", counting)
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
        suite = CauchySuite(spec, x)
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
        closed, ratio = A.tau_ratio_swap(spec, x, 1.4, 2.2)
        assert abs(closed - ratio) / abs(ratio) < 1e-8

    def test_terms_decay_in_x(self):
        spec = symbols.fixture("F4")
        mags = [abs(slavnov_term(spec, x, [1.4], [2.2]))
                for x in (2, 4, 6, 8)]
        assert all(a > b for a, b in zip(mags, mags[1:]))


class TestIndexSeries:
    @pytest.mark.parametrize("name,x", [("F2", 3), ("F2", 5), ("F6", 3),
                                        ("F6", 8)])
    def test_identity(self, name, x):
        spec = symbols.fixture(name)
        bo = A.borodin_okounkov(spec, x)
        t = toeplitz.toeplitz_det(spec, x)
        assert abs(bo - t) / abs(t) < 1e-10

    def test_f1_closed_form(self):
        assert abs(A.borodin_okounkov(symbols.fixture("F1"), 3) -
                   1.5 ** 3) < 1e-10

    @pytest.mark.parametrize("x", [470, 600])
    def test_unsampled_indices_raise(self, x):
        # the kernel needs c-_{x+1} .. c-_{x+trunc}; the grid holds j < 512
        with pytest.raises(errors.TailNotConverged):
            A.borodin_okounkov(symbols.fixture("F2"), x)


class TestDecay:
    def test_f2_szego_gap_decays_to_floor(self):
        spec = symbols.fixture("F2")
        gaps = [abs(toeplitz.toeplitz_det(spec, x) / A.szego(spec, x) - 1)
                for x in range(4, 13)]
        floor = 1e-13
        above = [g for g in gaps if g > floor]
        assert all(a > b for a, b in zip(above, above[1:]))

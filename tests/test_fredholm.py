"""Integrable kernels, Nystrom determinants, resolvent, and dual routes."""

import collections
import functools
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from detlab import asymptotics, cauchy, errors, fredholm, symbols, toeplitz
from detlab._series import LaurentSplit, circle_nodes, circle_weights
from detlab.cauchy import TAIL_TOL, CauchySuite, residue_coefficient
from test_asymptotics import SLOW, two_sided_symbols
from test_perfbench_hooks import PERFBENCH, load_perfbench
from test_toeplitz import REFERENCES, laurent_symbols, log_gap

DATA = Path(__file__).resolve().parent / "data"
EPS = np.finfo(float).eps


def suite_for(name):
    spec = symbols.fixture(name)
    return spec, CauchySuite(spec)


def direct_fill(kernel, nodes, weights):
    """Entry-by-entry Nystrom matrix of r generator pairs: the oracle for
    ``Kernel.matrix``."""
    a, f, g, dg = kernel.generators(nodes)
    num = sum(fk[:, None] * gk[None, :] for fk, gk in zip(f, g))
    den = nodes[None, :] - nodes[:, None]
    np.fill_diagonal(den, 1.0)
    mat = num / den
    np.fill_diagonal(mat, sum(fk * dgk for fk, dgk in zip(f, dg)))
    mat = a[:, None] * a[None, :] * mat / (2j * np.pi)
    return mat * weights[None, :]


def long_double_errors(kernel, nodes, weights):
    """Off-diagonal and diagonal errors of ``kernel.matrix`` against the
    same generator values filled entry by entry in long double, each in
    units of its entry's scale: the sum of the moduli of the r terms."""
    ld = np.clongdouble
    got = kernel.matrix(nodes, weights).astype(ld)
    a, f, g, dg = kernel.generators(nodes)
    q, w, a = (np.asarray(v, dtype=ld) for v in (nodes, weights, a))
    f, g, dg = ([np.asarray(v, dtype=ld) for v in vs] for vs in (f, g, dg))
    gaps = q[None, :] - q[:, None]
    np.fill_diagonal(gaps, 1.0)
    outer = a[:, None] * a[None, :] * w[None, :] / (2j * np.pi * gaps)
    want = outer * sum(fk[:, None] * gk[None, :] for fk, gk in zip(f, g))
    np.fill_diagonal(want, got.diagonal())
    scale = np.abs(outer) * sum(np.abs(fk[:, None] * gk[None, :])
                                for fk, gk in zip(f, g))
    np.fill_diagonal(scale, 0.0)
    pre = a * a * w / (2j * np.pi)
    diag = pre * sum(fk * dgk for fk, dgk in zip(f, dg))
    dscale = np.abs(pre) * sum(np.abs(fk * dgk) for fk, dgk in zip(f, dg))
    # an entry of scale 0, like every entry of r = 1, must be filled as 0
    return tuple(float(np.max(np.abs(err) / np.where(sc > 0, sc, 1.0)))
                 for err, sc in ((got - want, scale),
                                 (got.diagonal() - diag, dscale)))


def two_pairs(a, vp, vm, dvp, dvm):
    """Generators of a^2 (vp(p) vm(q) - vp(q) vm(p)) / (2 pi i (p - q))."""
    return a, (vm, -vp), (vp, vm), (dvp, dvm)


def exp_kernel(al, be, ga):
    """a = e^(al q), vp = e^(be q), vm = e^(ga q): smooth on any circle."""
    def generators(q):
        vp, vm = np.exp(be * q), np.exp(ga * q)
        return two_pairs(np.exp(al * q), vp, vm, be * vp, ga * vm)

    return fredholm.Kernel(generators)


def zero_generators(q):
    """One pair, f = g = 0."""
    zero = np.zeros(np.shape(q), dtype=complex)
    return np.ones(np.shape(q), dtype=complex), (zero,), (zero,), (zero,)


def zero_kernel():
    """K = 0 with no bandwidth: det(1 + K) = 1 on the first two grids."""
    return fredholm.Kernel(zero_generators)


def diagonal_fill(nodes, diag):
    """A ``Kernel.matrix``: diag times the identity."""
    return np.diag(np.full(nodes.size, diag, dtype=complex))


def kernel_Delta(suite: CauchySuite, x) -> fredholm.Kernel:
    """Difference V - (conjugated S): only the transform part of w survives,
    vp = q^{-x/2} tail and vm = q^{-x/2}."""
    nodes = circle_nodes(suite.rho, 256)
    theta = symbols.eval_theta(suite.spec, nodes)
    tail = LaurentSplit(nodes ** x * theta / (1.0 + theta), suite.rho).minus

    def generators(q):
        hm = q ** (-x / 2.0)
        return two_pairs(
            np.sqrt(symbols.eval_theta(suite.spec, q)), hm * tail(q), hm,
            hm * (tail(q, 1) - (x / 2.0) * tail(q) / q), (-x / 2.0) * hm / q)

    return fredholm.Kernel(generators, x)


def kernel_Delta_residue(spec, x, zeros_inside) -> fredholm.Kernel:
    """Same difference as a residue sum of rank-one kernels."""
    return fredholm.kernel_sum(
        [_negated(fredholm.kernel_W(spec, z, x)) for z in zeros_inside])


def _negated(k: fredholm.Kernel) -> fredholm.Kernel:
    def generators(q):
        a, f, g, dg = k.generators(q)
        return a, [-fk for fk in f], g, dg

    return fredholm.Kernel(generators, k.x)


def kernel_Q(spec, x) -> fredholm.Kernel:
    """Unit-circle kernel for nonnegative winding."""
    nodes = circle_nodes(1.0, 512)
    tvals = symbols.eval_theta(spec, nodes)
    split = LaurentSplit(nodes ** (-x) * tvals / (1.0 + tvals), 1.0)
    def generators(q):
        hp = fredholm._halfpows(q, x)[0]
        wt = q ** (-x) - split.plus(q)
        dwt = -x * q ** (-x - 1) - split.plus(q, 1)
        return two_pairs(
            np.sqrt(symbols.eval_theta(spec, q)), hp, hp * wt,
            (x / 2.0) * hp / q, hp * (dwt + (x / 2.0) * wt / q))

    return fredholm.Kernel(generators, x)


@st.composite
def rational_symbols(draw):
    """phi(q) = c prod (1 - q/w) prod (1 - z/q) with zero moduli in separate
    bands, so no two are close: winding 0, or winding -1 with one more zero
    in [1.5, 1.7] that the base contour encloses."""
    def zero(lo, hi):
        return draw(st.floats(lo, hi)) * np.exp(1j * draw(st.floats(0, 6.3)))

    inner = [zero(lo, hi) for lo, hi in ((0.2, 0.3), (0.35, 0.45))
             if draw(st.booleans())]
    outer = [zero(lo, hi) for lo, hi in ((2.2, 2.9), (3.1, 4.0))
             if draw(st.booleans())]
    winding = -draw(st.integers(0, 1))
    if winding:
        outer.append(zero(1.5, 1.7))
    numer = np.polynomial.polynomial.polyfromroots(inner + outer)
    numer = draw(st.floats(0.5, 2.0)) * numer / np.prod([-w for w in outer])
    denom = [0.0] * (len(inner) - winding) + [1.0]
    return symbols.SymbolSpec("rational", tuple(numer), tuple(denom))


def assert_fill_matches(kernel, nodes, weights):
    want = direct_fill(kernel, nodes, weights)
    got = kernel.matrix(nodes, weights)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


# no subnormal parts: a generator like e^(1e-311 q) puts subnormal values,
# which carry fewer significant bits, on the fill's diagonal
coeff = st.complex_numbers(max_magnitude=1.5, allow_subnormal=False)


@st.composite
def r_pair_kernels(draw, max_r=4):
    """(r, kernel) with r in 1..max_r pairs: a = e^(ga q), f_k = e^(al_k q),
    g_k = e^(be_k q) for k < r, and g_r solved from sum_k f_k g_k = 0."""
    r = draw(st.integers(1, max_r))
    al = [draw(coeff) for _ in range(r)]
    be = [draw(coeff) for _ in range(r - 1)]
    ga = draw(coeff)

    def generators(q):
        f = [np.exp(c * q) for c in al]
        g = [np.exp(c * q) for c in be]
        dg = [c * gk for c, gk in zip(be, g)]
        zero = np.zeros(q.shape, dtype=complex)
        g.append(-sum((fk * gk for fk, gk in zip(f, g)), zero) / f[-1])
        # (f_r g_r)' = -sum_{k<r} (f_k g_k)'
        dg.append(-(sum(((ak * gk + dgk) * fk for ak, fk, gk, dgk
                         in zip(al, f, g, dg)), zero) + al[-1] * f[-1] * g[-1])
                  / f[-1])
        return np.exp(ga * q), f, g, dg

    return r, fredholm.Kernel(generators)


class TestFill:
    @settings(max_examples=40, deadline=None)
    @given(radius=st.floats(0.3, 3.0),
           center=st.sampled_from([0.0, 0.5 - 0.25j, -1.5j]),
           n=st.one_of(st.integers(16, 1024),
                       st.sampled_from([64, 65, 100, 512, 1000, 1024])),
           al=coeff, be=coeff, ga=coeff)
    def test_matches_direct_fill_on_circles(self, radius, center, n,
                                            al, be, ga):
        # be = ga is the zero kernel; near it every entry is a cancellation
        # of O(1) terms, which either fill resolves only to about
        # eps n / (2 pi radius |be - ga|) of its max-norm
        assume(abs(be - ga) > 1.0)
        offsets = circle_nodes(radius, n)
        assert_fill_matches(exp_kernel(al, be, ga), center + offsets,
                            circle_weights(offsets, n))

    @settings(max_examples=40, deadline=None)
    @given(drawn=r_pair_kernels(), radius=st.floats(0.3, 3.0),
           n=st.integers(8, 300))
    def test_r_pairs_rounded_like_long_double(self, drawn, radius, n):
        r, kern = drawn
        nodes = circle_nodes(radius, n)
        off, diag = long_double_errors(kern, nodes, circle_weights(nodes, n))
        eps = np.finfo(float).eps
        assert off <= (4 + r) * eps
        assert diag <= (4 + r) * eps

    @settings(max_examples=40, deadline=None)
    @given(drawn=r_pair_kernels(), radius=st.floats(0.3, 3.0),
           n=st.integers(8, 300))
    def test_displacement_has_rank_r(self, drawn, radius, n):
        # off the diagonal, diag(q) A - A diag(q) = -F G with the fill's own
        # generator columns F = [a f_k] and rows G = [g_k a w / (2 pi i)]:
        # the Nystrom matrix is Cauchy-like of displacement rank r
        r, kern = drawn
        nodes = circle_nodes(radius, n)
        weights = circle_weights(nodes, n)
        mat = kern.matrix(nodes, weights)
        disp = nodes[:, None] * mat - mat * nodes[None, :]
        a, f, g, _ = kern.generators(nodes)
        cols = np.stack([a * fk for fk in f], axis=1)
        rows = np.stack([gk * a * weights / (2j * np.pi) for gk in g])
        prod = -cols @ rows
        np.fill_diagonal(disp, prod.diagonal())
        bound = 8 * np.finfo(float).eps * (np.abs(cols) @ np.abs(rows))
        assert np.all(np.abs(disp - prod) <= bound)
        # so past the r-th, its singular values lie within the rounding of
        # that product (Weyl), even where the product itself cancels
        sv = np.linalg.svd(disp, compute_uv=False)
        assert np.all(sv[r:] <= np.linalg.norm(bound))

    def test_residue_kernel_is_its_rank_one_term(self):
        # kernel_W's two pairs fill c u(q) u(p) / (2 pi i) times the weight,
        # u = sqrt(theta) q^{-x/2} / (s - q), c the residue coefficient
        spec, suite = suite_for("F4")
        nodes = circle_nodes(suite.rho, 64)
        weights = circle_weights(nodes, 64)
        for z in suite.zeros_inside():
            c = residue_coefficient(spec, z, 3, 0.0)
            u = np.sqrt(symbols.eval_theta(spec, nodes)) * \
                nodes ** (-1.5) / (z - nodes)
            want = np.outer(c * u / (2j * np.pi), u * weights)
            got = fredholm.kernel_W(spec, z, 3).matrix(nodes, weights)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_sum_fills_its_parts_at_once(self):
        spec, suite = suite_for("F4")
        parts = [fredholm.kernel_V(spec, 3, suite.rho)] + \
            [fredholm.kernel_W(spec, z, 3) for z in suite.zeros_inside()]
        nodes = circle_nodes(suite.rho, 64)
        weights = circle_weights(nodes, 64)
        want = sum(k.matrix(nodes, weights) for k in parts)
        got = fredholm.kernel_sum(parts).matrix(nodes, weights)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_subsampled_grid(self):
        # every 16th node of 2024 leaves an uneven gap at the seam
        nodes = circle_nodes(1.3, 2024)[::16]
        assert_fill_matches(exp_kernel(0.3, 0.5j, -0.2), nodes,
                            np.full(nodes.size, 0.05 + 0.01j))

    def test_entries_rounded_like_long_double(self):
        # tau_eff's kernel for a winding -1 symbol at x = 32, m = 1024: its
        # determinant is ~2e14 and moves by ~1e-10 relative when the
        # entries move by a few eps, so every entry must be the rounded
        # nodes' own kernel value to rounding.  Gaps taken on the exact
        # circle instead are off by up to 53 eps here.
        zeros = [0.1384613314744908 + 0.2444180717310027j,
                 -1.5643091968539684 + 0.3826504187855443j,
                 -0.13573751715059915 + 2.7808952620766885j]
        spec = symbols.SymbolSpec(
            "rational", tuple(np.polynomial.polynomial.polyfromroots(zeros)),
            (0.0, 0.0, 1.0))
        kern = fredholm.kernel_V(spec, 32, 1.0)
        nodes = circle_nodes(1.0, 1024)
        off, _ = long_double_errors(kern, nodes, circle_weights(nodes, 1024))
        assert off <= 5 * np.finfo(float).eps

    @pytest.mark.parametrize("x", [64, 128])
    def test_determinant_keeps_digits(self, x):
        # against the correction series to 1e-12; with the exact grid's
        # gaps next to the diagonal the drift was ~1e-11 at x = 128
        spec = symbols.fixture("F4")
        det = fredholm.nystrom_det(fredholm.kernel_S(spec, x),
                                   asymptotics.base_contour(spec)).value
        assert abs(det / asymptotics.slavnov_series(spec, x) - 1) < 1e-12

    def test_split_v_fill_reads_only_its_kept_modes(self):
        # phi = 0.5: q^x theta/(1 + theta) = -q^x has one mode, and every
        # outside mode of its split is rounding, so the fill, like the grid
        # form, keeps N = 0 tail modes and the LU at x = 2 on m = 4 nodes
        # gives phi^x = 0.25 to rounding (the fill of every outside mode,
        # their rounding times j in the derivative, read 0.24999999999999217)
        spec = symbols.SymbolSpec("rational", (0.5,), (1.0,))
        kern = fredholm.kernel_V(spec, 2, 1.0)
        nodes = circle_nodes(1.0, 4)
        det = fredholm._grid_det(kern, nodes, circle_weights(nodes, 4))
        assert abs(det / 0.25 - 1) <= 4 * EPS

    @pytest.mark.parametrize("name,m_used", [
        ("F1", ((34,), (24,), (66,))),
        ("F2", ((24, 46), (19, 30), (75, 86))),
        ("F3", ((34,), (24,), (68,))),
        ("F4", ((34,), (24,), (68,)))])
    def test_doubling_history_pinned(self, name, m_used):
        # the grids tried at x = 2, 8, 64, a theta's bandwidth (0 -> 1 for
        # F1, 11 for F2, 2 for F3 and F4) doubled while x + a < 16: a
        # Laurent polynomial has no modes past 2a, so one grid of x + 2a
        # nodes; F2's sampled modes bound nothing, so the ladder x + a,
        # x + 2a, which returns the same grid
        spec = symbols.fixture(name)
        ct = asymptotics.base_contour(spec)
        res = [fredholm.nystrom_det(fredholm.kernel_S(spec, x), ct)
               for x in (2, 8, 64)]
        assert tuple(r.grids for r in res) == m_used
        assert [r.m_used for r in res] == [g[-1] for g in m_used]


def dense_det(kernel, nodes, weights):
    """det(Id + K) by LU of the filled matrix, and that matrix."""
    mat = kernel.matrix(nodes, weights)
    np.fill_diagonal(mat, mat.diagonal() + 1.0)
    return np.linalg.det(mat), mat


@functools.lru_cache(maxsize=None)
def xsweep_r0(seed=9):
    """R0, the zero-winding random symbol of the benchmark's xsweep."""
    bw = load_perfbench("bench_workloads", PERFBENCH / "bench_workloads.py")
    return bw.random_symbols(seed)["R0"]


def near_circle_zero():
    """phi = (q - 0.3)(q - 1.0001)/q: |phi| = 7e-5 at the node q = 1."""
    return symbols.SymbolSpec("rational", tuple(
        np.polynomial.polynomial.polyfromroots([0.3, 1.0001])), (0.0, 1.0))


class TestLemma:
    """S and both forms of V by the determinant lemma on their trapezoid
    grids (``fredholm._jacobi_det`` of the kernel's complementary
    ``form``)."""

    @settings(max_examples=40, deadline=None)
    @given(spec=st.one_of(laurent_symbols(), two_sided_symbols()),
           x=st.integers(1, 200), n=st.integers(1, 64),
           residue=st.booleans())
    def test_matches_dense_lu(self, spec, x, n, residue):
        # S, or V's residue form over the zeros inside |q| = 1, on m = x + n
        # nodes: both within eps m cond(Id + K) of the exact value; on 3,000
        # scratch draws the two differed by at most 1.3 eps max(m, 16) cond
        zeros = [z for z in symbols.analyze(spec).zeros
                 if abs(z) < 1.0] if residue else []
        kern = fredholm.kernel_V_residue(spec, x, zeros)
        m = x + n
        nodes = circle_nodes(1.0, m)
        weights = circle_weights(nodes, m)
        want, mat = dense_det(kern, nodes, weights)
        got = fredholm._jacobi_det(kern.form(nodes, weights, True))
        if got is None:
            # handed back, and the dense LU takes it
            assert fredholm._grid_det(kern, nodes, weights) == want
            return
        bound = 4 * EPS * max(m, 16) * np.linalg.cond(mat)
        assert abs(got / want - 1) <= bound

    @settings(max_examples=40, deadline=None)
    @given(spec=st.one_of(laurent_symbols(), two_sided_symbols(False)),
           x=st.integers(1, 200), n=st.integers(1, 64))
    def test_split_v_matches_dense_lu(self, spec, x, n):
        # split V at zero winding on m = x + n unit-circle nodes, its tail's
        # columns included, against the dense LU of V's residue form
        # over the zeros inside |q| = 1: the same kernel, whose fill reads
        # no split.  The bound of S and the residue form above, plus m
        # TAIL_TOL cond, the first-order effect of a tail cut at TAIL_TOL
        # of the split's largest mode; the grid form keeps the modes down
        # to max(x, 16) eps of it, below that cut.  On 1,025 scratch draws
        # (681 at zero winding) the gap read at most 3.3 eps max(m, 16)
        # cond, none over 4 units (35 units, 10 over 4, with the tail cut
        # at TAIL_TOL); the split form's own fill read up to 24 units, the
        # worst at x <= 3 on 2 to 6 nodes (130 units where it summed every
        # outside mode of the split, rounding included)
        assume(symbols.winding_number(spec) == 0)
        kern = fredholm.kernel_V(spec, x, 1.0)
        zeros = [z for z in symbols.analyze(spec).zeros if abs(z) < 1.0]
        m = x + n
        nodes = circle_nodes(1.0, m)
        weights = circle_weights(nodes, m)
        want, mat = dense_det(fredholm.kernel_V_residue(spec, x, zeros),
                              nodes, weights)
        form = kern.form(nodes, weights, True)
        got = None if form is None else fredholm._jacobi_det(form)
        if got is None:
            # handed back (N >= m, or the lemma's own refusals)
            assert fredholm._grid_det(kern, nodes, weights) == \
                dense_det(kern, nodes, weights)[0]
            return
        cond = np.linalg.cond(mat)
        bound = 4 * EPS * max(m, 16) * cond + m * TAIL_TOL * cond
        assert abs(got / want - 1) <= bound

    @pytest.mark.parametrize("x, m", [(32, 64), (36, 64), (40, 64),
                                      (40, 56), (36, 48)],
                             ids=["32", "36", "40", "40-56", "36-48"])
    def test_split_v_keeps_its_tail_to_rounding(self, x, m):
        # phi = 1 - 0.6/q: split V's outside modes fall like 0.6^(x + nu)
        # relative to its largest, so a cut at TAIL_TOL drops modes that
        # move the lemma 2.8 - 3.7 eps m cond off V's residue form on 64
        # nodes.  Kept to max(x, 16) eps, on these five grids the lemma
        # reads 0.19, 0.19, 0.19, 0.052 and 0.016 of the unit eps m cond,
        # and the dense LU of the split fill 0.044, 0.013, 0.048, 0.012
        # and 0.086.  Other grids go further: over the 169 grids of 56 to
        # 2x nodes at x = 28 ... 40 the medians are 0.086 and 0.044, but
        # on 66 nodes at x = 33 ... 40 both routes pass one unit (the
        # lemma up to 1.54, the split fill up to 1.24), which points at
        # the tail both keep.  On 56 and 48 nodes the tail's N = 24 and 28
        # modes outrun the sine rank n = 16 and 12
        spec = symbols.SymbolSpec("rational", (-0.6, 1.0), (0.0, 1.0))
        kern = fredholm.kernel_V(spec, x, 1.0)
        nodes = circle_nodes(1.0, m)
        weights = circle_weights(nodes, m)
        want, mat = dense_det(fredholm.kernel_V_residue(spec, x, [0.6]),
                              nodes, weights)
        unit = EPS * m * np.linalg.cond(mat)
        lemma = fredholm._jacobi_det(kern.form(nodes, weights, True))
        assert abs(lemma / want - 1) <= unit
        assert abs(dense_det(kern, nodes, weights)[0] / want - 1) <= unit

    @pytest.mark.parametrize("name, x, route", [
        (name, x, route) for name in REFERENCES for x in (32, 128, 512)
        for route in ("S", "tau_eff")
        # det(1 + V) is D_x where phi has no zero outside base_contour:
        # split V on F0 and F1, the residue form on F3 and F5
        if route == "S" or name in ("F0", "F1", "F3", "F5")])
    def test_references(self, name, x, route):
        # on the grid nystrom_det fills, against the 50-digit log det T_x;
        # in units of x eps max(1, |log det|) the lemma read at worst 0.39
        # (F5, x = 32), and the dense LU on the same grid 2.16 (F5, x = 512)
        spec = symbols.fixture(name)
        kern, radius = ((fredholm.kernel_S(spec, x),
                         asymptotics.base_contour(spec)) if route == "S"
                        else asymptotics.tau_eff_kernel(spec, x))
        m = fredholm.nystrom_det(kern, radius).m_used
        nodes = circle_nodes(radius, m)
        got = fredholm._jacobi_det(kern.form(
            nodes, circle_weights(nodes, m), True))
        want = complex(*map(float, REFERENCES[name]["log_det"][str(x)]))
        assert log_gap(np.log(got), want) <= \
            4 * x * EPS * max(abs(want.real), 1.0)

    @pytest.mark.parametrize("name", ["F2", "F6", "R0"])
    @pytest.mark.parametrize("x", [64, 128, 256, 512])
    def test_split_v_meets_szego(self, name, x):
        # at zero winding det(1 + V) is E G^x; on these symbols the split's
        # tail is rounding from x = 64 on, so the lemma runs on R = n
        # columns; the gap read at most 1.3e-13 (F6 at x = 512).  Split V
        # is built here, as tau_eff_kernel gives F6 and R0 V's residue form
        spec = xsweep_r0() if name == "R0" else symbols.fixture(name)
        got = fredholm.nystrom_det(fredholm.kernel_V(spec, x, 1.0), 1.0).value
        assert log_gap(np.log(got), np.log(asymptotics.szego(spec, x))) \
            <= 1e-12

    @staticmethod
    def tail_block_gaps(kern, spec, x, m):
        """(the lemma's gap from szego in log, the dense LU's) on m nodes
        of the unit circle."""
        nodes = circle_nodes(1.0, m)
        weights = circle_weights(nodes, m)
        want = np.log(asymptotics.szego(spec, x))
        got = fredholm._jacobi_det(kern.form(nodes, weights, True))
        dense, _ = dense_det(kern, nodes, weights)
        return log_gap(np.log(got), want), log_gap(np.log(dense), want)

    @pytest.mark.parametrize("name, x, m", [("R0", 16, None)])
    def test_split_v_tail_block(self, name, x, m):
        # split V's grid form carries the tail, 15 modes of R0 at x = 16:
        # on the grid nystrom_det fills the lemma is held to 2 x eps
        # max(1, |log det|), half the bound of test_references (1.0e-13;
        # it reads 9.7e-15, the dense LU 3.8e-15)
        spec = xsweep_r0()
        kern = fredholm.kernel_V(spec, x, 1.0)
        # theta has bandwidth 1, so the reach counts the tail's modes
        assert kern.reach(1.0).modes > 1
        m = m or fredholm.nystrom_det(kern, 1.0).m_used
        got, _ = self.tail_block_gaps(kern, spec, x, m)
        want = np.log(asymptotics.szego(spec, x))
        assert got <= 2 * x * EPS * max(abs(want), 1.0)

    @pytest.mark.xfail(strict=True, reason="split V's complementary side "
                       "rounds ~5x the dense LU on F6 (ROADMAP item 9)")
    @pytest.mark.parametrize("m", [48, 258])
    def test_split_v_tail_block_f6(self, m):
        # where the tail is not rounding (F6: 25 modes, up to 5e-6 of q^x at
        # x = 16), the lemma on split V's grid form should be no further
        # from szego than twice the dense LU on the same grid; it reads
        # 1.26e-14 on 48 nodes and 1.60e-14 on 258, the dense LU 2.7e-15
        # and 2.8e-15
        spec = symbols.fixture("F6")
        kern = fredholm.kernel_V(spec, 16, 1.0)
        assert kern.reach(1.0).modes > 1
        got, dense = self.tail_block_gaps(kern, spec, 16, m)
        assert got <= 2 * dense

    @pytest.mark.parametrize("name, x, m", [("F6", 16, 48), ("F6", 16, 258)])
    def test_residue_v_on_the_grid(self, name, x, m):
        # tau_eff_kernel gives F6 V's residue form, rank x + 1 and no tail:
        # its lemma is no further from szego than twice the dense LU on the
        # same grid (8.4e-14 against 8.2e-14 on 48 nodes, 5.3e-15 against
        # 2.8e-15 on 258)
        spec = symbols.fixture(name)
        kern, radius = asymptotics.tau_eff_kernel(spec, x)
        assert radius == 1.0
        got, dense = self.tail_block_gaps(kern, spec, x, m)
        assert got <= 2 * dense

    @pytest.mark.parametrize("name", ["F1", "R0"])
    @pytest.mark.parametrize("x", [128, 256, 512])
    def test_split_v_takes_the_lemma(self, name, x):
        # split V at zero winding fills no m x m matrix: the lemma takes
        # every grid.  It is built here, as tau_eff_kernel gives F1 and R0
        # V's residue form
        spec = xsweep_r0() if name == "R0" else symbols.fixture(name)
        with cauchy.Notes() as notes:
            res = fredholm.nystrom_det(fredholm.kernel_V(spec, x, 1.0), 1.0)
        assert [event[:3] for event in notes[:-1]] == \
            [("grid", m, "lemma") for m in res.grids]

    @pytest.mark.parametrize("spec, zeros, x, m", [
        # a zero 1e-4 outside the circle: min |phi| = 7e-5 on the grid, and
        # cap's entries, the moments of 1/phi - 1, reach 212; the direct
        # side's 60 columns are past m/2
        (near_circle_zero(), [], 60, 68)])
    def test_hands_back_to_the_lu(self, monkeypatch, spec, zeros, x, m):
        kern = fredholm.kernel_V_residue(spec, x, zeros)
        nodes = circle_nodes(1.0, m)
        weights = circle_weights(nodes, m)
        caps = []
        real = fredholm._lemma_det

        def lemma(delta, cap):
            caps.append(cap)
            return real(delta, cap)

        monkeypatch.setattr(fredholm, "_lemma_det", lemma)
        assert fredholm._jacobi_det(kern.form(nodes, weights, True)) is None
        assert np.max(np.abs(caps[0])) > fredholm.GROWTH_MAX
        assert 2 * kern.rank > m
        want, _ = dense_det(kern, nodes, weights)
        assert fredholm._grid_det(kern, nodes, weights) == want

    def test_near_double_zero_takes_the_direct_side(self):
        # the near-double zero of CHANGES.md: phi'(z) = 2.1e-5, and V's
        # residue form over z has complementary cap entries up to 360 on 12
        # nodes, which that side hands on.  The direct side divides by no
        # phi: its 5 columns take the grid, and against a 40-digit fill of
        # the same kernel on the same nodes (its double c_z, theta from the
        # double coefficients) it reads 4.9e-15, the dense LU 1.8e-12
        mp = pytest.importorskip("mpmath")
        z, x, m = 0.0674 + 0.4125j, 4, 12
        spec = symbols.SymbolSpec("rational", tuple(
            np.polynomial.polynomial.polyfromroots(
                [z, z + 3.7e-6 * np.exp(0.3j)])), (0.0, 0.0, 1.0))
        kern = fredholm.kernel_V_residue(spec, x, [z])
        nodes = circle_nodes(1.0, m)
        weights = circle_weights(nodes, m)
        assert fredholm._jacobi_det(kern.form(nodes, weights, True)) is None
        lu, mat = dense_det(kern, nodes, weights)
        with cauchy.Notes() as notes:
            got = fredholm._grid_det(kern, nodes, weights)
        assert notes == [("grid", m, "direct", 5)]
        # conjugated by diag(q^{x/2}): delta_ij + (theta_j/m) q_j^(1-x)
        # times w's divided difference, w = q^x - c/(z - q)
        with mp.workdps(40):
            c = mp.mpc(residue_coefficient(spec, z, x, 0.0))
            q = [mp.mpc(v) for v in nodes]
            theta = [mp.polyval(spec.numer[::-1], v) /
                     mp.polyval(spec.denom[::-1], v) - 1 for v in q]
            fill = mp.matrix(m, m)
            for i in range(m):
                for j in range(m):
                    dd = sum(q[i] ** b * q[j] ** (x - 1 - b)
                             for b in range(x)) - \
                        c / ((z - q[i]) * (z - q[j]))
                    fill[i, j] = (i == j) + theta[j] * q[j] ** (1 - x) / m * dd
            want = complex(mp.det(fill))
        assert abs(got / want - 1) <= 16 * EPS * np.linalg.cond(mat)
        assert abs(got / want - 1) <= abs(lu / want - 1)

    def test_switch_at_the_crossover(self):
        # the lemma takes grids of circle_nodes from LEMMA_MIN nodes on, for
        # kernels with a grid form, S and split V here; a copy of a grid,
        # split V on a circle not its own and grids below LEMMA_MIN take
        # the dense LU, bit for bit
        real, notes = fredholm._jacobi_det, cauchy.Notes()
        spec = symbols.fixture("F4")
        rho = asymptotics.base_contour(spec)
        split = fredholm.kernel_V(symbols.fixture("F2"), 40, 1.0)
        for m in (fredholm.LEMMA_MIN - 1, fredholm.LEMMA_MIN):
            for kern, radius in ((fredholm.kernel_S(spec, 40), rho),
                                 (split, 1.0)):
                nodes = circle_nodes(radius, m)
                weights = circle_weights(nodes, m)
                with notes:
                    got = fredholm._grid_det(kern, nodes, weights)
                if m < fredholm.LEMMA_MIN:
                    assert got == dense_det(kern, nodes, weights)[0]
                else:
                    assert got == real(kern.form(nodes, weights, True))
                assert fredholm._grid_det(kern, nodes.copy(), weights) == \
                    dense_det(kern, nodes.copy(), weights)[0]
            nodes = circle_nodes(rho, m)
            weights = circle_weights(nodes, m)
            assert split.form(nodes, weights, True) is None
            assert fredholm._grid_det(split, nodes, weights) == \
                dense_det(split, nodes, weights)[0]
        assert [side for _, _, side, _ in notes] == ["lu", "lu"] + \
            ["lemma"] * 2


class TestDirect:
    """The direct side of Jacobi's identity: det(I_r + C^T P) from each
    kernel's direct ``form`` (``fredholm._jacobi_det``)."""

    @staticmethod
    def kernel(kind, spec, x):
        """S, V's residue form over the zeros inside |q| = 1, split V on the
        unit circle, W at the first of those zeros, or split V plus every
        W, S's other form on that circle."""
        zeros = [z for z in symbols.analyze(spec).zeros if abs(z) < 1.0]
        if kind == "S":
            return fredholm.kernel_S(spec, x)
        if kind == "residue V":
            return fredholm.kernel_V_residue(spec, x, zeros)
        split = fredholm.kernel_V(spec, x, 1.0)
        if kind == "split V":
            return split
        if kind == "W":
            assume(zeros)
            return fredholm.kernel_W(spec, zeros[0], x)
        return fredholm.kernel_sum(
            [split] + [fredholm.kernel_W(spec, z, x) for z in zeros])

    @settings(max_examples=60, deadline=None)
    @given(spec=st.one_of(laurent_symbols(), two_sided_symbols()),
           x=st.integers(1, 32), data=st.data(),
           kind=st.sampled_from(["S", "residue V", "split V", "W", "sum"]))
    def test_matches_dense_lu(self, spec, x, data, kind):
        # on m unit-circle nodes, 2x < m <= 4x + 64, against the dense LU of
        # the same kernel on the same grid, at any rank r (the identity
        # holds at every r; _grid_det takes it where r <= m/2).  On 4,500
        # scratch draws the gap read at most 0.80 eps max(m, 16) cond (a
        # sum at x = 6, m = 13, r = 68); 0.66 for S, 0.48 for split V, 0.42
        # for the residue form and 0.31 for W
        m = data.draw(st.integers(2 * x + 1, 4 * x + 64), label="m")
        try:
            kern = self.kernel(kind, spec, x)
        except errors.NotASimpleZero:
            assume(False)
        nodes = circle_nodes(1.0, m)
        weights = circle_weights(nodes, m)
        want, mat = dense_det(kern, nodes, weights)
        got = fredholm._jacobi_det(kern.form(nodes, weights, False))
        bound = 2 * EPS * max(m, 16) * np.linalg.cond(mat)
        assert abs(got / want - 1) <= bound

    @pytest.mark.parametrize("k,r", [(1, 1), (1, 7), (42, 1), (3, 5),
                                     (0, 1), (1, 0)])
    def test_products_of_a_unit_dimension(self, k, r):
        # rows @ cols.T, a single row or column by a vector product
        rng = np.random.default_rng(k + 8 * r)
        rows, cols = (rng.normal(size=(n, 133)) + 1j * rng.normal(
            size=(n, 133)) for n in (k, r))
        got = fredholm._products(rows, cols)
        want = rows @ cols.T
        assert got.shape == want.shape == (k, r)
        bound = 4 * EPS * (np.abs(rows) @ np.abs(cols).T)
        assert np.all(np.abs(got - want) <= bound)

    def test_path_follows_the_rank(self):
        # F6's split V at x = 5 keeps N = 41 tail modes, so its direct side
        # has r = 46 columns: past m/2 on its ladder's grids 37 and 69,
        # which the dense LU fills, within it on 133, which it does not
        spec = symbols.fixture("F6")
        kern = fredholm.kernel_V(spec, 5, 1.0)
        assert kern.rank == 46
        with cauchy.Notes() as notes:
            res = fredholm.nystrom_det(kern, 1.0)
        assert res.grids == (37, 69, 133)
        assert [event[2] for event in notes[:-1]] == ["lu", "lu", "direct"]
        nodes = circle_nodes(1.0, 133)
        weights = circle_weights(nodes, 133)
        want, mat = dense_det(kern, nodes, weights)
        assert abs(res.value / want - 1) <= \
            2 * EPS * 133 * np.linalg.cond(mat)

    def test_sum_stacks_its_parts(self):
        # S = V + sum_z W_z on F4's circle: the sum's r = x + N + #zeros
        # columns give S's value, and a part without a direct side, or
        # another x, leaves the sum without one
        spec, suite = suite_for("F4")
        parts = [fredholm.kernel_V(spec, 3, suite.rho)] + \
            [fredholm.kernel_W(spec, z, 3) for z in suite.zeros_inside()]
        total = fredholm.kernel_sum(parts)
        assert total.rank == sum(k.rank for k in parts)
        m = 2 * total.rank
        nodes = circle_nodes(suite.rho, m)
        weights = circle_weights(nodes, m)
        got = fredholm._jacobi_det(total.form(nodes, weights, False))
        want = fredholm._jacobi_det(
            fredholm.kernel_S(spec, 3).form(nodes, weights, False))
        assert abs(got / want - 1) <= 1e-10
        assert fredholm.kernel_sum(parts + [zero_kernel()]).form is None
        assert fredholm.kernel_sum(
            parts + [fredholm.kernel_S(spec, 4)]).form is None


class TestNystrom:
    def test_zero_kernel(self):
        res = fredholm.nystrom_det(zero_kernel(), 1.0)
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

    def test_drift_at_cap_raises(self):
        # S's generators and reach with no grid form, so every grid is
        # filled: the grid 35 rounds past 1e-15, so no single grid; the
        # ladder's grids 19 and 35 leave a drift of 3.7e-14, past 1e-15
        # |det| = 2.8e-14, and 67 passes the cap.  (S's direct side rounds
        # below 1e-15 on these grids, and its ladder settles at tol =
        # 1e-15.)
        spec = symbols.fixture("F4")
        kern = fredholm.kernel_S(spec, 3)
        with pytest.raises(errors.NotConverged, match="drift .* at m=35"):
            fredholm.nystrom_det(fredholm.Kernel(kern.generators, 3,
                                                 kern.reach),
                                 asymptotics.base_contour(spec),
                                 tol=1e-15, m_cap=3 + 32)

    def test_bandwidth_past_cap_raises_before_fill(self):
        # every grid of at most 1024 nodes aliases q^{+-512}: none is taken
        spec = symbols.fixture("F1")
        with cauchy.Notes() as notes, \
                pytest.raises(errors.NotConverged, match="1026"):
            fredholm.nystrom_det(fredholm.kernel_S(spec, 1024),
                                 asymptotics.base_contour(spec), m_cap=1024)
        assert notes == []

    @pytest.mark.parametrize("route,spec", [
        ("tau_eff", symbols.fixture("F1")),
        # R0 of the x sweep: one zero inside and one outside |q| = 1
        ("tau_eff", symbols.SymbolSpec(
            "rational", tuple(np.polynomial.polynomial.polyfromroots(
                [0.4j, -2.4])), (0.0, 1.0))),
        # F2's exponential theta has its margin read from an FFT of theta
        ("kernel_S", symbols.fixture("F2"))])
    def test_past_cap_raises_before_sampling(self, monkeypatch, route, spec):
        calls = []

        def counted(*args):
            calls.append(args)
            return real(*args)

        real = symbols.eval_theta
        monkeypatch.setattr(symbols, "eval_theta", counted)
        with pytest.raises(errors.NotConverged, match="1026"):
            if route == "tau_eff":
                asymptotics.tau_eff(spec, 1024)
            else:
                fredholm.nystrom_det(fredholm.kernel_S(spec, 1024), 1.0)
        assert calls == []

    def test_f4_at_x_512(self):
        # doubling from 32 reached m_cap = 1024 here and raised; theta's
        # bandwidth 2 puts the one grid at x + 4
        spec = symbols.fixture("F4")
        res = fredholm.nystrom_det(fredholm.kernel_S(spec, 512),
                                   asymptotics.base_contour(spec))
        assert res.grids == (512 + 4,)
        slav = asymptotics.slavnov_series(spec, 512)
        assert abs(res.value / slav - 1) < 1e-10

    def test_margin_of_one_fits_under_cap(self):
        # F1's constant theta has margin 1: grids 1001 and 1002 fit under
        # m_cap = 1024, which a check for x + 2 M_START nodes refused
        res = fredholm.nystrom_det(
            fredholm.kernel_S(symbols.fixture("F1"), 1000), 1.0)
        assert res.grids == (1001, 1002)
        assert abs(res.value / 1.5 ** 1000 - 1) < 1e-12

    def test_sum_kernel_takes_widest_part(self):
        spec, suite = suite_for("F4")
        parts = [zero_kernel(),
                 fredholm.kernel_V(spec, 6, suite.rho)] + \
            [fredholm.kernel_W(spec, z, 6) for z in suite.zeros_inside()]
        assert [k.x for k in parts] == [0] + [6] * (len(parts) - 1)
        assert fredholm.kernel_sum(parts).x == 6
        assert kernel_Delta_residue(
            spec, 6, suite.zeros_inside()).x == 6

    def test_sum_kernel_reach_is_its_widest_margin(self):
        def part(modes):
            return fredholm.Kernel(zero_generators, 0, None if modes is None
                                   else lambda r: fredholm.Reach(modes, None))

        def margin(*parts):
            sum_kernel = fredholm.kernel_sum(parts)
            return fredholm._first_reach(sum_kernel, 1.0).modes

        assert margin(part(5), part(9)) == 9
        # a part without a reach counts as M_START, and a reach past it is
        # clipped there, so no sum starts past its widest part's margin
        assert margin(part(5), part(None)) == fredholm.M_START
        assert margin(part(500)) == fredholm.M_START
        assert margin() == fredholm.M_START

    @pytest.mark.parametrize("n", [4, 8, 16, 30])
    def test_sum_kernel_adds_its_parts_folds(self, n):
        # the sum's entries are the sums of its parts' entries, so it folds
        # what its parts fold together, not the largest of them: on its
        # grid x + n the sum of their bounds holds, to the LU's rounding.
        # The sum reads its widest part's modes and bounds nothing itself
        spec = symbols.fixture("F4")
        rho = asymptotics.base_contour(spec)
        kern = fredholm.kernel_V_residue(spec, 6, [0.3])
        one = kern.reach(rho)
        two = fredholm.kernel_sum([kern, kern])
        assert one.modes == two.reach(rho).modes == 11
        assert two.reach(rho).folds is None and 0 < one.folds(n)

        def det(m):
            nodes = circle_nodes(rho, m)
            return fredholm._grid_det(two, nodes, circle_weights(nodes, m))

        m, exact = 6 + n, det(400)
        assert abs(det(m) - exact) / max(1.0, abs(exact)) <= \
            m * 2 * one.folds(n) + m * m * EPS

    def test_theta_reach_reads_the_converged_bandwidth(self):
        # SLOW's theta converges on 1024 nodes: one FFT on 256 nodes read
        # 128, the edge of its grid
        spec = symbols.SymbolSpec(log_coeffs=SLOW)
        assert fredholm.kernel_S(spec, 0).reach(1.0).modes >= 400

    @settings(max_examples=25, deadline=None)
    @given(spec=rational_symbols(), x=st.integers(1, 300))
    def test_grids_start_above_bandwidth(self, spec, x):
        kern, ct = fredholm.kernel_S(spec, x), asymptotics.base_contour(spec)
        res = fredholm.nystrom_det(kern, ct)
        assert res.m_used >= x + fredholm._first_reach(kern, ct).modes
        truth = toeplitz.toeplitz_det(spec, x)
        assert abs(res.value / truth - 1) < 1e-8

    @settings(max_examples=25, deadline=None)
    @given(spec=rational_symbols(), x=st.integers(1, 300))
    def test_first_grids_agree_with_a_fine_grid(self, spec, x):
        # the ladder from the kernel's own margin stops where a grid of
        # x + 128 nodes agrees to tol, for S and for tau_eff's V
        for kern, ct in ((fredholm.kernel_S(spec, x),
                          asymptotics.base_contour(spec)),
                         asymptotics.tau_eff_kernel(spec, x)):
            res = fredholm.nystrom_det(kern, ct)
            nodes = circle_nodes(ct, x + 128)
            mat = kern.matrix(nodes, circle_weights(nodes, x + 128))
            np.fill_diagonal(mat, mat.diagonal() + 1.0)
            ref = np.linalg.det(mat)
            assert abs(res.value - ref) <= fredholm.TOL * max(1.0, abs(ref))

    def test_margin_of_one_is_still_checked(self):
        # F6's split V at x = 2 carries ~39 modes past q^{-1}, capped at 32:
        # the ladder of the previous fixed margin.  Forced to 1, the first
        # grids disagree and the ladder doubles on to the same value.
        kern = fredholm.kernel_V(symbols.fixture("F6"), 2, 1.0)
        want = fredholm.nystrom_det(kern, 1.0)
        assert want.grids == (34, 66, 130)
        kern.reach = lambda radius: fredholm.Reach(1, None)
        got = fredholm.nystrom_det(kern, 1.0)
        assert got.grids[0] == 18
        assert abs(got.value - want.value) <= \
            fredholm.TOL * max(1.0, abs(want.value))

    @pytest.mark.parametrize("roots,poles,zset,radii", [
        # phi = (q - 0.3)(q - 1.2)(q - 2.5)/(q^2 (q - 1.8)): two radii
        # between max|S| and the first pole
        ([0.3, 1.2, 2.5], [0.0, 0.0, 1.8], [0.3, 1.2], (1.4, 1.6)),
        # F4's zeros 0.3, 1.4, 2.2 and double pole at 0: the zero 2.2 lies
        # between the radii, or the zero 1.4 left out of S inside both
        ([0.3, 1.4, 2.2], [0.0, 0.0], [0.3, 1.4], (1.6, 3.0)),
        ([0.3, 1.4, 2.2], [0.0, 0.0], [0.3, 2.2], (2.5, 4.0))])
    @pytest.mark.parametrize("x", [2, 5])
    def test_residue_v_ignores_zeros_off_its_set(self, roots, poles, zset,
                                                 radii, x):
        # V in residue form over S is regular where theta = -1 off S, so
        # det(1 + V) is one number on every circle past S inside the first
        # pole, whichever other zeros of phi the circle encloses
        numer = np.polynomial.polynomial.polyfromroots(roots)
        denom = np.polynomial.polynomial.polyfromroots(poles)
        spec = symbols.SymbolSpec("rational", tuple(numer), tuple(denom))
        kern = fredholm.kernel_V_residue(spec, x, zset)
        small, large = (fredholm.nystrom_det(kern, r).value
                        for r in radii)
        assert abs(small - large) <= 1e-9 * abs(large)

    def test_overflow_raises_overflow_guard(self):
        # det(1 + 1e9 I) is finite at 32 nodes and overflows at 64, where
        # err = inf would otherwise pass err <= tol * |det| = inf
        class Huge(fredholm.Kernel):
            def matrix(self, nodes, weights):
                return diagonal_fill(nodes, 1e9)

        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(errors.OverflowGuard):
            fredholm.nystrom_det(Huge(None), 1.0)

    def test_overflowing_modulus_raises_overflow_guard(self):
        # both parts finite, the modulus past the double range: Python's
        # abs would raise a bare OverflowError
        class Big(fredholm.Kernel):
            def matrix(self, nodes, weights):
                mat = diagonal_fill(nodes, 0.0)
                mat[0, 0] = 1.5e308 * (1 + 1j)
                return mat

        with pytest.raises(errors.OverflowGuard):
            fredholm.nystrom_det(Big(None), 1.0)


class TestOneGrid:
    """``nystrom_det`` fills one grid, x + 2a, where the kernel's reach
    bounds what that grid folds within tol, and runs the ladder otherwise."""

    def test_f4_takes_the_last_grid_of_its_ladder(self):
        # the same generators and grid form with a reach that bounds nothing
        # run the ladder (66, 68): its value, bit for bit, from one grid
        spec = symbols.fixture("F4")
        ct = asymptotics.base_contour(spec)
        kern = fredholm.kernel_S(spec, 64)
        ladder = fredholm.nystrom_det(fredholm.Kernel(
            kern.generators, 64, lambda radius: fredholm.Reach(2, None),
            kern.form), ct)
        with cauchy.Notes() as notes:
            one = fredholm.nystrom_det(kern, ct)
        assert ladder.grids == (66, 68)
        assert notes == [("grid", 68, "lemma", 4), ("ladder", one)]
        assert one.grids == (68,) and one.drifts == ()
        assert one.value == ladder.value
        # theta's modes, read from F4's coefficients, end at 2 < 4: the grid
        # folds nothing, and its rounding is the LU's alone
        assert one.err_estimate == 0 < one.lu_rounding

    def test_residue_forms_share_one_reach(self):
        # W at the zero 0.3 reads V's residue-form reach over {0.3}: theta's
        # bandwidth 2 or the 11 modes the tail keeps above TAIL_TOL past
        # x = 6, (0.3 / 1.75)^(6 + 11) < 1e-13, with the same bound
        spec = symbols.fixture("F4")
        rho = asymptotics.base_contour(spec)
        v = fredholm.kernel_V_residue(spec, 6, [0.3]).reach(rho)
        w = fredholm.kernel_W(spec, 0.3, 6).reach(rho)
        assert v.modes == w.modes == 11
        assert [v.folds(n) for n in (4, 22)] == [w.folds(n) for n in (4, 22)]
        assert v.folds(4) > 1e-8 > 1e-15 > v.folds(22)

    def test_v_tail_meets_theta_below_the_grid(self):
        # theta = 0.5 + 0.2 (q + 1/q) + 0.1 (q^2 + 1/q^2), bandwidth 2, and
        # the tail 1e-4 (1/q + 1/q^2): the grid x + n folds the tail mode 2
        # into theta's mode n - 2 until n = 2 + 2 + 1, which theta's modes
        # past n alone, none past its band, do not show
        spec = symbols.SymbolSpec(numer=(0.1, 0.2, 1.5, 0.2, 0.1),
                                  denom=(0, 0, 1.0))

        def tail(q):
            return (1e-4 * (1 / q + 1 / q ** 2),
                    -1e-4 * (1 / q ** 2 + 2 / q ** 3))

        x = 30
        kern = fredholm._kernel_V_generic(
            functools.partial(symbols.eval_theta, spec), tail, x, None)
        read = fredholm._theta_reach(spec, 1.0, 2,
                                     lambda nu: 1e-4 if nu <= 2 else 0.0)
        alone = fredholm._theta_reach(spec, 1.0, 0, lambda nu: 0.0)
        assert read.modes == 2

        def det(m):
            nodes = circle_nodes(1.0, m)
            return fredholm._grid_det(kern, nodes, circle_weights(nodes, m))

        exact = det(200)
        for n in (2, 3, 4):
            off = abs(det(x + n) / exact - 1)
            assert read.folds(n) / 2 <= off <= read.folds(n)
            assert alone.folds(n) == 0
        for n in (5, 6, 8):
            assert abs(det(x + n) / exact - 1) < 1e-13
            assert read.folds(n) == 0

    def test_only_exact_modes_bound_a_grid(self):
        # S, V's residue form and W on a Laurent polynomial (F4) read their
        # modes and residue weights exactly and bound what a grid folds;
        # split V on it, a sum, and every kernel of F2, whose theta is
        # sampled, bound nothing, and their determinants take the ladder
        f4, f2 = symbols.fixture("F4"), symbols.fixture("F2")
        rho = asymptotics.base_contour(f4)
        exact = [fredholm.kernel_S(f4, 6),
                 fredholm.kernel_V_residue(f4, 6, [0.3]),
                 fredholm.kernel_W(f4, 0.3, 6)]
        assert all(k.reach(rho).folds is not None for k in exact)
        sampled = [(fredholm.kernel_V(f4, 6, rho), rho),
                   (fredholm.kernel_sum(exact), rho),
                   (fredholm.kernel_S(f2, 6), 1.0),
                   (fredholm.kernel_V_residue(f2, 6, []), 1.0),
                   asymptotics.tau_eff_kernel(f2, 6)]
        assert all(k.reach(r).folds is None for k, r in sampled)
        for kern, radius in [(fredholm.kernel_S(f2, 2), 1.0),
                             asymptotics.tau_eff_kernel(f2, 2),
                             (fredholm.kernel_V(f4, 3, rho), rho)]:
            assert len(fredholm.nystrom_det(kern, radius).grids) >= 2

    @staticmethod
    def near_double_zero(x):
        """V in residue form over the zero 0.5 of phi = (q - 0.5)(q -
        0.5001)/q^2, on the unit circle: phi'(0.5) = -4e-4."""
        roots = np.polynomial.polynomial.polyfromroots([0.5, 0.5001])
        spec = symbols.SymbolSpec("rational", tuple(roots), (0.0, 0.0, 1.0))
        return fredholm.kernel_V_residue(spec, x, [0.5])

    def test_small_phi_prime_raises_the_bound(self):
        # the tail's weight z^x/phi'(z) puts its modes 1/|z phi'(z)| = 5000
        # times above (|z|/rho)^(x + nu): at x = 40 that keeps the grid 48
        # from standing alone, where it is 1.4e-10 off; x = 30 and 50 take
        # one grid, which holds against twice its grid
        def det(kern, m):
            nodes = circle_nodes(1.0, m)
            return fredholm._grid_det(kern, nodes, circle_weights(nodes, m))

        kern = self.near_double_zero(40)
        assert fredholm._first_reach(kern, 1.0).modes == 4
        assert 48 * kern.reach(1.0).folds(8) > fredholm.TOL
        assert abs(det(kern, 48) - det(kern, 96)) > fredholm.TOL
        assert len(fredholm.nystrom_det(kern, 1.0).grids) > 1
        for x, m in ((30, 58), (50, 54)):
            kern = self.near_double_zero(x)
            res = fredholm.nystrom_det(kern, 1.0)
            assert res.grids == (m,)
            assert abs(res.value - det(kern, 2 * m)) <= \
                res.err_estimate + res.lu_rounding

    @pytest.mark.parametrize("case", ["no reach", "slow", "fermi", "bound",
                                      "rounding"])
    def test_ladder_where_no_bound_holds(self, case):
        # a kernel with no reach, a reach clipped at M_START (SLOW's theta,
        # and the Fermi weight's tau_eff kernel at beta = 8), a bound above
        # tol, and a tol below the grid's rounding each fill the ladder's
        # grids x + a and x + 2a
        tol, m_cap = fredholm.TOL, fredholm.M_CAP
        if case == "no reach":
            _, suite = suite_for("F4")
            kern, radius = fredholm.resolvent_kernel(
                suite, 3, suite.b_split(3).plus), suite.rho
        elif case == "slow":
            kern, radius = fredholm.kernel_S(
                symbols.SymbolSpec(log_coeffs=SLOW), 4), 1.0
        elif case == "fermi":
            spec = symbols.load_symbol(DATA / "fermi_beta8.json")
            kern, radius = asymptotics.tau_eff_kernel(spec, 16)
        elif case == "bound":
            kern, radius = self.near_double_zero(40), 1.0
        else:
            # the grid 68 folds 1.6e-15 and rounds at 1e-12
            spec = symbols.fixture("F4")
            kern, radius = fredholm.kernel_S(spec, 64), \
                asymptotics.base_contour(spec)
            tol = 1e-13
        margin = fredholm._first_reach(kern, radius).modes
        while kern.x + margin < 16:
            margin *= 2
        with cauchy.Notes() as notes:
            try:
                res = fredholm.nystrom_det(kern, radius, tol, m_cap)
            except errors.NotConverged:
                res = None
        sizes = [event[1] for event in notes if event[0] == "grid"]
        assert res is None or res.grids == tuple(sizes) and res.drifts
        assert sizes[:2] == [kern.x + margin, kern.x + 2 * margin]

    def test_clipped_reach_bounds_nothing(self):
        # a reach past M_START is clipped there and drops its bound, which
        # counted only the modes it read
        kern = fredholm.Kernel(zero_generators, 3, lambda radius:
                               fredholm.Reach(500, lambda n: 0.0))
        assert fredholm._first_reach(kern, 1.0) == (fredholm.M_START, None)


def reference_reach(j, c, tail_modes=0, tail=None):
    """The reference envelope and fold rule on the modes (j, c), in arrays:
    theta's bandwidth or ``tail_modes``, whichever is more, and folds(n) =
    E[n + 1] + sum_nu tail(nu) E[|n - nu|] over the tail modes nu = 1, 2,
    ..., E[k] the largest |c_j| over |j| >= k relative to the largest of
    all, 0 past max|j|; no bound for tail None."""
    modes = max(fredholm._bandwidth(j, c), tail_modes)
    if tail is None:
        return fredholm.Reach(modes, None)
    by_k = np.zeros(np.max(np.abs(j)) + 2)
    np.maximum.at(by_k, np.abs(j), np.abs(c))
    env = np.maximum.accumulate(by_k[::-1])[::-1]
    env = env / env[0] if env[0] > 0 else env
    last = env.size - 1

    def folds(n):
        nu = np.arange(1, n + last + 1)
        return float(env[min(n + 1, last)] + np.sum(
            tail(nu) * env[np.minimum(np.abs(n - nu), last)]))
    return fredholm.Reach(modes, folds)


class TestThetaModes:
    """A Laurent polynomial's reach is read from its coefficients in Python
    scalars (``fredholm._theta_reach``): the modes of its sampled split
    to rounding, ``reference_reach``'s modes and folds on the
    same coefficient modes, and the same grids and values as that one.
    Read from samples, the same modes bound nothing."""

    @staticmethod
    def coefficient_modes(form, radius):
        """(j, c), theta's modes on the circle of ``radius`` from the
        Laurent form (p, P/a) as arrays: c_j = (P_(j+p)/a) radius^j -
        delta_(j,0), none past the band."""
        p, coeffs = form
        j = np.arange(max(len(coeffs), p + 1)) - p
        c = np.append(coeffs, np.zeros(j.size - len(coeffs))) * radius ** j
        return j, c - (j == 0)

    @classmethod
    def array_reach(cls, spec, radius, tail_modes=0, tail=None):
        """``_theta_reach`` by ``reference_reach`` on the same modes."""
        return reference_reach(*cls.coefficient_modes(
            symbols.laurent_polynomial(spec), radius), tail_modes, tail)

    @staticmethod
    def sampled(spec, radius):
        """theta's modes as any other symbol's: from its converged split."""
        split, _ = fredholm._converged_split(lambda m: (symbols.eval_theta(
            spec, circle_nodes(radius, m)), radius), 256)
        return split.j, split.c

    @staticmethod
    def kernels(spec, x, rho):
        """S, V's residue form over the zeros inside the circle of rho and
        W at the first of them."""
        zeros = [z for z in symbols.analyze(spec).zeros if abs(z) < rho]
        out = [fredholm.kernel_S(spec, x),
               fredholm.kernel_V_residue(spec, x, zeros)]
        return out + [fredholm.kernel_W(spec, z, x) for z in zeros[:1]]

    @staticmethod
    def outcome(kernel, rho):
        try:
            det = fredholm.nystrom_det(kernel, rho)
        except errors.DetlabError as exc:
            return f"{type(exc).__name__}: {exc}", None
        return (det.value, det.grids, det.drifts), det.err_estimate

    def test_short_numerator(self):
        # phi = 2/q^3, a numerator shorter than p + 1: theta = 2 q^-3 - 1,
        # on the circle of 0.5 the modes 16 at j = -3 and -1 at j = 0
        spec = symbols.SymbolSpec(numer=(2.0,), denom=(0, 0, 0, 1.0))
        form = symbols.laurent_polynomial(spec)
        j, c = self.coefficient_modes(form, 0.5)
        assert j.tolist() == [-3, -2, -1, 0]
        assert c.tolist() == [16, 0, 0, -1]
        # E = 1 up to |j| = 3: folds(n) = E[n + 1] + sum_nu nu E[|n - nu|]
        read = fredholm._theta_reach(spec, 0.5, 0, lambda nu: 1e-3 * nu)
        assert read.modes == 3
        assert [read.folds(n) for n in (1, 2, 4)] == pytest.approx(
            [1 + 1e-3 * 10, 1 + 1e-3 * 15, 1e-3 * 28], rel=4 * EPS)
        assert symbols.laurent_polynomial(symbols.fixture("F2")) is None

    @settings(max_examples=40, deadline=None)
    @given(spec=laurent_symbols(), x=st.integers(0, 24))
    @example(spec=symbols.SymbolSpec(numer=(0.5, 1.0), denom=(0, 0, 0, 1.0)),
             x=5)
    @example(spec=symbols.SymbolSpec(numer=(1.5,), denom=(0, 1.0)), x=2)
    @example(spec=symbols.SymbolSpec(numer=(-0.5, 2.0), denom=(0, 0, 1.0)),
             x=16)
    def test_modes_and_reach_are_the_sampled_ones(self, spec, x):
        p, coeffs = form = symbols.laurent_polynomial(spec)
        rho = toeplitz._sample_radius(spec)
        j, c = self.coefficient_modes(form, rho)
        sj, sc = self.sampled(spec, rho)
        assert j[0] == -p and j[-1] == max(len(coeffs) - 1 - p, 0)
        exact = np.zeros(sc.size, dtype=complex)
        exact[np.searchsorted(sj, j)] = c
        assert np.max(np.abs(sc - exact)) <= 4 * EPS * np.max(np.abs(c))
        try:
            kernels = self.kernels(spec, x, rho)
        except errors.NotASimpleZero:
            assume(False)
        # read from samples the reach has the same modes and no bound, so
        # where the coefficients took one grid, x + 2a, the ladder x + a,
        # x + 2a stops on it, with its value.  Where phi winds on the
        # circle, S and V are near singular and their coefficients bound
        # nothing either (D_16 = 0 on (2q - 0.5)/q^2, whose one grid of V
        # read 9e-11 as within 4.5e-16); W keeps its bound
        winds = symbols.winding_on(spec, rho) != 0
        for i, kern in enumerate(kernels):
            read = kern.reach(rho)
            value, _ = self.outcome(kern, rho)
            with mock.patch.object(symbols, "laurent_polynomial",
                                   lambda spec: None):
                sampled = kern.reach(rho)
                ladder, _ = self.outcome(kern, rho)
            assert (read.folds is None) == (winds and i < 2)
            assert sampled.folds is None
            assert sampled.modes == read.modes
            if isinstance(value, str) or len(value[1]) > 1:
                assert ladder == value
                continue
            assert len(ladder[1]) == 2 and ladder[1][-1] == value[1][0]
            assert ladder[0] == value[0]

    def test_winding_circle_runs_the_ladder(self):
        # (2q - 0.5)/q^2 winds -1 on every circle past its zero 0.25, and
        # T_16 is strictly triangular: D_16 = 0, which S and V read as
        # rounding noise of 1e-11 ... 1e-10.  Their reach bounds nothing
        # there, so each runs the ladder, whose estimate covers the noise;
        # W, whose determinant is 1, keeps its bound and its one grid
        spec = symbols.SymbolSpec(numer=(-0.5, 2.0), denom=(0, 0, 1.0))
        assert symbols.winding_on(spec, 1.0) == -1
        assert symbols.winding_on(spec, 0.2) == -2
        s, v, w = self.kernels(spec, 16, 1.0)
        for kern in (s, v):
            assert kern.reach(1.0).folds is None
            det = fredholm.nystrom_det(kern, 1.0)
            assert len(det.grids) >= 2
            assert abs(det.value) <= det.err_estimate <= fredholm.TOL
        assert w.reach(1.0).folds is not None
        det = fredholm.nystrom_det(w, 1.0)
        assert det.grids == (28,) and abs(det.value - 1) <= 1e-14

    @settings(max_examples=40, deadline=None)
    @given(spec=laurent_symbols(), x=st.integers(0, 40))
    @example(spec=symbols.SymbolSpec(numer=(2.0,), denom=(0, 0, 0, 1.0)),
             x=3)
    def test_scalar_reach_is_the_array_reach(self, spec, x):
        # pole orders 0-3 and 0-3 zeros inside: the scalar reach has the
        # reference's modes and, to rounding, its folds, and every
        # determinant it serves takes the same grids to the same bits
        rho = toeplitz._sample_radius(spec)
        try:
            kernels = self.kernels(spec, x, rho)
        except errors.NotASimpleZero:
            assume(False)
        reads = [fredholm._theta_reach(spec, rho)] + [
            k.reach(rho) for k in kernels]
        outcomes = [self.outcome(k, rho)[0] for k in kernels]
        with mock.patch.object(fredholm, "_theta_reach", self.array_reach):
            arrays = [fredholm._theta_reach(spec, rho)] + [
                k.reach(rho) for k in kernels]
            assert [self.outcome(k, rho)[0] for k in kernels] == outcomes
        assert reads[0] == self.array_reach(spec, rho)
        for read, array in zip(reads, arrays):
            assert read.modes == array.modes
            if read.folds is None:
                assert array.folds is None
                continue
            for n in range(1, 4 * read.modes + 1):
                a, b = read.folds(n), array.folds(n)
                assert abs(a - b) <= 4 * EPS * max(a, b)


class TestLadder:
    """The ladder of ``nystrom_det``: grids x + a, x + 2a, x + 4a, ...
    until two agree."""
    X, A = 3, 16

    def scripted(self, monkeypatch, det_at):
        """A kernel of bandwidth X and margin A whose determinant on x + n
        nodes is det_at(n); returns it and the node counts of its grids."""
        filled = []

        def grid_det(kernel, nodes, weights):
            filled.append(nodes.size)
            return complex(det_at(nodes.size - self.X))

        monkeypatch.setattr(fredholm, "_grid_det", grid_det)
        return fredholm.Kernel(zero_generators, self.X, lambda radius:
                               fredholm.Reach(self.A, None)), filled

    def test_geometric_drifts_double_until_two_agree(self, monkeypatch):
        # det = 1 + 10^(-3n/16) drifts 1e-6 from x + 2a to x + 4a, where
        # the error left is 1e-12: x + 8a, not x + 5a, confirms it
        def geometric(n):
            return 1 + 10.0 ** (-3 * n / 16)

        kern, filled = self.scripted(monkeypatch, geometric)
        res = fredholm.nystrom_det(kern, 1.0)
        steps = (1, 2, 4, 8)
        assert res.grids == tuple(filled) == tuple(
            self.X + k * self.A for k in steps)
        dets = [complex(geometric(k * self.A)) for k in steps]
        assert res.value == dets[-1] and res.m_used == self.X + 8 * self.A
        assert res.drifts == tuple(abs(b - a) for a, b in zip(dets, dets[1:]))
        assert res.err_estimate == res.drifts[-1]

    def test_stalled_drift_raises_where_doubling_did(self, monkeypatch):
        # drifts near 2e-9 that shrink only by 1/n never agree to tol: the
        # grids double and 259 passes m_cap = 200
        def det(n):
            return 1 + (-1) ** n.bit_length() * 1e-9 * (1 + 1 / n)

        kern, filled = self.scripted(monkeypatch, det)
        with pytest.raises(errors.NotConverged, match="drift .* at m=131"):
            fredholm.nystrom_det(kern, 1.0, m_cap=200)
        assert filled == [19, 35, 67, 131]

    @staticmethod
    def recorded(calls):
        """``nystrom_det`` that appends (kernel, radius, tol, result) of each
        call that returns to ``calls``."""
        def call(kernel, radius, tol=fredholm.TOL, m_cap=fredholm.M_CAP):
            res = fredholm.nystrom_det(kernel, radius, tol, m_cap)
            calls.append((kernel, radius, tol, res))
            return res
        return call

    def test_contour_swap_ladders_pinned(self):
        # verify's contour-swap check confirms on 259 nodes.
        # Both kernels run the ladder because their reach, 132 and 130
        # modes, is clipped at M_START, and the clip also keeps an
        # understated bound off the single grid: against a 1,024-node grid
        # the swapped kernel on radius 2.75 is 1.9e-9 off at m = 120, where
        # m folds(m - 3) reads 9.0e-10, 2.1 times low at every m from 40
        # to 140; the base kernel on radius 1.755 holds it (2.6e-10 against
        # 6.8e-10)
        with cauchy.Notes() as notes:
            asymptotics.tau_ratio_swap(symbols.fixture("F4"), 3, 1.4, 2.2)
        assert [event[1].grids for event in notes if event[0] == "ladder"] \
            == [(35, 67, 131, 259)] * 2

    @settings(max_examples=25, deadline=None)
    @given(spec=two_sided_symbols(), x=st.integers(1, 4))
    def test_accepted_values_hold_on_twice_the_grid(self, spec, x):
        # the ladders of S, of tau_eff's V and of tau_ratio_swap's two
        # residue kernels, swapping the largest zero inside for the
        # smallest outside: many take a ladder, and many a single grid,
        # which holds to its err_estimate, which counts no rounding, plus
        # its LU's
        calls = []
        nystrom = self.recorded(calls)
        nystrom(fredholm.kernel_S(spec, x), asymptotics.base_contour(spec))
        with mock.patch.object(asymptotics, "nystrom_det", nystrom):
            asymptotics.tau_eff(spec, x)
            suite = CauchySuite(spec)
            asymptotics.tau_ratio_swap(spec, x,
                                       max(suite.zeros_inside(), key=abs),
                                       min(suite.zeros_outside(), key=abs))
        assert len(calls) == 4
        for kernel, radius, tol, res in calls:
            m = 2 * res.m_used
            nodes = circle_nodes(radius, m)
            ref = fredholm._grid_det(kernel, nodes, circle_weights(nodes, m))
            assert abs(res.value - ref) <= tol * max(1.0, abs(ref))
            if len(res.grids) == 1:
                assert abs(res.value - ref) <= \
                    res.err_estimate + res.lu_rounding


class TestKernelAlgebra:
    def test_sine_equals_v_minus_delta(self):
        spec, suite = suite_for("F4")
        ct = suite.rho
        s_det = fredholm.nystrom_det(fredholm.kernel_S(spec, 3), ct).value
        combo = fredholm.kernel_sum(
            [fredholm.kernel_V(spec, 3, suite.rho)] +
            [fredholm.kernel_W(spec, z, 3) for z in suite.zeros_inside()])
        v_det = fredholm.nystrom_det(combo, ct).value
        assert abs(s_det - v_det) / abs(s_det) < 1e-10

    def test_v_residue_route(self):
        spec, suite = suite_for("F4")
        kern_a = fredholm.kernel_V(spec, 2, suite.rho)
        kern_b = fredholm.kernel_V_residue(spec, 2, suite.zeros_inside())
        ct = suite.rho
        a = fredholm.nystrom_det(kern_a, ct).value
        b = fredholm.nystrom_det(kern_b, ct).value
        assert abs(a - b) / abs(a) < 1e-10

    def test_delta_residue_matches_split(self):
        spec, suite = suite_for("F4")
        nodes = circle_nodes(suite.rho, 256)[::16]
        weights = np.ones_like(nodes)
        d1 = kernel_Delta(suite, 2)
        d2 = kernel_Delta_residue(spec, 2, suite.zeros_inside())
        m1 = d1.matrix(nodes, weights)
        m2 = d2.matrix(nodes, weights)
        assert np.max(np.abs(m1 - m2)) < 1e-10

    def test_positive_winding_kernel(self):
        # F7 (winding +1) on the unit circle reproduces the oracle
        spec = symbols.fixture("F7")
        for x in (2, 4):
            det = fredholm.nystrom_det(kernel_Q(spec, x), 1.0).value
            assert abs(det - toeplitz.toeplitz_det(spec, x)) < 1e-9

    def test_q_kernel_zero_winding(self):
        spec = symbols.fixture("F1")
        det = fredholm.nystrom_det(kernel_Q(spec, 3), 1.0).value
        assert abs(det - 1.5 ** 3) < 1e-9


class TestOnePass:
    """Each fill evaluates the generators once, which form their pieces
    once."""

    def test_one_generator_pass_per_grid(self, monkeypatch):
        # a grid either side of Jacobi's identity takes is not filled, and
        # it reads the symbol once too: S and the residue form fill none
        # (at x = 64 the residue form's ladder 96, 128, 192 takes the
        # complementary side on its first two grids, the direct side's 66
        # columns on the third), the resolvent, with no grid form, every
        # grid
        sizes = []

        def counted(spec, q):
            sizes.append(np.size(q))
            return real(spec, q)

        real = symbols.eval_phi
        monkeypatch.setattr(symbols, "eval_phi", counted)
        spec, suite = suite_for("F4")
        for x in (3, 64):
            for kern in (fredholm.kernel_S(spec, x),
                         fredholm.kernel_V_residue(spec, x,
                                                   suite.zeros_inside()),
                         fredholm.resolvent_kernel(suite, x,
                                                   suite.b_split(x).plus)):
                passes = []

                def generators(q, inner=kern.generators):
                    passes.append(q.size)
                    return inner(q)

                kern.generators = generators
                sizes.clear()
                res = fredholm.nystrom_det(kern, suite.rho)
                assert passes == ([] if kern.form else list(res.grids))
                # theta's reach FFT samples 256 nodes
                assert [n for n in sizes if n != 256] == list(res.grids)

    def test_split_pieces_formed_once_per_fill(self, monkeypatch):
        # kernel_V's tail and its derivative are the minus part of its
        # split; the resolvent's b_plus is a plus part, and its Omega_lt
        # and Omega_gt are read from the roots, no split
        calls = collections.Counter()

        def counting(side):
            real = getattr(LaurentSplit, side)

            def wrapped(self, q, derivative=0):
                calls[side, derivative] += 1
                return real(self, q, derivative)
            return wrapped

        for side in ("plus", "minus"):
            monkeypatch.setattr(LaurentSplit, side, counting(side))
        spec, suite = suite_for("F4")
        nodes = circle_nodes(suite.rho, 40)
        weights = circle_weights(nodes, 40)
        for kern, want in (
                (fredholm.kernel_V(spec, 3, suite.rho),
                 {("minus", 0): 1, ("minus", 1): 1}),
                (fredholm.resolvent_kernel(suite, 3, suite.b_split(3).plus),
                 {("plus", 0): 1, ("plus", 1): 1})):
            calls.clear()
            kern.matrix(nodes, weights)
            assert calls == want

    def test_m_function_fills_once(self, monkeypatch):
        _, suite = suite_for("F4")
        fills = []
        real = fredholm.Kernel.matrix

        def counted(self, nodes, weights):
            fills.append(nodes.size)
            return real(self, nodes, weights)

        monkeypatch.setattr(fredholm.Kernel, "matrix", counted)
        # one diagonal pair, and probes on both sides of the circle
        k1 = suite.rho * np.array([0.4, 0.5j, 1.5, -0.7])
        k2 = suite.rho * np.array([1.3j, 0.6, -1.6, -0.7])
        a, b = fredholm.m_function(suite, 2, k1, k2)
        assert fills == [256]
        for i in range(k1.size):
            (ai,), (bi,) = fredholm.m_function(suite, 2, k1[i:i + 1],
                                               k2[i:i + 1])
            assert (ai, bi) == (a[i], b[i])


class TestResolvent:
    def test_inversion_identity(self):
        for name, x in (("F2", 2), ("F4", 3)):
            _, suite = suite_for(name)
            assert fredholm.resolvent_residual(suite, x) < 1e-8

    @pytest.mark.parametrize("name", ["F2", "F4"])
    def test_fixed_grids_refuse_x_past_them(self, name):
        # m_function's 256 nodes cannot hold x past them: its F4 gaps read
        # 2.2 and 6.3 at x = 255 and 300
        _, suite = suite_for(name)
        for x in (255, 300):
            with pytest.raises(errors.NotConverged):
                fredholm.m_function(suite, x, [0.5], [0.6])

    def test_residual_grid_follows_x(self, monkeypatch):
        # max(128, pow2_at_least(x + 2 a)) nodes, a theta's modes (F2's
        # 11 on its circle): 128 while x + 2 a fits, and NotConverged
        # before any fill where x + 2 a passes M_CAP
        _, suite = suite_for("F2")
        modes = fredholm._theta_reach(suite.spec, suite.rho).modes
        fills = []
        real = fredholm.Kernel.matrix

        def counted(self, nodes, weights):
            fills.append(nodes.size)
            return real(self, nodes, weights)

        monkeypatch.setattr(fredholm.Kernel, "matrix", counted)
        for x in (2, 128 - 2 * modes, 129 - 2 * modes, 200):
            fredholm.resolvent_residual(suite, x)
        assert fills == [128] * 4 + [256] * 4
        with pytest.raises(errors.NotConverged):
            fredholm.resolvent_residual(suite, fredholm.M_CAP)
        assert len(fills) == 8

    def test_m_function_dual_routes(self):
        _, suite = suite_for("F4")
        rng = np.random.default_rng(7)
        probes = []
        for _ in range(4):
            r = suite.rho * (0.3 + 0.5 * rng.random(2))
            probes.append(r * np.exp(2j * np.pi * rng.random(2)))
        a, b = fredholm.m_function(suite, 2, *np.transpose(probes))
        assert np.all(np.abs(a - b) / np.maximum(np.abs(b), 1e-30) < 1e-8)

    def test_m_function_diagonal(self):
        _, suite = suite_for("F2")
        k = 0.55 * np.exp(0.9j)
        (a,), (b,) = fredholm.m_function(suite, 2, [k], [k])
        assert abs(a - b) / abs(b) < 1e-8


class TestRankOne:
    @pytest.mark.parametrize("name,x", [("F2", 2), ("F6", 5)])
    def test_three_determinant_identity(self, name, x):
        res = asymptotics.rank_one_shift_identity(symbols.fixture(name), x)
        assert res["residual_difference"] < 1e-8
        assert res["residual_closed"] < 1e-8

    @pytest.mark.parametrize("name", ["F2", "F6"])
    @pytest.mark.parametrize("x", [8, 24, 32, 64])
    def test_holds_or_raises_past_verify(self, name, x):
        # F6's shifted determinant, V's residue form of -phi/q on its own
        # circle, reads at most 1.3e-14 (x = 64), where split V raised
        # NotConverged from x ~ 24; F2's, split V, holds to 1e-14 up to
        # x = 200 and may raise past that
        try:
            res = asymptotics.rank_one_shift_identity(symbols.fixture(name), x)
        except errors.DetlabError:
            assert name == "F2"
            return
        assert res["residual_difference"] < 1e-12
        assert res["residual_closed"] < 1e-12

    def test_sum_starts_at_the_margin_of_v(self, monkeypatch):
        # on F2 at x = 2 the rank-one part carries theta's reach, no wider
        # than V's, so the sum (V's two pairs and the rank-one part's two)
        # starts at V's margin where it took x + 32 nodes; neither V, whose
        # modes are sampled, nor the sum bounds what a grid folds, so both
        # run the same ladder
        ladders = []
        real = fredholm.nystrom_det

        def recorded(kernel, *args, **kwargs):
            res = real(kernel, *args, **kwargs)
            pairs = len(kernel.generators(circle_nodes(1.0, 4))[1])
            ladders.append((pairs, res.grids))
            return res

        monkeypatch.setattr(asymptotics, "nystrom_det", recorded)
        asymptotics.rank_one_shift_identity(symbols.fixture("F2"), 2)
        assert ladders[:2] == [(2, (24, 46)), (4, (24, 46))]

    @pytest.mark.parametrize("x", [1, 2, 5, 8])
    def test_shifted_weight_where_p_vanishes_at_0(self, x):
        # phi = q(q - 2)/(q - 0.5) has winding 0 and P(0) = 0, so the
        # shifted weight -phi/q is the symbol -(q - 2)/(q - 0.5), whose P
        # and Q share no root; its residuals read at most 1.4e-15
        spec = symbols.SymbolSpec(numer=(0, -2.0, 1.0), denom=(-0.5, 1.0))
        assert symbols.winding_number(spec) == 0
        res = asymptotics.rank_one_shift_identity(spec, x)
        assert res["residual_difference"] < 1e-13
        assert res["residual_closed"] < 1e-13

    @pytest.mark.parametrize("spec", [
        symbols.fixture("F0"), symbols.fixture("F2"), symbols.fixture("F6"),
        symbols.SymbolSpec(numer=(0, -2.0, 1.0), denom=(-0.5, 1.0))],
        ids=["F0", "F2", "F6", "P(0)=0"])
    def test_shifted_weight_is_minus_phi_over_q(self, spec):
        q = np.array([0.3 + 0.1j, 1.7 - 0.4j, -0.2 + 2.5j, 0.9j, 3.0])
        want = -symbols.eval_phi(spec, q) / q
        got = symbols.eval_phi(asymptotics._lowered(spec), q)
        assert np.all(np.abs(got - want) <= 4 * EPS * np.abs(want))

    def test_not_a_simple_zero_guard(self):
        # phi = (q - 1.3)^2 / q has a double zero: the rank-one residue
        # kernel must refuse it
        spec = symbols.from_json_dict(
            {"kind": "rational",
             "numer": [[1.69, 0.0], [-2.6, 0.0], [1.0, 0.0]],
             "denom": [[0.0, 0.0], [1.0, 0.0]]}, label="double-zero")
        with pytest.raises(errors.NotASimpleZero):
            fredholm.kernel_W(spec, 1.3, 2)

"""Integrable kernels, Nystrom determinants, resolvent, and dual routes."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from detlab import asymptotics, errors, fredholm, symbols, toeplitz
from detlab._series import LaurentSplit, circle_nodes, circle_weights
from detlab.cauchy import CauchySuite
from detlab.contours import deformed_contour, quadrature, unit_circle


def suite_for(name, x):
    spec = symbols.fixture(name)
    return spec, CauchySuite(spec, asymptotics.base_contour(spec), x)


def direct_fill(kernel, nodes, weights):
    """Entry-by-entry Nystrom matrix: the oracle for ``Kernel.matrix``."""
    a = kernel.a(nodes)
    vp, vm = kernel.vp(nodes), kernel.vm(nodes)
    num = vp[None, :] * vm[:, None] - vp[:, None] * vm[None, :]
    den = nodes[None, :] - nodes[:, None]
    np.fill_diagonal(den, 1.0)
    mat = num / den
    np.fill_diagonal(mat, kernel.dvp(nodes) * vm - vp * kernel.dvm(nodes))
    mat = a[:, None] * a[None, :] * mat / (2j * np.pi)
    return mat * weights[None, :]


def exp_kernel(al, be, ga):
    """a = e^(al q), vp = e^(be q), vm = e^(ga q): smooth on any circle."""
    return fredholm.Kernel(lambda q: np.exp(al * q), lambda q: np.exp(be * q),
                           lambda q: np.exp(ga * q),
                           lambda q: be * np.exp(be * q),
                           lambda q: ga * np.exp(ga * q), "exp")


def zero_kernel():
    """K = 0 with no bandwidth: det(1 + K) = 1 on the first two grids."""
    def zero(q):
        return np.zeros(np.shape(q), dtype=complex)

    return fredholm.SeparableKernel(zero, zero, 0.0, "zero")


def kernel_Delta(suite: CauchySuite) -> fredholm.Kernel:
    """Difference V - (conjugated S): only the transform part of w survives,
    vp = q^{-x/2} tail and vm = q^{-x/2}."""
    x, tail = suite.x, suite.w_split.minus

    def hm(q):
        return np.asarray(q, dtype=complex) ** (-x / 2.0)

    return fredholm.Kernel(
        lambda q: np.sqrt(symbols.eval_theta(suite.spec, q)),
        lambda q: hm(q) * tail(q), hm,
        lambda q: hm(q) * (tail(q, 1) - (x / 2.0) * tail(q) / q),
        lambda q: (-x / 2.0) * hm(q) / q, "Delta", x)


def kernel_Delta_residue(spec, x, zeros_inside) -> fredholm.SumKernel:
    """Same difference as a residue sum of rank-one kernels."""
    return fredholm.SumKernel(
        [_negated(fredholm.kernel_W(spec, z, x)) for z in zeros_inside],
        "Delta")


def _negated(k: fredholm.SeparableKernel) -> fredholm.SeparableKernel:
    return fredholm.SeparableKernel(k.u, k.v, -k.c, k.label, k.x)


def kernel_Q(spec, x) -> fredholm.Kernel:
    """Unit-circle kernel for nonnegative winding."""
    nodes = circle_nodes(1.0, 512)
    tvals = symbols.eval_theta(spec, nodes)
    split = LaurentSplit(nodes ** (-x) * tvals / (1.0 + tvals), 1.0)
    hp = fredholm._halfpow(x)

    def wt(q):
        q = np.asarray(q, dtype=complex)
        return q ** (-x) - split.plus(q)

    def dwt(q):
        q = np.asarray(q, dtype=complex)
        return -x * q ** (-x - 1) - split.plus(q, 1)

    def vm(q):
        return hp(q) * wt(q)

    def dvm(q):
        return hp(q) * (dwt(q) + (x / 2.0) * wt(q) / q)

    return fredholm.Kernel(fredholm._sqrt_theta(spec), hp, vm,
                           lambda q: (x / 2.0) * hp(q) / q, dvm, "Q", x)


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


coeff = st.complex_numbers(max_magnitude=1.5)


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
        nodes = circle_nodes(radius, n, center)
        assert_fill_matches(exp_kernel(al, be, ga), nodes,
                            circle_weights(nodes, n, center))

    def test_deformed_contour(self):
        spec = symbols.fixture("F4")
        ct = deformed_contour(asymptotics.base_contour(spec), [0.3], [],
                              symbols.analyze(spec))
        quad = quadrature(ct, 128)
        assert len(ct.components) == 2
        assert_fill_matches(fredholm.kernel_S(spec, 5), quad.nodes,
                            quad.weights)

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
        kern = fredholm.kernel_V_from_theta(
            lambda q: symbols.eval_theta(spec, q), 32)
        quad = quadrature(unit_circle(), 1024)
        got = kern.matrix(quad.nodes, quad.weights)
        ld = np.clongdouble
        q, w, a, vp, vm = (np.asarray(v, dtype=ld) for v in (
            quad.nodes, quad.weights, kern.a(quad.nodes),
            kern.vp(quad.nodes), kern.vm(quad.nodes)))
        gaps = q[None, :] - q[:, None]
        np.fill_diagonal(gaps, 1.0)
        outer = a[:, None] * a[None, :] * w[None, :] / (2j * np.pi * gaps)
        want = outer * (vp[None, :] * vm[:, None] - vp[:, None] * vm[None, :])
        scale = np.abs(outer) * (np.abs(vp[None, :] * vm[:, None]) +
                                 np.abs(vp[:, None] * vm[None, :]))
        np.fill_diagonal(scale, np.inf)
        err = np.abs(got.astype(ld) - want) / scale
        assert float(err.max()) <= 5 * np.finfo(float).eps

    @pytest.mark.parametrize("x", [64, 128])
    def test_determinant_keeps_digits(self, x):
        # against the correction series to 1e-12; with the exact grid's
        # gaps next to the diagonal the drift was ~1e-11 at x = 128
        spec = symbols.fixture("F4")
        det = fredholm.nystrom_det(fredholm.kernel_S(spec, x),
                                   asymptotics.base_contour(spec)).value
        assert abs(det / asymptotics.slavnov_series(spec, x) - 1) < 1e-12

    @pytest.mark.parametrize("name,m_used", [
        ("F1", (66, 72, 128)), ("F2", (66, 72, 128)),
        ("F3", (66, 72, 128)), ("F4", (66, 72, 128))])
    def test_doubling_history_pinned(self, name, m_used):
        # grids of x + 32, x + 64 nodes: the first pair above the bandwidth
        spec = symbols.fixture(name)
        ct = asymptotics.base_contour(spec)
        got = tuple(fredholm.nystrom_det(fredholm.kernel_S(spec, x), ct).m_used
                    for x in (2, 8, 64))
        assert got == m_used


class TestNystrom:
    def test_zero_kernel(self):
        res = fredholm.nystrom_det(zero_kernel(), unit_circle())
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
        # grids 35 and 67 leave a drift past 1e-15, and 131 passes the cap
        spec = symbols.fixture("F4")
        with pytest.raises(errors.NotConverged, match="drift .* at m=67"):
            fredholm.nystrom_det(fredholm.kernel_S(spec, 3),
                                 asymptotics.base_contour(spec),
                                 tol=1e-15, m_cap=3 + 64)

    def test_bandwidth_past_cap_raises_before_fill(self, monkeypatch):
        # every grid of at most 1024 nodes aliases q^{+-512}
        def no_fill(*args):
            raise AssertionError("filled a grid that cannot converge")

        monkeypatch.setattr(fredholm.Kernel, "matrix", no_fill)
        spec = symbols.fixture("F1")
        with pytest.raises(errors.NotConverged, match="1088"):
            fredholm.nystrom_det(fredholm.kernel_S(spec, 1024),
                                 asymptotics.base_contour(spec), m_cap=1024)

    def test_f4_at_x_512(self):
        # doubling from 32 reached m_cap = 1024 here and raised
        spec = symbols.fixture("F4")
        res = fredholm.nystrom_det(fredholm.kernel_S(spec, 512),
                                   asymptotics.base_contour(spec))
        assert res.m_used == 512 + 64
        slav = asymptotics.slavnov_series(spec, 512)
        assert abs(res.value / slav - 1) < 1e-10

    def test_sum_kernel_takes_widest_part(self):
        spec, suite = suite_for("F4", 6)
        parts = [zero_kernel(), fredholm.kernel_V(suite)] + \
            [fredholm.kernel_W(spec, z, 6) for z in suite.zeros_inside()]
        assert [k.x for k in parts] == [0] + [6] * (len(parts) - 1)
        assert fredholm.SumKernel(parts, "sum").x == 6
        assert kernel_Delta_residue(
            spec, 6, suite.zeros_inside()).x == 6

    @settings(max_examples=25, deadline=None)
    @given(spec=rational_symbols(), x=st.integers(1, 300))
    def test_grids_start_above_bandwidth(self, spec, x):
        res = fredholm.nystrom_det(fredholm.kernel_S(spec, x),
                                   asymptotics.base_contour(spec))
        assert res.m_used >= x + 32
        truth = toeplitz.toeplitz_det(spec, x)
        assert abs(res.value / truth - 1) < 1e-8

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
        d1 = kernel_Delta(suite)
        d2 = kernel_Delta_residue(spec, 2, suite.zeros_inside())
        m1 = d1.matrix(nodes, weights)
        m2 = d2.matrix(nodes, weights)
        assert np.max(np.abs(m1 - m2)) < 1e-10

    def test_positive_winding_kernel(self):
        # F7 (winding +1) on the unit circle reproduces the oracle
        spec = symbols.fixture("F7")
        for x in (2, 4):
            det = fredholm.nystrom_det(kernel_Q(spec, x),
                                       unit_circle()).value
            assert abs(det - toeplitz.toeplitz_det(spec, x)) < 1e-9

    def test_q_kernel_zero_winding(self):
        spec = symbols.fixture("F1")
        det = fredholm.nystrom_det(kernel_Q(spec, 3),
                                   unit_circle()).value
        assert abs(det - 1.5 ** 3) < 1e-9


class TestResolvent:
    def test_inversion_identity(self):
        for name, x in (("F2", 2), ("F4", 3)):
            _, suite = suite_for(name, x)
            assert fredholm.resolvent_residual(suite) < 1e-8

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

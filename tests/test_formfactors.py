"""Finite-size root systems and the discrete sum over excited subsets.

``form_factor`` and ``enumerated_sum`` are the small-L oracle: the sum taken
term by term over all C(L, N) subsets, against which the closed forms of
``tau_eff_finite`` are checked.
"""

import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import (assume, example, given, reject, settings,
                        strategies as st)

from detlab import asymptotics, errors, formfactors, symbols, toeplitz
from detlab._series import pow2_at_least
from detlab.formfactors import (LADDER_M0, RESIDUAL_TOL, ROW_BLOCK,
                                _chosen_indices, _log1p, _log_row_ratios,
                                _min_distance, _pair_windows, _torus_ladder,
                                solve_shifted, tau_eff_finite)

EPS = np.finfo(float).eps


def phase_slope(spec, p, L):
    """u = p phi'(p)/(L phi(p)) by a fresh evaluation: the reference for
    ``RootSystem.slope``, which Newton's last step leaves."""
    return p * symbols.eval_log_phi(spec, p)[1] / L


class SizeMismatch(ValueError):
    """Subset of the wrong size given to ``form_factor``."""


def form_factor(system, q_subset) -> complex:
    """Squared overlap of the shifted roots with an N-point unshifted subset.

    Evaluated as a sum of logarithms and exponentiated once at the end; the
    value is symmetric in the subset ordering.
    """
    q = np.asarray(q_subset, dtype=complex)
    if q.shape != (system.N,):
        raise SizeMismatch(
            f"subset size {q.size} != number of shifted roots {system.N}")
    spec, L, p = system.spec, system.L, system.p_roots
    # a root that sits on a grid point of the subset, where theta vanishes,
    # pairs off with it: its own factors over the pair's squared Cauchy
    # entry tend to 1, and every other factor that holds either cancels
    on = p[:, None] == q[None, :]
    p, q = p[~on.any(axis=1)], q[~on.any(axis=0)]

    theta_q = symbols.eval_theta(spec, q)
    theta_p = symbols.eval_theta(spec, p)
    if np.any(theta_q == 0) or np.any(theta_p == 0):
        return 0.0 + 0.0j
    dens = 1.0 + phase_slope(spec, p, L)

    log_total = -2.0 * p.size * np.log(float(L))
    log_total += np.sum(np.log(p) + np.log(q) + np.log(theta_q) +
                        np.log(theta_p) - np.log(1.0 + theta_q) - np.log(dens))
    iu = np.triu_indices(p.size, k=1)
    log_total += 2.0 * np.sum(np.log(p[iu[1]] - p[iu[0]]))
    log_total += 2.0 * np.sum(np.log(q[iu[1]] - q[iu[0]]))
    log_total -= 2.0 * np.sum(np.log(p[:, None] - q[None, :]))
    return complex(np.exp(log_total))


# phi = 0.5 (q - 0.2)(1 - q/1.5)/q, zero winding, phi(-1) = 1
THETA_ZERO_AT_MINUS_ONE = (-0.1, 0.5666666666666667, -0.3333333333333333)


def enumerated_sum(spec, L, N, x) -> complex:
    """Sum over N-subsets of the unshifted grid of |overlap|^2 prod (q/p)^x,
    term by term, with compensated summation; the coincident subset of a
    trivial symbol contributes 1 (``form_factor``)."""
    system = solve_shifted(spec, L, N)
    p = system.p_roots
    total = 0.0 + 0.0j
    comp = 0.0 + 0.0j
    for combo in itertools.combinations(range(L), system.N):
        q = system.q_roots[list(combo)]
        term = form_factor(system, q) * complex(np.prod((q / p) ** x))
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return complex(total)


def row_major_ratios(offsets, q) -> complex:
    """``_log_row_ratios`` with each block held row-major, one buffer row per
    window row: the same operations on the same operands in the same order,
    so the oracle for its values bit for bit."""
    n = q.size
    half = n // 2
    d_win, q_win = _pair_windows(offsets), _pair_windows(q)
    y = np.zeros((ROW_BLOCK, pow2_at_least(half)), dtype=complex)
    rows = np.empty(n, dtype=complex)
    for start in range(0, n, ROW_BLOCK):
        stop = min(start + ROW_BLOCK, n)
        r = stop - start
        block = y[:r, :half]
        block[:] = ((d_win[start:stop] - offsets[start:stop, None]) /
                    (q_win[start:stop] - q[start:stop, None]))
        if n % 2 == 0 and stop > half:
            block[max(half - start, 0):, half - 1] = 0.0
        width = y.shape[1]
        while width > 1:
            width //= 2
            a, b = y[:r, :width], y[:r, width:2 * width]
            ab = a * b
            a += b
            a += ab
        rows[start:stop] = y[:r, 0]
    return 2.0 * np.sum(_log1p(rows))


def at_block_edges(test):
    """Explicit examples at n = ROW_BLOCK, 2 ROW_BLOCK and their odd and even
    neighbours, where the duplicated k = n/2 pairs start at a block edge or
    next to one."""
    for base in (ROW_BLOCK, 2 * ROW_BLOCK):
        for n in range(base - 2, base + 3):
            test = example(n=n, scale=0.3, seed=n)(test)
    return test


@st.composite
def banded_symbols(draw):
    """phi(q) = c prod (1 - q/w_k) prod (1 - z_k/q): zeros z_k with modulus
    in [0.2, 0.4], w_k in [2.5, 4], so phi stays near c on the unit circle."""
    def zero(lo, hi):
        r = draw(st.floats(lo, hi))
        a = draw(st.floats(0.0, 2.0 * np.pi))
        return r * np.exp(1j * a)

    inner = [zero(0.2, 0.4) for _ in range(draw(st.integers(0, 2)))]
    outer = [zero(2.5, 4.0) for _ in range(draw(st.integers(0, 2)))]
    c = draw(st.floats(0.5, 2.0))
    numer = np.polynomial.polynomial.polyfromroots(inner + outer)
    numer = c * numer / np.prod([-w for w in outer])
    denom = [0.0] * len(inner) + [1.0]
    return symbols.SymbolSpec("rational", tuple(numer), tuple(denom))


@st.composite
def sector_symbols(draw):
    """phi(q) = c prod (q - z) prod (1 - q/w) / q^m of winding -2..0: zeros
    z with modulus in two bands inside [0.2, 0.7], at least |winding| zeros
    w in bands inside [1.5, 4], so zero moduli stay apart and at least 0.3
    from the circle."""
    def zero(lo, hi):
        return draw(st.floats(lo, hi)) * np.exp(1j * draw(st.floats(0, 6.3)))

    winding = draw(st.integers(-2, 0))
    inner = [zero(lo, hi) for lo, hi in ((0.2, 0.35), (0.5, 0.7))
             if draw(st.booleans())]
    bands = ((1.5, 1.7), (2.2, 2.9), (3.1, 4.0))
    count = draw(st.integers(-winding, 3))
    outer = [zero(lo, hi) for lo, hi in bands[:count]]
    numer = np.polynomial.polynomial.polyfromroots(inner + outer)
    numer = draw(st.floats(0.5, 2.0)) * numer / np.prod([-w for w in outer])
    denom = [0.0] * (len(inner) - winding) + [1.0]
    return symbols.SymbolSpec("rational", tuple(numer), tuple(denom))


@st.composite
def positive_winding_symbols(draw):
    """phi(q) = c prod (q - z) prod (1 - q/w) / q^m of winding 1..2: 2-3
    zeros z inside [0.2, 0.7], m = |z| - winding poles at the origin, and
    0-2 zeros w in [1.5, 4]."""
    def zero(lo, hi):
        return draw(st.floats(lo, hi)) * np.exp(1j * draw(st.floats(0, 6.3)))

    inner = [zero(lo, hi) for lo, hi in ((0.2, 0.3), (0.4, 0.5), (0.6, 0.7))]
    inner = inner[:draw(st.integers(2, 3))]
    winding = draw(st.integers(1, 2))
    outer = [zero(lo, hi) for lo, hi in ((1.5, 2.0), (2.5, 4.0))]
    outer = outer[:draw(st.integers(0, 2))]
    numer = np.polynomial.polynomial.polyfromroots(inner + outer)
    numer = draw(st.floats(0.5, 2.0)) * numer / np.prod([-w for w in outer])
    denom = [0.0] * (len(inner) - winding) + [1.0]
    return symbols.SymbolSpec("rational", tuple(numer), tuple(denom))


class TestRoots:
    def test_trivial_symbol_roots_coincide(self):
        spec = symbols.fixture("F0")
        sys = solve_shifted(spec, L=8, N=4)
        assert np.max(np.abs(sys.p_roots - sys.q_roots[sys.indices])) < 1e-12

    def test_constant_symbol_radius(self):
        # p^L (1 + 0.5) = 1 so |p| = 1.5^{-1/L}
        sys = solve_shifted(symbols.fixture("F1"), L=8, N=4)
        assert np.max(np.abs(np.abs(sys.p_roots) - 1.5 ** (-1 / 8))) < 1e-12

    def test_offsets_are_root_displacements(self):
        sys = solve_shifted(symbols.fixture("F2"), L=10, N=5)
        assert np.array_equal(sys.p_roots,
                              sys.q_roots[sys.indices] + sys.offsets)
        assert not np.any(solve_shifted(symbols.fixture("F0"), 8).offsets)

    def test_residuals_small(self):
        sys = solve_shifted(symbols.fixture("F2"), L=10, N=5)
        assert np.max(sys.residuals) < 1e-12

    def test_roots_distinct(self):
        sys = solve_shifted(symbols.fixture("F2"), L=12, N=6)
        p = sys.p_roots
        gaps = np.abs(p[:, None] - p[None, :])[np.triu_indices(len(p), 1)]
        assert gaps.min() > 1e-6

    @pytest.mark.parametrize("name,roots", [("F3", 15), ("F5", 14),
                                            ("F6", 16), ("F7", 17)])
    def test_one_root_per_cell(self, name, roots):
        # L + w roots by default, the winding sector of each fixture
        sys = solve_shifted(symbols.fixture(name), L=16)
        assert sys.N == roots and len(sys.p_roots) == roots
        assert np.max(sys.residuals) < 1e-12

    def test_zero_near_circle_raises(self):
        # phi = 1 - q/1.05: Z' = L - 1/0.05 < 0 near theta = 0 at L = 8,
        # so the L roots are not one per cell of Z there
        spec = symbols.SymbolSpec("rational", (1.0, -1.0 / 1.05), (1.0,))
        with pytest.raises(errors.NewtonDiverged):
            solve_shifted(spec, L=8)

    def test_root_leaving_its_cell_raises(self):
        # F5 at L = 6: Newton from the start of cell 0 lands in cell -2, a
        # root no other start claims at N = 1, so only the cell test sees it
        with pytest.raises(errors.NewtonDiverged, match="k = 0 has Z/2pi"):
            solve_shifted(symbols.fixture("F5"), L=6, N=1)

    @pytest.mark.parametrize("L", [256, 512, 1024, 2048, 4096])
    def test_start_past_a_zero_near_the_circle(self, L):
        # phi = 1 - q/1.02: phi(1) = 0.02, so the start q phi(q)^(-1/L)
        # overshoots the zero at L = 256 and Newton runs off; that raises
        # (without an overflow warning, which pytest would turn into an
        # error).  From L = 512 the start falls short of the zero and every
        # root converges
        spec = symbols.SymbolSpec("rational", (1.0, -1.0 / 1.02), (1.0,))
        if L == 256:
            with pytest.raises(errors.NewtonDiverged, match="converge"):
                solve_shifted(spec, L)
        else:
            assert np.max(solve_shifted(spec, L).residuals) <= RESIDUAL_TOL

    @pytest.mark.parametrize("angle", [0.0, 0.5, 2.0, 3.0])
    def test_rotated_zero_near_the_circle(self, angle):
        # phi = 2 (1 - q/z), |z| = 1.02: every root converges at L = 1024
        z = 1.02 * np.exp(1j * angle)
        spec = symbols.SymbolSpec("rational", (2.0, -2.0 / z), (1.0,))
        assert np.max(solve_shifted(spec, 1024).residuals) <= RESIDUAL_TOL

    @pytest.mark.parametrize("L", [12, 256, 1024, 4096])
    def test_constant_symbol_takes_one_step(self, monkeypatch, L):
        # the start q phi(q)^(-1/L) is the root when phi is constant: one
        # Newton step, to a size below NEWTON_TOL, confirms it
        calls = []
        real = symbols.eval_log_phi
        monkeypatch.setattr(symbols, "eval_log_phi",
                            lambda spec, q: calls.append(1) or real(spec, q))
        solve_shifted(symbols.fixture("F1"), L)
        assert len(calls) == 2      # the start, and after the one step

    @pytest.mark.parametrize("name", ["F3", "F6"])
    @pytest.mark.parametrize("L", [8, 12, 16, 17, 64, 255, 256, 1024])
    def test_branch_anchored_at_principal_value(self, name, L):
        # phi(1) < 0 (F3: -0.36, F6: -0.5): arg phi(1) = +pi, the principal
        # value, so Z(0) = pi and the root of cell 0 lies half a cell or
        # so clockwise of q = 1, at every L, whichever way the unwrapped
        # phase rounds at theta = 0
        system = solve_shifted(symbols.fixture(name), L)
        p0 = system.p_roots[system.indices == 0][0]
        assert -1.0 < np.angle(p0) * L / (2.0 * np.pi) < 0.0

    @pytest.mark.parametrize("L", [4, 5, 1023, 1024])
    def test_grid_is_conjugate_symmetric(self, L):
        # built from indices folded to -L/2 < j <= L/2: q_{L-j} = conj(q_j)
        # bit for bit, so the phases of a sum over the grid cancel (but for
        # q_{L/2} ~ -1 at even L, its own partner)
        q = solve_shifted(symbols.fixture("F2"), L).q_roots
        j = np.arange(1, (L + 1) // 2)
        assert np.array_equal(q[L - j], np.conj(q[j]))
        assert q[0] == 1.0

    @pytest.mark.parametrize("L", [*range(1, 70), 1023, 1024, 4096, 4097])
    def test_chosen_indices_by_sorted_angles(self, L):
        # the closed form against its definition: the N grid points of
        # smallest rounded |angle|, ties to the lower index (stable sort)
        ang = np.abs(np.angle(np.exp(2j * np.pi * np.arange(L) / L)))
        order = np.argsort(ang, kind="stable")
        for N in sorted({L // 2, L // 2 + 1, L - 1, L} - {0} |
                        set(range(1, min(L, 70) + 1))):
            j = np.sort(order[:N])
            assert np.array_equal(_chosen_indices(L, N),
                                  np.where(2 * j <= L, j, j - L))

    def test_falling_counting_function_raises(self):
        # zeros at 1.02 and 1.03 turn arg phi by ~-2.9 between the nodes
        # theta = -pi/16 and 0 at L = 8, more than L theta gains there
        numer = np.polynomial.polynomial.polyfromroots([1.02, 1.03])
        spec = symbols.SymbolSpec("rational", tuple(numer / 1.0506), (1.0,))
        with pytest.raises(errors.NewtonDiverged, match="Z falls"):
            solve_shifted(spec, L=8)

    @pytest.mark.parametrize("name", ["F1", "F2", "F3", "F4", "F5", "F6"])
    def test_sizes_each_fixture_works_from(self, name):
        # below L ~ 12 the root of a zero outside the circle (F4 has zeros
        # 1.4 and 2.2, F5 1.5 and 1.9) reaches the others, so the cells of
        # Z do not hold one root each: ``_check_zero_roots`` raises there,
        # as does Newton at F4 6 and F5 6 and 11, and Z's sample at F5 4.
        # F3's zero at 1.6 still may at L = 4.  Every other size works, F4
        # from L = 11 and F5 from L = 12
        failing = {"F3": [4], "F4": list(range(4, 11)),
                   "F5": list(range(4, 12))}.get(name, [])
        spec = symbols.fixture(name)
        fails = []
        for L in [*range(4, 41), 64, 199, 256, 257, 511, 512, 1023, 1024]:
            try:
                solve_shifted(spec, L)
            except errors.NewtonDiverged:
                fails.append(L)
        assert fails == failing

    @pytest.mark.parametrize("N", [0, 16])
    def test_sector_bounds_N(self, N):
        # F3 has winding -1: L + w = 15 roots
        with pytest.raises(errors.InputError, match="L \\+ w = 15"):
            solve_shifted(symbols.fixture("F3"), L=16, N=N)
        with pytest.raises(errors.InputError, match="L \\+ w = 15"):
            tau_eff_finite(symbols.fixture("F3"), 16, N, 2)

    def test_blocked_min_distance(self):
        rng = np.random.default_rng(3)
        p = rng.standard_normal(2 * ROW_BLOCK + 5) + \
            1j * rng.standard_normal(2 * ROW_BLOCK + 5)
        p[-1] = p[ROW_BLOCK // 2] + 1e-9      # closest pair across blocks
        dist = np.abs(p[:, None] - p[None, :])
        np.fill_diagonal(dist, np.inf)
        assert _min_distance(p, p.size, np.inf) == dist.min()
        assert _min_distance(p[:1], 1, np.inf) == np.inf

    @pytest.mark.parametrize("n", [2, 3])
    def test_min_distance_of_few_points(self, n):
        p = np.array([0.0, 1e-3, 2.5j][:n])
        assert _min_distance(p, p.size, np.inf) == 1e-3

    @pytest.mark.parametrize("n", [2 * ROW_BLOCK + 6, 2 * ROW_BLOCK + 7])
    @pytest.mark.parametrize("shift", [-1, 0, 1])
    @pytest.mark.parametrize("i", [0, ROW_BLOCK - 1, ROW_BLOCK + 3])
    def test_min_distance_across_the_window(self, n, shift, i):
        # the closest pair at cyclic distance n//2 + shift: the last column
        # of the pair windows and its neighbours, from rows in every block;
        # the moved root's spread keeps the bounded scan from stopping early
        grid = np.exp(2j * np.pi * np.arange(n) / n)
        p = grid.copy()
        j = (i + n // 2 + shift) % n
        p[j] = p[i] + 1e-9
        dist = np.abs(p[:, None] - p[None, :])
        np.fill_diagonal(dist, np.inf)
        spread = np.max(np.abs(p - grid))
        assert _min_distance(p, n, spread) == \
            _min_distance(p, n, np.inf) == dist.min() == abs(p[j] - p[i])

    @pytest.mark.parametrize("L,N", [(40, 25), (41, 30), (2 * ROW_BLOCK + 7,
                                                           2 * ROW_BLOCK)])
    @pytest.mark.parametrize("pair", ["wrap", "gap", "middle"])
    def test_min_distance_of_a_sector(self, L, N, pair):
        # N < L cells of _chosen_indices: the array runs k = 0 .. k_max,
        # then jumps across the L - N cells left out to k_min .. -1, so
        # array neighbours at the jump lie far apart; the closest pair is
        # squeezed to half a cell across the array's end ("wrap"), just
        # before the jump ("gap") or inside the first run ("middle")
        k = _chosen_indices(L, N)
        rng = np.random.default_rng([L, N])
        grid = np.exp(2j * np.pi * k / L)
        p = grid + 0.05 / L * np.exp(2j * np.pi * rng.random(N))
        top = int(np.argmax(k))
        a = {"wrap": N - 1, "gap": top - 1, "middle": N // 4}[pair]
        b = (a + 1) % N
        p[b] = 0.5 * (p[a] + p[b])
        dist = np.abs(p[:, None] - p[None, :])
        np.fill_diagonal(dist, np.inf)
        spread = np.max(np.abs(p - grid))
        with mock.patch.object(np, "subtract", wraps=np.subtract) as cols:
            got = _min_distance(p, L, spread)
        assert got == _min_distance(p, L, np.inf) == dist.min() == dist[a, b]
        # half a cell apart, with spread a quarter cell: the bound passes
        # the minimum at cyclic array distance 2 or 3
        assert cols.call_count <= 2

    @pytest.mark.parametrize("name", ["F1", "F2"])
    @pytest.mark.parametrize("L", [256, 1024])
    def test_bounded_scan_of_shifted_roots(self, name, L):
        system = solve_shifted(symbols.fixture(name), L)
        spread = np.max(np.abs(system.offsets))
        assert _min_distance(system.p_roots, L, spread) == \
            _min_distance(system.p_roots, L, np.inf)

    @settings(max_examples=60, deadline=None)
    @given(n=st.sampled_from([2, 3, 4, 5, ROW_BLOCK - 2, ROW_BLOCK - 1,
                              ROW_BLOCK, ROW_BLOCK + 1, ROW_BLOCK + 2,
                              2 * ROW_BLOCK - 2, 2 * ROW_BLOCK - 1,
                              2 * ROW_BLOCK, 2 * ROW_BLOCK + 1,
                              2 * ROW_BLOCK + 2]),
           scale=st.sampled_from([1e-12, 1e-6, 0.3]),
           seed=st.integers(0, 2 ** 32 - 1))
    @at_block_edges
    def test_row_ratios_match_ordered_pairs(self, n, scale, seed):
        # offsets on permuted roots of unity against the sum over every
        # ordered pair, modulo 2 pi i; |offsets| ~ scale/n, so scale 1e-12
        # tests near-trivial offsets at relative precision.  The row-major
        # reduction gives the same value bit for bit
        rng = np.random.default_rng(seed)
        q = np.exp(2j * np.pi * rng.permutation(n) / n)
        offsets = scale / n * (rng.standard_normal(n) +
                               1j * rng.standard_normal(n))
        den = q[None, :] - q[:, None]
        np.fill_diagonal(den, 1.0)
        y = (offsets[None, :] - offsets[:, None]) / den
        value = _log_row_ratios(offsets, q)
        assert value == row_major_ratios(offsets, q)
        gap = value - np.sum(_log1p(y))
        gap -= 2j * np.pi * np.round(gap.imag / (2.0 * np.pi))
        assert abs(gap) <= 8 * np.finfo(float).eps * np.sum(np.abs(y))

    @pytest.mark.parametrize("name", ["F1", "F2", "F6"])
    @pytest.mark.parametrize("L", [64, 256, 1024])
    def test_row_ratios_match_row_major_reduction(self, name, L):
        system = solve_shifted(symbols.fixture(name), L, L)
        q = system.q_roots[system.indices]
        assert _log_row_ratios(system.offsets, q) == \
            row_major_ratios(system.offsets, q)


def polynomial_roots_sum(spec, L, x) -> complex:
    """``tau_eff_finite`` over the roots of p^L P(p) - Q(p), phi = P/Q with
    Q = q^m, from ``polyroots``: all of them but the m at the origin and,
    for each zero of phi outside the circle, its own root, the one nearest
    it.  Neither Newton nor the cells of Z place them; each is paired with
    a grid point in angle order, and the pair sum is the exact one."""
    denom = np.array(spec.denom, dtype=complex)
    m = int(np.flatnonzero(denom)[0])
    assert np.array_equal(denom, np.eye(m + 1)[m])
    poly = np.polynomial.polynomial.polysub(
        np.concatenate([np.zeros(L), spec.numer]), denom)
    p = np.polynomial.polynomial.polyroots(poly[m:])
    for z in symbols.analyze(spec).zeros:
        if abs(z) > 1.0:
            p = np.delete(p, np.argmin(np.abs(p - z)))
    assert p.size == L + symbols.winding_number(spec)
    p = p[np.argsort(np.angle(p))]
    first = int(np.round(np.angle(p[0]) * L / (2.0 * np.pi)))
    indices = (first + np.arange(p.size)) % L
    q_roots = np.exp(2j * np.pi * np.arange(L) / L)
    system = formfactors.RootSystem(
        spec=spec, L=L, N=p.size, q_roots=q_roots, indices=indices,
        p_roots=p, offsets=p - q_roots[indices], residuals=np.zeros(p.size),
        slope=phase_slope(spec, p, L))
    with mock.patch.object(formfactors, "solve_shifted",
                           lambda *args: system), \
            mock.patch.object(formfactors, "_torus_ladder",
                              lambda *args: None):
        return tau_eff_finite(spec, L, None, x)


def zero_winding_draws():
    """Zero-winding draws of ``two_sided_symbols`` and ``banded_symbols``;
    for ``st.deferred``, as test_asymptotics imports this module."""
    from test_asymptotics import two_sided_symbols
    return st.one_of(two_sided_symbols(negative=False), banded_symbols())


def ladder_inputs(spec, L):
    """(offsets, grid, slope) that ``tau_eff_finite`` hands the ladder at
    N = L."""
    system = solve_shifted(spec, L, L)
    return (system.offsets, system.q_roots[system.indices],
            phase_slope(spec, system.p_roots, L))


def log_gap(a, b) -> float:
    """|a - b| for logarithms, the imaginary part taken modulo 2 pi (as in
    test_toeplitz, which imports this module through test_asymptotics)."""
    d = complex(a) - complex(b)
    return abs(complex(d.real, (d.imag + np.pi) % (2 * np.pi) - np.pi))


@pytest.fixture
def ladder_grids(monkeypatch):
    """The node counts of the torus grids the ladder sums, in order."""
    grids = []
    real = formfactors._torus_sum

    def counted(d, e):
        grids.append(d.size)
        return real(d, e)

    monkeypatch.setattr(formfactors, "_torus_sum", counted)
    return grids


class TestTorusLadder:
    """The N = L pair sum at zero winding by ``_torus_ladder``: an exact
    linear part plus the trapezoid rule on coarse torus grids."""

    @settings(max_examples=40, deadline=None)
    @given(spec=st.deferred(zero_winding_draws),
           L=st.sampled_from([128, 257, 1023, 1024, 2048]))
    def test_matches_row_ratios(self, spec, L):
        # One unit is eps L max(1, sum_j |delta_j|): each side rounds at
        # eps times its size, at most (L - 1) sum_j |delta_j| for the
        # linear part that dominates it, and the ladder stops once two
        # grids agree within one unit, its truncation error then far
        # below it.  On 400 scratch draws the gap read at most 1.04 units.
        # Below the crossover (L = 128) and where no two grids within the
        # budget agree the ladder hands the sum back
        assume(symbols.winding_number(spec) == 0)
        try:
            delta, q, slope = ladder_inputs(spec, L)
        except errors.NewtonDiverged:
            reject()  # no root system at this size: nothing to sum
        got = _torus_ladder(delta, q, slope)
        if L * L < 20 * LADDER_M0 ** 2:
            assert got is None
        if got is not None:
            unit = EPS * L * max(1.0, np.sum(np.abs(delta)))
            assert log_gap(got, _log_row_ratios(delta, q)) <= 4 * unit

    @pytest.mark.parametrize("L", [144, 255, 512])
    def test_linear_part_in_closed_form(self, monkeypatch, L):
        # sum_{i != j} y_ij = (L - 1) sum_j delta_j/q_j for any offsets, by
        # sum_{i != j} 1/(q_j - q_i) = (L - 1)/(2 q_j) on the roots of
        # unity: with log(1 + y) replaced by y the rest vanishes on every
        # grid, and the ladder returns its linear part alone
        monkeypatch.setattr(formfactors, "_log1p", lambda z: z)
        rng = np.random.default_rng(L)
        delta = (rng.standard_normal(L) + 1j * rng.standard_normal(L)) / L
        q = np.exp(2j * np.pi * np.arange(L) / L)
        den = q[None, :] - q[:, None]
        np.fill_diagonal(den, 1.0)
        y = (delta[None, :] - delta[:, None]) / den
        got = _torus_ladder(delta, q, np.zeros(L))
        assert abs(got - np.sum(y)) <= 8 * EPS * np.sum(np.abs(y))

    @pytest.mark.parametrize("name, L, grids", [
        ("F2", 143, []), ("F2", 144, [32, 64]), ("F2", 1023, [32, 64]),
        ("F2", 4096, [32, 64]), ("F6", 256, [32, 64]),
        ("F6", 512, [32, 64, 128]), ("F6", 1023, [32, 64, 128])])
    def test_grids_pinned(self, ladder_grids, name, L, grids):
        # a grid of m nodes is priced as the exact sum on 2m roots, so the
        # ladder starts where its first two grids cost less than the exact
        # sum, L >= 144, and stops before its grids' sum of (2m)^2 passes
        # L^2: F6, whose modes decay like 2^-k, needs 128 nodes, past the
        # budget at L = 256, where it hands the sum back.  Where it agrees,
        # within test_matches_row_ratios's bound of the exact sum
        delta, q, slope = ladder_inputs(symbols.fixture(name), L)
        got = _torus_ladder(delta, q, slope)
        assert ladder_grids == grids
        assert (got is None) == (name == "F6" and L == 256 or not grids)
        if got is not None:
            unit = EPS * L * max(1.0, np.sum(np.abs(delta)))
            assert log_gap(got, _log_row_ratios(delta, q)) <= 4 * unit

    def test_zero_near_the_circle_takes_the_row_ratios(self, ladder_grids,
                                                       monkeypatch):
        # phi = 2 (1 - q/z), |z| = 1.02: the modes of G - q decay like
        # 1.02^-k, so no two grids within the budget of L = 1024 agree,
        # and the sum is the exact one's, bit for bit
        z = 1.02 * np.exp(0.5j)
        spec = symbols.SymbolSpec("rational", (2.0, -2.0 / z), (1.0,))
        got = tau_eff_finite(spec, 1024, x=2)
        assert ladder_grids == [32, 64, 128, 256]
        monkeypatch.setattr(formfactors, "_torus_ladder", lambda *a: None)
        assert tau_eff_finite(spec, 1024, x=2) == got

    def test_nonzero_winding_takes_the_row_ratios(self, monkeypatch):
        # F7 (w = 1) at N = L: L of its L + 1 roots, which no analytic G
        # maps the grid onto, so the pair sum is the exact one
        def refuse(*args):
            raise AssertionError("ladder at nonzero winding")

        exact = []
        real = formfactors._log_row_ratios
        monkeypatch.setattr(formfactors, "_torus_ladder", refuse)
        monkeypatch.setattr(formfactors, "_log_row_ratios",
                            lambda d, q: exact.append(q.size) or real(d, q))
        assert np.isfinite(tau_eff_finite(symbols.fixture("F7"), 512, 512, 2))
        assert exact == [512]


class TestZerosOwnRoots:
    """A zero z of phi outside the circle holds a root of p^L phi(p) = 1 of
    its own, near z + 1/(z^L phi'(z)); at small L it reaches the others.
    Where the root system is not the one of the cells of Z, the solve
    raises; where it returns, the sum is the one over the polynomial's
    roots less the zeros' own."""

    @pytest.mark.parametrize("r,angle,L", [
        *((r, angle, L) for r in (1.02, 1.05, 1.1)
          for angle in (0.0, 0.5, 2.0) for L in (8, 11, 16, 32, 64, 128, 256)),
        (1.02, 0.0, 512), (1.05, 2.0, 512)])
    def test_zero_near_the_circle(self, r, angle, L):
        # phi = 1 - q/z, |z| = r: near the circle, where Newton from a cell's
        # start can reach the zero's own root (a start from the phase alone
        # did at 1 - q/1.05, L = 128 and 1 - q/1.1, L = 64, the start
        # q phi(q)^(-1/L) at 1 - q/1.05 e^{0.5i}, L = 64: sums ~1 off).
        # From L = 512 every case solves (two are run: ``polyroots`` of
        # degree 513 takes ~1.5 s on one core of an x86-64 host)
        z = r * np.exp(1j * angle)
        spec = symbols.SymbolSpec("rational", (1.0, -1.0 / z), (1.0,))
        try:
            got = tau_eff_finite(spec, L, None, 2)
        except errors.NewtonDiverged:
            assert L < 512
            return
        want = polynomial_roots_sum(spec, L, 2)
        assert abs(got - want) <= 1e-8 * abs(want)

    @pytest.mark.parametrize("name,L", [
        *(("F4", L) for L in range(4, 14)), *(("F5", L) for L in range(4, 15)),
        ("F3", 4), ("F3", 5), ("F6", 4)])
    def test_fixtures_at_small_sizes(self, name, L):
        # F4 (zeros 1.4, 2.2) at L = 4 ... 10 and F5 (1.5, 1.9) at 4 ... 11
        # have no root system of one root per cell (a start from the phase
        # alone gave sums 0.6 ... 56 off at most of them); the first sizes
        # that solve, F4 11 and F5 12, give the polynomial's sum
        spec = symbols.fixture(name)
        try:
            got = tau_eff_finite(spec, L, None, 2)
        except errors.NewtonDiverged:
            return
        want = polynomial_roots_sum(spec, L, 2)
        assert abs(got - want) <= 1e-8 * abs(want)


    @pytest.mark.parametrize("r,L", [(2.0, 8), (2.0, 16), (1.3, 8),
                                     (1.3, 16), (1.3, 32), (1.3, 64)])
    def test_double_zero(self, r, L):
        # phi = (1 - q/r)^2: the zero, split by 1e-7 by the root finder,
        # holds two roots within e |c r^L|^(-1/2) of r, c = 1/r^2; with
        # each half taken as a simple zero, phi' ~ 0 there would raise at
        # every size listed
        numer = np.polynomial.polynomial.polyfromroots([r, r]) / r ** 2
        spec = symbols.SymbolSpec("rational", tuple(numer), (1.0,))
        try:
            got = tau_eff_finite(spec, L, None, 2)
        except errors.NewtonDiverged:
            assert r == 1.3 and L <= 16
            return
        want = polynomial_roots_sum(spec, L, 2)
        assert abs(got - want) <= 1e-8 * abs(want)


class TestFormFactor:
    def test_vanishing_shift_gives_zero(self):
        # theta = 0 kills the overlap weight of every subset but the
        # coincident one, whose roots all pair off with their grid points
        spec = symbols.fixture("F0")
        sys = solve_shifted(spec, L=8, N=4)
        assert form_factor(sys, sys.q_roots[sys.indices]) == 1.0
        others = np.setdiff1d(np.arange(8), sys.indices)
        assert form_factor(sys, sys.q_roots[others]) == 0.0
        assert form_factor(sys, sys.q_roots[np.r_[sys.indices[1:],
                                                  others[:1]]]) == 0.0

    def test_permutation_invariance(self):
        sys = solve_shifted(symbols.fixture("F2"), L=10, N=5)
        subset = sys.q_roots[[0, 2, 5, 7, 9]]
        a = form_factor(sys, subset)
        b = form_factor(sys, subset[::-1])
        assert abs(a - b) / abs(a) < 1e-12

    def test_size_mismatch(self):
        sys = solve_shifted(symbols.fixture("F2"), L=10, N=5)
        with pytest.raises(SizeMismatch):
            form_factor(sys, sys.q_roots[:3])


class TestFiniteSum:
    def test_trivial_symbol_sums_to_one(self):
        assert abs(tau_eff_finite(symbols.fixture("F0"), L=8, x=3) -
                   1.0) < 1e-14

    def test_constant_symbol_exact_at_any_size(self):
        spec = symbols.fixture("F1")
        truth = toeplitz.toeplitz_det(spec, 2)
        for L in (6, 8, 12):
            val = tau_eff_finite(spec, L=L, x=2)
            assert abs(val - truth) / abs(truth) < 1e-11, L

    def test_smooth_symbol_converges(self):
        # the L -> infinity limit of the subset sum is det(1 + V) on the
        # unit circle, which differs from the moment determinant by
        # exponentially small corrections in x
        spec = symbols.fixture("F2")
        truth = asymptotics.tau_eff(spec, 2)
        gaps = [abs(tau_eff_finite(spec, L=L, x=2) - truth) / abs(truth)
                for L in (8, 12, 16)]
        assert gaps[-1] < 1e-10
        assert gaps[0] > gaps[-1]

    def test_trivial_symbol_gives_exactly_one(self):
        spec = symbols.fixture("F0")
        assert tau_eff_finite(spec, L=8, N=4, x=3) == 1.0
        assert tau_eff_finite(spec, L=8, N=8, x=3) == 1.0

    def test_large_sizes_without_budget(self):
        # C(64, 32) ~ 1.8e18 subsets: out of reach of any enumeration
        spec = symbols.fixture("F2")
        assert np.isfinite(tau_eff_finite(spec, L=64, N=32, x=2))
        truth = asymptotics.tau_eff(spec, 2)
        val = tau_eff_finite(spec, L=1024, N=1024, x=2)
        assert abs(val - truth) / abs(truth) < 1e-9

    @pytest.mark.parametrize("L", [1023, 2048])
    def test_past_the_power_rounding_floor(self, L):
        # |p^L phi(p) - 1| through p ** L has a rounding floor ~L eps, past
        # RESIDUAL_TOL at these sizes; the offset-form residual Newton drives
        # to zero stays at ~1e-16 .. 2e-15
        for name in ("F1", "F2", "F6"):
            spec = symbols.fixture(name)
            assert np.max(solve_shifted(spec, L).residuals) <= RESIDUAL_TOL
            truth = asymptotics.tau_eff(spec, 2)
            val = tau_eff_finite(spec, L=L, x=2)
            assert abs(val - truth) <= 7e-13 * abs(truth), name
        if L == 1023:
            spec = symbols.fixture("F4")   # winding -1: Cauchy-Binet form
            truth = asymptotics.tau_eff(spec, 2)
            assert abs(tau_eff_finite(spec, L=L, x=2) - truth) <= \
                1e-10 * abs(truth)

    @pytest.mark.parametrize("name,L,N", [
        ("F1", 8, 3), ("F2", 10, 5), ("F2", 9, 9), ("F7", 8, 4), ("F7", 8, 8),
        ("F3", 8, None), ("F3", 8, 4), ("F4", 12, None), ("F5", 12, None),
        ("F6", 8, None), ("F6", 16, 6)])
    def test_closed_forms_match_enumeration(self, name, L, N):
        spec = symbols.fixture(name)
        want = enumerated_sum(spec, L, N, 2)
        got = tau_eff_finite(spec, L, N, 2)
        assert abs(got - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("c", [1 - 2 ** -9, 1 + 2 ** -9])
    def test_near_trivial_symbol_error_tracks_conditioning(self, c):
        # theta = c - 1 is small, so each shifted root lies ~|theta|/L from
        # its start and rounding the roots costs ~L eps/|theta| relative
        spec = symbols.SymbolSpec("rational", (c,), (1.0,))
        truth = toeplitz.toeplitz_det(spec, 2)
        for L in (4, 8, 12, 64):
            bound = 50 * L * np.finfo(float).eps / abs(c - 1)
            val = tau_eff_finite(spec, L=L, x=2)
            assert abs(val - truth) <= bound * abs(truth), L

    @pytest.mark.parametrize("c,L", [(1 - 2 ** -20, 12), (1 - 2 ** -20, 64),
                                     (1 - 2 ** -20, 256), (1 - 2 ** -9, 256)])
    def test_near_trivial_symbol_keeps_full_precision(self, c, L):
        # each root sits ~|theta|/L from its start; Newton on that offset,
        # p^L - 1 from it and the row ratios from offset ratios keep the sum
        # exact to rounding (absolute roots: 5.6e-9 at c = 1 - 2^-20, L = 12;
        # rounding each of the L^2 factors 1 + u: 6.7e-12 at c = 1 - 2^-9,
        # L = 256)
        spec = symbols.SymbolSpec("rational", (c,), (1.0,))
        truth = toeplitz.toeplitz_det(spec, 2)
        assert abs(tau_eff_finite(spec, L=L, x=2) / truth - 1) <= 1e-12

    @pytest.mark.parametrize("name", ["F2", "F3", "F4", "F5", "F6"])
    def test_winding_sector_converges(self, name):
        # N = L + w roots against the L-point grid; the limit is det(1 + V)
        spec = symbols.fixture(name)
        truth = asymptotics.tau_eff(spec, 2)
        val = tau_eff_finite(spec, L=256, x=2)
        assert abs(val - truth) <= 1e-9 * abs(truth)

    def test_positive_winding_sector_is_zero(self):
        # F7 (w = 1) has L + 1 roots: no (L + 1)-subset of L grid points;
        # its limit det(1 + V) is the same structural 0
        spec = symbols.fixture("F7")
        for L in (8, 256):
            assert tau_eff_finite(spec, L=L, x=2) == 0.0
        assert asymptotics.tau_eff(spec, 2) == 0.0

    @settings(max_examples=20, deadline=None)
    @given(spec=positive_winding_symbols(), x=st.integers(0, 40))
    def test_positive_winding_is_zero_on_both_routes(self, spec, x):
        assert symbols.winding_number(spec) > 0
        assert asymptotics.tau_eff(spec, x) == 0.0
        assert tau_eff_finite(spec, L=16, x=x) == 0.0

    @settings(max_examples=30, deadline=None)
    @given(spec=sector_symbols(), x=st.integers(1, 3))
    @example(spec=symbols.SymbolSpec("rational", THETA_ZERO_AT_MINUS_ONE,
                                     (0.0, 1.0)), x=1)
    def test_winding_sector_converges_random(self, spec, x):
        truth = asymptotics.tau_eff(spec, x)
        val = tau_eff_finite(spec, L=128, x=x)
        assert abs(val - truth) <= 1e-9 * abs(truth)

    @pytest.mark.parametrize("L", [63, 64, 127, 128, 256])
    @pytest.mark.parametrize("x", [1, 3])
    def test_theta_zero_by_a_grid_point(self, L, x):
        # theta(-1) rounds to -1.1e-16, 0 in exact arithmetic: q = -1 is a
        # grid point at every even L, and its root moves by ~1e-18.  Read
        # from the offset, theta there keeps the sum at the odd sizes'
        # precision (evaluated, it was 1e-3 off at L = 128, 1/L at every
        # even L)
        spec = symbols.SymbolSpec("rational", THETA_ZERO_AT_MINUS_ONE,
                                  (0.0, 1.0))
        assert abs(symbols.eval_theta(spec, np.array([-1.0]))[0]) < 1e-15
        truth = asymptotics.tau_eff(spec, x)
        val = tau_eff_finite(spec, L=L, x=x)
        assert abs(val - truth) <= 1e-10 * abs(truth)

    @pytest.mark.parametrize("L", [8, 64])
    def test_theta_zero_on_grid_takes_the_limit(self, L):
        # phi = (q + 3)/4 has phi(1) = 1: the root at q = 1 never moves.  At
        # N = L the sum is continuous there: theta(1) = 1e-12 moves it by
        # 1.5e-12 (it read exactly 0, the 0 * inf of enumerated_sum)
        spec = symbols.SymbolSpec("rational", (0.75, 0.25), (1.0,))
        near = symbols.SymbolSpec("rational", (0.75 + 1e-12, 0.25), (1.0,))
        assert symbols.eval_theta(spec, np.ones(1))[0] == 0.0
        got = tau_eff_finite(spec, L, L, 2)
        assert abs(got - tau_eff_finite(near, L, L, 2)) <= 1e-11
        if L == 64:
            assert abs(got - asymptotics.tau_eff(spec, 2)) <= 1e-12

    def test_theta_zero_on_grid_takes_the_limit_below_l(self):
        # N < L: the root on its grid point drops out with that point, and
        # the sum is the limit of phi = (q + 3)/4 + eps as eps -> 0
        spec = symbols.SymbolSpec("rational", (0.75, 0.25), (1.0,))
        near = symbols.SymbolSpec("rational", (0.75 + 1e-14, 0.25), (1.0,))
        got = tau_eff_finite(spec, 8, 4, 2)
        assert abs(got - (0.9155844039623912 + 0.0660163193671219j)) <= 1e-13
        assert abs(tau_eff_finite(near, 8, 4, 2) -
                   (0.9155844039624043 + 0.0660163193671220j)) <= 1e-13

    @pytest.mark.parametrize("N, want", [
        (4, 0.9155844039623912 + 0.0660163193671219j),
        (8, 0.5622717271093324)])
    def test_oracle_pairs_off_the_root_on_its_grid_point(self, N, want):
        # in the enumeration the pair's factor is 1 in each subset that
        # holds the grid point, and every other subset is 0
        spec = symbols.SymbolSpec("rational", (0.75, 0.25), (1.0,))
        got = tau_eff_finite(spec, 8, N, 2)
        assert abs(got - want) <= 1e-13
        assert abs(enumerated_sum(spec, 8, N, 2) - got) <= 1e-13

    @pytest.mark.parametrize("name, L, N", [
        ("F1", 64, 64), ("F2", 256, 256), ("F2", 16, 6), ("F6", 16, 6)])
    def test_reads_the_slope_newton_left(self, name, L, N):
        # log phi' is evaluated inside solve_shifted only, and the slope it
        # leaves is the fresh evaluation's, bit for bit
        spec = symbols.fixture(name)
        system = solve_shifted(spec, L, N)
        assert np.array_equal(system.slope,
                              phase_slope(spec, system.p_roots, L))
        want = tau_eff_finite(spec, L, N, 2)
        with mock.patch.object(symbols, "eval_log_phi",
                               wraps=symbols.eval_log_phi) as log_phi, \
                mock.patch.object(formfactors, "solve_shifted",
                                  lambda *args: system):
            assert tau_eff_finite(spec, L, N, 2) == want
        assert not log_phi.called

    @settings(max_examples=40, deadline=None)
    @given(spec=banded_symbols(), L=st.integers(4, 12), data=st.data(),
           x=st.integers(0, 4))
    def test_closed_forms_match_enumeration_random(self, spec, L, data, x):
        N = data.draw(st.integers(1, L))
        try:
            system = solve_shifted(spec, L, N)
        except errors.NewtonDiverged:
            reject()  # no root system at this size: nothing to sum
        # A shifted root sits about theta(p)/L from its start, so rounding p
        # costs ~L eps/|theta(p)| in any evaluation of the sum, exact
        # arithmetic on the rounded roots included: at theta ~ 2e-3 and
        # L = 4 that is already 1.4e-12.  Compare only where both sides can
        # carry 1e-12.
        assume(np.min(np.abs(symbols.eval_theta(spec, system.p_roots)))
               >= 0.1)
        want = enumerated_sum(spec, L, N, x)
        got = tau_eff_finite(spec, L, N, x)
        assert abs(got - want) <= 1e-12 * abs(want)

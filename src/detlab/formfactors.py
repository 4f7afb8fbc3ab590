"""Finite-size overlap sums that converge to the unit-circle determinant.

The L-th roots of unity q and the L + w roots p of p^L phi(p) = 1, w the
winding of phi, live on or near the unit circle; root k is where the
counting function Z(theta) = L theta + arg phi(e^{i theta}) reaches 2 pi k.
Squared overlaps of the two families, summed over the N-point subsets of
the grid (N = L + w by default), reproduce the Fredholm determinant as L
grows; the sum is taken in closed form (Cauchy-Binet for N < L,
root-of-unity products at N = L) and is exactly 0 for N > L.

The roots come from Newton started at p = q phi(q)^(-1/L), log phi read off
one turn of samples of Z (``solve_shifted``), which raises where the cells
of Z do not hold one root each: where Z falls, a root does not converge,
leaves its cell or meets another, or a zero of phi outside the circle
brings its own root among them (``_check_zero_roots``).

At N = L the products pair every two roots.  At winding 0 the roots are
p = G(q), G analytic about the unit circle, so the pair sum is an exact
linear part plus a function analytic on the torus, which the trapezoid
rule on coarse grids sums in O(L log L) (``_torus_ladder``); the O(L^2)
sum over every pair (``_log_row_ratios``) takes the rest: nonzero winding,
L below the ladder's crossover (144), and grids that do not agree within
the ladder's budget.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import errors, symbols
from ._series import circle_nodes, clog, pow2_at_least
from .cauchy import scoped

RESIDUAL_TOL = 1e-12
DISTINCT_TOL = 1e-8
ROW_BLOCK = 64
LADDER_M0 = 32      # nodes of the first grid of ``_torus_ladder``
NEWTON_TOL = 1e-14
NEWTON_MAXIT = 60
# Largest offset |p - q| of a root that ``tau_eff_finite`` reads theta at p
# and q from rather than by evaluation: theta(q) = theta(p) - delta phi'
# there to O(delta^3), while an evaluation of theta near its zero keeps only
# its absolute precision, eps/|L delta| relative
NEAR_ROOT = 1e-6


@dataclass(frozen=True)
class RootSystem:
    """Unshifted and shifted momentum grids for one symbol at size L."""

    spec: symbols.SymbolSpec
    L: int
    N: int
    q_roots: np.ndarray   # all L roots of q^L = 1
    indices: np.ndarray   # grid index of each root's reference e^{2 pi i k/L}
    p_roots: np.ndarray   # N roots of p^L * phi(p) = 1
    offsets: np.ndarray   # p_roots - q_roots[indices], to full relative precision
    residuals: np.ndarray
    # u = p phi'(p)/(L phi(p)) from Newton's last evaluation: the angular
    # density of the roots is 1 + u, and u keeps its relative precision
    # where phi is near constant
    slope: np.ndarray


def _chosen_indices(L: int, N: int) -> np.ndarray:
    """The N indices k of e^{2 pi i k/L}, -L/2 < k <= L/2, closest to the
    positive real axis, in grid order (k mod L ascending): k = 0, +-1, ...,
    and for an even N < L one of +-N/2, which lie equally near in exact
    arithmetic; the one whose rounded angle is the smaller, N/2 on a tie
    (the choice of a stable sort of the rounded angles)."""
    k = np.arange(N) - (N - 1) // 2
    if N % 2 == 0 and N < L:
        ang = np.abs(np.angle(np.exp(2j * np.pi * np.array([N // 2, L - N // 2])
                                     / L)))
        k -= int(ang[1] < ang[0])
    return np.concatenate([k[k >= 0], k[k < 0]])


def _log1p(z: np.ndarray) -> np.ndarray:
    """log(1 + z) to full relative precision in each part for small complex z
    (numpy's complex log1p loses it: 2e-4 relative at |z| = 1e-12)."""
    return (0.5 * np.log1p(z.real * (2.0 + z.real) + z.imag ** 2) +
            1j * np.arctan2(z.imag, 1.0 + z.real))


def _sector_size(spec: symbols.SymbolSpec, L: int, N: int | None):
    """(N, L + w), N by default L + w; checks L >= 4, 1 <= N <= L + w."""
    roots = L + symbols.winding_number(spec)
    N = roots if N is None else N
    if L < 4 or not 1 <= N <= roots:
        raise errors.InputError(f"need L >= 4 and 1 <= N <= L + w = {roots}")
    return N, roots


def solve_shifted(spec: symbols.SymbolSpec, L: int, N: int | None = None
                  ) -> RootSystem:
    """N of the L + w roots of p^L * phi(p) = 1, w the winding of phi.

    Root k is where Z(theta) = L theta + arg phi(e^{i theta}) = 2 pi k, arg
    phi unwrapped from its principal value at theta = 0, in (-pi, pi]: a
    phi(1) < 0 takes +pi.  N < L + w takes the N cells nearest theta = 0,
    k = ``_chosen_indices(L + w, N)``.  Z is sampled on one turn, the 4L
    nodes of ``circle_nodes(1, 4L)`` (memoised, as are its samples up to
    L = 256), and continues past it as Z(theta + 2 pi) = Z(theta) +
    2 pi (L + w).  Newton starts from p = q phi(q)^(-1/L), q = e^{2 pi i
    k/L}, log phi(q) read off the samples at theta = 2 pi k/L, a node: a
    start first order in modulus and phase, exact for a constant phi.  It
    runs on the offsets delta = p - q, so a root that moves little keeps
    full relative precision.  NewtonDiverged unless Z rises on its nodes,
    every root converges, alone, in its cell, and no zero of phi outside
    the circle brings a root of its own among them (``_check_zero_roots``).
    """
    N, roots = _sector_size(spec, L, N)
    # theta = -pi + j pi/(2L), j <= 4L: theta = 2 pi k/L at node 4k + 2L;
    # the last node, theta = pi, continues the grid's last by the step of
    # least phase
    theta = (0.5 * np.pi / L) * np.arange(-2 * L, 2 * L + 1)
    log_phi = 2j * np.pi * symbols.eval_nu_grid(spec, circle_nodes(1.0, 4 * L))
    turn = np.round((log_phi[-1].imag - log_phi[0].imag) / (2.0 * np.pi))
    log_phi = np.append(log_phi, log_phi[0] + 2j * np.pi * turn)
    arg0 = np.angle(symbols.eval_phi(spec, np.ones(1, dtype=complex))[0])
    arg0 = np.pi if arg0 == -np.pi else arg0
    log_phi -= 2j * np.pi * np.round((log_phi[2 * L].imag - arg0) /
                                     (2.0 * np.pi))
    z = (L * theta + log_phi.imag) / (2.0 * np.pi)  # Z in turns: root k at k
    if np.min(np.diff(z)) <= 0 or round(z[-1] - z[0]) != roots:
        raise errors.NewtonDiverged(
            f"Z falls near theta = {theta[np.argmin(np.diff(z))]:.4f}")
    k = _chosen_indices(roots, N)
    turns, node = np.divmod(4 * k + 2 * L, 4 * L)
    log_phi_k = log_phi[node] + 2j * np.pi * (roots - L) * turns
    # q_j from j folded to -L/2 < j <= L/2, so q_{L-j} = conj(q_j) bit for
    # bit: the phases of a sum over the grid cancel, not drift as L eps
    fold = np.arange(L)
    fold[(L + 2) // 2:] -= L
    q_roots = np.exp(2j * np.pi * fold / L)
    q = q_roots[k % L]
    delta = q * np.expm1(-log_phi_k / L)    # exactly 0 where phi = 1
    p = q + delta
    # a start past a zero near the circle can send Newton off to overflow:
    # that root did not converge, which the loop reports without warnings
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        log_phi_p, dlog_p = symbols.eval_log_phi(spec, p)
        for _ in range(NEWTON_MAXIT):
            g = np.expm1(L * _log1p(delta / q) + log_phi_p)
            step = g / ((g + 1.0) * (L / p + dlog_p))
            delta = delta - step
            p = q + delta
            log_phi_p, dlog_p = symbols.eval_log_phi(spec, p)
            size = np.max(np.abs(step))
            if not size >= NEWTON_TOL:      # converged, or not finite
                break
    if not size < NEWTON_TOL:
        bad = k[np.argmax(~(np.abs(step) < NEWTON_TOL))]
        raise errors.NewtonDiverged(f"root k = {bad} did not converge")
    # in offset form, as Newton drives it: |p^L phi(p) - 1| through p ** L
    # would carry a rounding floor ~L eps, past RESIDUAL_TOL from L ~ 1000
    residuals = np.abs(np.expm1(L * _log1p(delta / q) + log_phi_p))
    turns, at = np.divmod(2.0 * np.pi * k / L + np.angle(p / q) + np.pi,
                          2.0 * np.pi)
    drift = np.interp(at - np.pi, theta, z) + roots * turns - k
    stray = np.flatnonzero((residuals > RESIDUAL_TOL) | (abs(drift) >= 0.5))
    if stray.size:
        i = stray[0]
        raise errors.NewtonDiverged(
            f"root k = {k[i]} has Z/2pi - k = {drift[i]:.2f}, residual "
            f"{residuals[i]:.1e}")
    gap = _min_distance(p, L, float(np.max(np.abs(delta))))
    if gap < DISTINCT_TOL:
        raise errors.NewtonDiverged(f"two roots {gap:.2e} apart")
    _check_zero_roots(spec, L, float(np.max(np.abs(p))))
    return RootSystem(spec=spec, L=L, N=N, q_roots=q_roots, indices=k % L,
                      p_roots=p, offsets=delta, residuals=residuals,
                      slope=p * dlog_p / L)


def _check_zero_roots(spec: symbols.SymbolSpec, L: int, reach: float):
    """NewtonDiverged where a zero z of phi outside the unit circle may hold
    its own root of p^L phi(p) = 1 at a modulus <= ``reach``, the largest
    |p| of the roots found: it may then share a cell with one of them, or
    be one of them, and the cells of Z no longer hold one root each.

    Near a simple zero, phi(p) ~ phi'(z)(p - z) and p^L ~ z^L e^u with
    u = L(p - z)/z, so the root solves u e^u = s, s = L eps/z, eps =
    1/(z^L phi'(z)): to first order it sits at z + eps.  Its branch, the
    one through u = 0, is Lambert's W_0(s) = s e^{-W_0(s)}, and |W_0| <= 1
    for |s| <= 1/e, so |u| <= e |s|: the root lies within e |eps| of z.
    A zero of multiplicity m, phi(p) ~ c (p - z)^m (zeros within
    ``symbols.SEP_TOL`` of each other count as one, c = phi'(z_i) over the
    product of z_i - z_j for the others), holds m roots, each within
    e |c z^L|^(-1/m) of z, as v e^v = s^(1/m) for v = u/m.  The check
    raises where that disk reaches the roots' annulus, |z| - radius <=
    reach, at O(1) per zero and no sample.  Past |s| = 1/e the disk is a
    first-order estimate, not a bound; on F4, F5 and 1 - q/r, r = 1.02,
    1.05, 1.1, L = 4 ... 512, it raises on every size whose sum differs
    from the one over the roots of p^L P(p) - Q(p) less the zeros' own
    (tests/test_formfactors.py).
    """
    z = np.array([z for z in symbols.analyze(spec).zeros if abs(z) > 1.0])
    if not z.size:
        return
    close = np.abs(z[:, None] - z[None, :]) < symbols.SEP_TOL
    m = np.sum(close, axis=1)
    others = np.prod(np.where(close, z[:, None] - z[None, :], 1.0) +
                     np.eye(z.size), axis=1)
    # (|z| - reach)^m |c| |z|^L <= e^m, with no division by c: at a zero
    # of multiplicity m, phi'(z_i) and the product over the others are ~0
    gap = np.maximum(np.abs(z) - reach, 0.0) / np.e
    near = np.flatnonzero(gap ** m * np.abs(symbols.eval_dphi(spec, z)) <=
                          np.abs(z) ** -float(L) * np.abs(others))
    if near.size:
        raise errors.NewtonDiverged(
            f"the zero {complex(z[near[0]]):.4g} of phi may hold a root "
            f"within |p| <= {reach:.4g}, among the roots found: L = {L} is "
            f"too small")


def _pair_windows(v: np.ndarray) -> np.ndarray:
    """Row i holds v[(i + k) mod n] for k = 1 ... n // 2: a zero-copy window
    of v doubled (``sliding_window_view`` without its fixed cost).  Every
    unordered pair i != j lies in one row, at cyclic distance k, once; only
    the pairs k = n/2 of an even n lie in two rows."""
    doubled = np.concatenate([v, v])
    step = doubled.itemsize
    return np.ndarray((v.size, v.size // 2), doubled.dtype, doubled, step,
                      (step, step))


def _min_distance(p: np.ndarray, L: int, spread: float) -> float:
    """min |p_i - p_j| over i != j (inf for one point), comparing squared
    moduli one column of ``_pair_windows``, one cyclic array distance k, at
    a time.  With each p_i within ``spread`` of e^{2 pi i k_i/L} for
    integers k_i that are contiguous and ascend cyclically along the array
    (as ``_chosen_indices`` gives them), the pairs at distance k lie at
    least 2 sin(pi (k - e)/L) - 2 spread apart, e = max(p.size - L, 0) the
    indices past one turn: the scan stops once that bound passes the
    minimum so far.  An infinite spread scans every pair."""
    if p.size < 2:
        return np.inf
    window = _pair_windows(p)
    diff = np.empty(p.size, dtype=complex)
    sq = np.empty(p.size)
    excess = max(p.size - L, 0)
    best, i, k = np.inf, 0, 0
    for col in range(window.shape[1]):
        floor = 2.0 * np.sin(np.pi * (col + 1 - excess) / L) - 2.0 * spread
        if floor > 0.0 and floor * floor > best:
            break
        np.subtract(window[:, col], p, out=diff)
        # |d|^2 from the float view: square re and im in place, add pairs
        parts = diff.view(float)
        np.square(parts, out=parts)
        np.add(parts[0::2], parts[1::2], out=sq)
        at = int(np.argmin(sq))
        if sq[at] < best:
            best, i, k = sq[at], at, col
    return float(np.abs(window[i, k] - p[i]))


def _log_row_ratios(offsets: np.ndarray, q: np.ndarray) -> complex:
    """sum_i log prod_{j != i} (p_j - p_i) / (q_j - q_i) for p = q + offsets.

    Each factor is 1 + y_ij, y_ij = (offsets_j - offsets_i) / (q_j - q_i),
    exact where p_j - p_i would cancel.  y_ji equals y_ij bit for bit (both
    differences change sign), so the sum is twice that over unordered
    pairs, taken as the rows of ``_pair_windows`` with the second copy of
    each k = n/2 pair set to y = 0.  A row's factors combine by halves as
    y_a + y_b + y_a y_b, so no small y is ever rounded against a 1 (with L^2
    factors of 1 + u that cost L^2 eps/2); ROW_BLOCK rows at a time, in place
    in one buffer padded with y = 0 to a power of two.  The buffer holds a
    block transposed, one row per cyclic distance k and one column per row
    i of the window, so a distance fills one contiguous row (the window's
    transpose is again a window, contiguous along i) and each halving step
    adds two contiguous blocks of rows.  The result holds modulo 2 pi i,
    all that ``errors.exp_in_range`` reads.
    """
    n = q.size
    half = n // 2
    d_win, q_win = _pair_windows(offsets), _pair_windows(q)
    y = np.zeros((pow2_at_least(half), ROW_BLOCK), dtype=complex)
    den = np.empty((half, ROW_BLOCK), dtype=complex)
    prod = np.empty((y.shape[0] // 2, ROW_BLOCK), dtype=complex)
    rows = np.empty(n, dtype=complex)
    for start in range(0, n, ROW_BLOCK):
        stop = min(start + ROW_BLOCK, n)
        r = stop - start
        block = y[:half, :r]
        np.subtract(d_win[start:stop].T, offsets[start:stop], out=block)
        np.subtract(q_win[start:stop].T, q[start:stop], out=den[:, :r])
        np.divide(block, den[:, :r], out=block)
        if n % 2 == 0 and stop > half:
            block[half - 1, max(half - start, 0):] = 0.0
        width = y.shape[0]
        while width > 1:
            width //= 2
            a, b, ab = y[:width, :r], y[width:2 * width, :r], prod[:width, :r]
            np.multiply(a, b, out=ab)
            a += b
            a += ab
        rows[start:stop] = y[0, :r]
    return 2.0 * np.sum(_log1p(rows))


def _fold(coeffs: np.ndarray, m: int) -> np.ndarray:
    """Samples on the m-node grid e^{2 pi i k/m}, k = 0 ... m - 1, of the
    trigonometric interpolants whose coefficients, in ``np.fft.fft`` order,
    are the rows of ``coeffs``: each coefficient added onto its frequency
    mod m, then one inverse FFT per row."""
    rows, n = coeffs.shape
    freq = np.arange(n)
    freq[(n + 1) // 2:] -= n
    slot = (freq % m + m * np.arange(rows)[:, None]).ravel()
    folded = (np.bincount(slot, coeffs.real.ravel(), rows * m) +
              1j * np.bincount(slot, coeffs.imag.ravel(), rows * m))
    return m * np.fft.ifft(folded.reshape(rows, m), axis=1)


def _torus_sum(d: np.ndarray, e: np.ndarray) -> complex:
    """sum of log(1 + y) - y over the m x m grid of the m = ``d.size`` (even)
    nodes z_k = e^{2 pi i k/m}: y = (d_j - d_i)/(z_j - z_i) off the
    diagonal, y = e_i on it.  Each unordered pair is read once, from the
    rows of ``_pair_windows``, ROW_BLOCK rows at a time; only the pairs at
    cyclic distance m/2 lie in two rows, and count once per row."""
    m = d.size
    z = np.exp(2j * np.pi * np.arange(m) / m)
    d_win, z_win = _pair_windows(d), _pair_windows(z)
    total = np.sum(_log1p(e) - e)
    for start in range(0, m, ROW_BLOCK):
        stop = min(start + ROW_BLOCK, m)
        y = ((d_win[start:stop] - d[start:stop, None]) /
             (z_win[start:stop] - z[start:stop, None]))
        rest = _log1p(y) - y
        total += 2.0 * np.sum(rest) - np.sum(rest[:, -1])
    return complex(total)


def _torus_ladder(delta: np.ndarray, q: np.ndarray, slope: np.ndarray):
    """sum_{i != j} log(1 + y_ij), y_ij = (delta_j - delta_i)/(q_j - q_i),
    over all L = ``q.size`` roots of unity q_j = e^{2 pi i j/L} in grid
    order, where p_j = q_j + delta_j = G(q_j) for one function G analytic
    on an annulus about the unit circle (zero winding: G inverts
    q -> q phi(q)^(1/L)), and ``slope`` is ``RootSystem.slope`` there;
    None where the ladder does not agree within its budget.

    The linear part is exact: sum_{i != j} 1/(q_j - q_i) = (L - 1)/(2 q_j)
    on the roots of unity, so sum_{i != j} y_ij = (L - 1) sum_j delta_j/q_j.
    The rest, log(1 + y) - y, is analytic on the torus: y is the divided
    difference of D = G - q, which on the diagonal is D'(q_j) = G'(q_j) - 1
    = (delta_j/q_j - u_j)/(1 + u_j), u the slope.  So its mean over the
    L x L grid is the torus mean, up to a geometrically small error, and
    the trapezoid rule on m x m nodes, m = LADDER_M0, 2 LADDER_M0, ...,
    converges to it geometrically (Trefethen and Weideman, SIAM Rev. 56
    (2014)): D and D' are resampled onto each grid from one FFT of their
    L samples (``_fold``), which needs neither L/m integral nor L even.
    The sum is (L/m)^2 times the m x m sum, less the L diagonal terms,
    once two successive grids agree within eps L max(1, sum_j |delta_j|),
    the scale of the rounding of the other terms of ``tau_eff_finite``.
    A grid of m nodes costs about what ``_log_row_ratios`` takes on 2m
    roots, so the ladder gives up, for that exact sum, before its grids'
    summed (2m)^2 passes L^2, and starts only where its first two grids
    fit, L >= 144, the smallest L timed at which it matched the exact sum.
    Its blocks of ROW_BLOCK x m/2 pairs, m <= L/2, are smaller than the
    exact sum's buffer.
    """
    n = q.size
    if 20 * LADDER_M0 ** 2 > n * n:
        return None     # the first two grids cost more than the exact sum
    diag = (delta / q - slope) / (1.0 + slope)
    coeffs = np.fft.fft(np.stack([delta, diag])) / n
    tol = np.finfo(float).eps * n * max(1.0, float(np.sum(np.abs(delta))))
    m, work, last = LADDER_M0, 4 * LADDER_M0 ** 2, None
    while work <= n * n:
        est = (n / m) ** 2 * _torus_sum(*_fold(coeffs, m))
        if last is not None and abs(est - last) <= tol:
            return ((n - 1) * np.sum(delta / q) + est -
                    np.sum(_log1p(diag) - diag))
        last, m = est, 2 * m
        work += 4 * m * m
    return None


def tau_eff_finite(spec: symbols.SymbolSpec, L: int, N: int | None = None,
                   x: int = 1) -> complex:
    """Finite-size overlap series in closed form.

    The series sums, over N-subsets S of the grid, F(p) det(C_S)^2
    prod_{j in S} g(q_j) with C_ij = 1/(p_i - q_j), g(q) = q^{1+x}
    theta/(1+theta) and F(p) = L^{-2N} prod p_i^{1-x} theta(p_i)/dens(p_i);
    the normalization L^{-2N} makes a constant phase shift exact at every L,
    and N defaults to L + w (``solve_shifted``).

    N < L: by Cauchy-Binet the sum is F(p) det(C diag(g) C^T), one N x N
    log-determinant.  N = L: the one subset is the whole grid, and
    det(C)^2 = L^{2L} prod_i R_i / prod_i (p_i^L - 1)^2, by
    prod_j (p - q_j) = p^L - 1 and the discriminant +-L^L of q^L - 1, with
    R_i = prod_{j != i} (p_j - p_i)/(q_j - q_i) pairing each root with its
    grid point.  The pair sum sum_i log R_i takes O(L log L) by
    ``_torus_ladder`` at zero winding, and otherwise, or where the ladder
    hands it back, O(L^2) by ``_log_row_ratios``.  N > L: no N-subset
    exists and the sum is exactly 0.  Where theta vanishes at a grid point,
    a root sits on it and the sum takes its limit there: at N = L that
    root's factor is 1, and at N < L the root and its grid point drop out,
    leaving the same closed form over N - 1 roots and L - 1 points with
    L^{-2(N-1)}.  The roots take no x: inside a ``cauchy.SuiteScope`` they
    are solved once per (spec, L, N).
    """
    x = errors.check_x(x)
    N, roots = _sector_size(spec, L, N)
    if N > L:
        return 0.0 + 0.0j
    system = scoped(solve_shifted, spec, L, N)
    p, q = system.p_roots, system.q_roots
    q_start, delta = q[system.indices], system.offsets
    if not np.any(delta):
        # symbol identically trivial: only the coincident subset, weight 1
        return 1.0 + 0.0j
    theta_p = symbols.eval_theta(spec, p)
    theta_q = symbols.eval_theta(spec, q)
    # a root within NEAR_ROOT of its grid point sits by a zero of theta,
    # where theta(p) and theta(q) are as small as their rounding, yet their
    # ratio, 1 + q phi'(q)/L to first order, sets the sum: theta(p) = p^-L
    # - 1 from the offset, as Newton solved it, and theta(q) = theta(p) -
    # delta phi' at the midpoint keep it (an evaluated theta(-1) = -1.1e-16
    # on 0.5 (q - 0.2)(1 - q/1.5)/q moved the sum by 1e-3 at L = 128)
    near = np.flatnonzero(np.abs(delta) < NEAR_ROOT)
    if near.size:
        d, start = delta[near], q_start[near]
        theta_p[near] = np.expm1(-L * _log1p(d / start))
        theta_q[system.indices[near]] = theta_p[near] - d * symbols.eval_dphi(
            spec, start + 0.5 * d)
    weight = theta_q / (1.0 + theta_q)
    slope = system.slope
    if N < L:
        if not np.all(delta):
            # where theta vanishes at a grid point the root stays on it,
            # delta = 0: every subset without that point has theta(p) = 0,
            # and in the rest theta(p) g(q) / delta^2 -> L^2 (1 + u)
            # q^(x - 1) cancels the root's other factors to L^2, so the
            # pair drops out
            moved = delta != 0
            points = np.ones(L, dtype=bool)
            points[system.indices[~moved]] = False
            p, q_start, delta, slope, theta_p = (
                a[moved] for a in (p, q_start, delta, slope, theta_p))
            q, weight = q[points], weight[points]
        # p_i - q_j = (q_start_i - q_j) + delta_i: exact where q_j = q_start_i
        cmat = 1.0 / (q_start[:, None] - q[None, :] + delta[:, None])
        g = q ** (1 + x) * weight
        sign, logdet = np.linalg.slogdet((cmat * g) @ cmat.T)
        log_total = (np.sum((1 - x) * clog(p) - clog(1.0 + slope) +
                            clog(theta_p)) + logdet + np.log(sign) -
                     2.0 * p.size * np.log(float(L)))
    else:
        # p^L - 1 = (1 + delta/q)^L - 1 without cancellation; theta(p_i)
        # g(q_i) / (p_i^L - 1)^2 is one factor per root, so the large
        # logarithms of a small theta cancel before the sum, not in it.
        # q^(1+x) p^(1-x) = q^2 (1 + delta/q)^(1-x), and the q^2 multiply
        # to 1 over the grid.  The terms' phases are taken mod 2 pi as one
        # product of unit factors: where theta(p) < 0 (F3, F6) each is ~pi,
        # and a plain sum of L of them, as of the phases of q, rounds at
        # ~L eps.  Where theta vanishes at a grid point the root stays
        # there, delta = 0, and its factor theta(p) g(q) / ((p^L - 1)^2
        # (1 + u)) takes its limit 1: theta(p)/(p^L - 1) = -p^-L on a root,
        # and delta/(p^L - 1) -> q/L takes theta(q)/(p^L - 1) to -(1 + u)
        pl_minus_1 = np.expm1(L * _log1p(delta / q_start))
        ratio = np.divide(theta_p * weight[system.indices], pl_minus_1 ** 2,
                          out=1.0 + slope, where=delta != 0)
        terms = ((1 - x) * _log1p(delta / q_start) - clog(1.0 + slope) +
                 clog(ratio))
        phase = np.angle(np.prod(np.exp(1j * terms.imag)))
        # at N = L the roots are in grid order, q_start = q
        pairs = _torus_ladder(delta, q_start, slope) if roots == L else None
        log_total = np.sum(terms.real) + 1j * phase + (
            _log_row_ratios(delta, q_start) if pairs is None else pairs)
    return errors.exp_in_range(log_total)

"""Finite-size overlap sums that converge to the unit-circle determinant.

Two families of momenta live on (or near) the unit circle: the unshifted
roots of p^L = 1 and the shifted roots of p^L * phi(p) = 1, obtained from
the former by a Newton homotopy that switches the symbol on gradually.
Squared overlaps of the two families, summed over N-point subsets of the
unshifted grid, reproduce the Fredholm determinant as L grows; the sum is
taken in closed form (Cauchy-Binet, or root-of-unity products at N = L).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import errors, symbols
from ._series import pow2_at_least

RESIDUAL_TOL = 1e-12
DISTINCT_TOL = 1e-8
ROW_BLOCK = 64
HOMOTOPY_STEPS = 16
NEWTON_TOL = 1e-14
NEWTON_MAXIT = 60


@dataclass(frozen=True)
class RootSystem:
    """Unshifted and shifted momentum grids for one symbol at size L."""

    spec: symbols.SymbolSpec
    L: int
    N: int
    q_roots: np.ndarray   # all L roots of q^L = 1
    indices: np.ndarray   # the N grid indices the shifted roots continue from
    p_roots: np.ndarray   # N roots of p^L * phi(p) = 1
    offsets: np.ndarray   # p_roots - q_roots[indices], to full relative precision
    residuals: np.ndarray


def _chosen_indices(L: int, N: int) -> np.ndarray:
    """N grid indices closest to the positive real axis, in grid order."""
    j = np.arange(L)
    ang = np.angle(np.exp(2j * np.pi * j / L))
    order = np.argsort(np.abs(ang), kind="stable")
    return np.sort(order[:N])


def _log1p(z: np.ndarray) -> np.ndarray:
    """log(1 + z) to full relative precision in each part for small complex z
    (numpy's complex log1p loses it: 2e-4 relative at |z| = 1e-12)."""
    return (0.5 * np.log1p(z.real * (2.0 + z.real) + z.imag ** 2) +
            1j * np.arctan2(z.imag, 1.0 + z.real))


def solve_shifted(spec: symbols.SymbolSpec, L: int, N: int | None = None
                  ) -> RootSystem:
    """Continue N unit roots of p^L = 1 into roots of p^L * phi(p) = 1.

    The symbol is switched on through phi^t, t: 0 -> 1; the logarithm of phi
    is tracked continuously along each root's path so no branch choice is
    ever taken from scratch.  Newton runs on the offsets delta = p - q from
    the grid, with p^L phi^t - 1 = expm1(L log1p(delta/q) + t log phi), so a
    root that moves little keeps its offset to full relative precision.
    """
    if L < 4:
        raise errors.InputError("grid size L must be at least 4")
    if N is None:
        N = L
    if not 1 <= N <= L:
        raise errors.InputError("need 1 <= N <= L")
    j_all = np.arange(L)
    q_roots = np.exp(2j * np.pi * j_all / L)
    idx = _chosen_indices(L, N)

    q = p = q_roots[idx]
    delta = np.zeros(N, dtype=complex)
    phi_p = symbols.eval_phi(spec, p)
    logphi = np.log(phi_p)  # principal start, then tracked

    for t in np.linspace(0.0, 1.0, HOMOTOPY_STEPS + 1)[1:]:
        for it in range(NEWTON_MAXIT):
            g = np.expm1(L * _log1p(delta / q) + t * logphi)
            dlog = symbols.eval_dphi(spec, p) / phi_p
            step = g / ((g + 1.0) * (L / p + t * dlog))
            delta = delta - step
            p = q + delta
            phi_new = symbols.eval_phi(spec, p)
            logphi = logphi + np.log(phi_new / phi_p)
            phi_p = phi_new
            if np.max(np.abs(step)) < NEWTON_TOL:
                break
        else:
            bad = int(idx[int(np.argmax(np.abs(step)))])
            raise errors.NewtonDiverged(bad)

    residuals = np.abs(p ** L * phi_p - 1.0)
    if np.max(residuals) > RESIDUAL_TOL:
        bad = int(idx[int(np.argmax(residuals))])
        raise errors.NewtonDiverged(bad)
    gap = _min_distance(p)
    if gap < DISTINCT_TOL:
        raise errors.DegenerateZeros(
            f"shifted roots collide: min distance {gap:.2e}")
    return RootSystem(spec=spec, L=L, N=N, q_roots=q_roots, indices=idx,
                      p_roots=p, offsets=delta, residuals=residuals)


def _angular_density(spec: symbols.SymbolSpec, p: np.ndarray, L: int):
    """1 + (2 pi / L) * (angular derivative of the phase shift) at p."""
    dlog = symbols.eval_dphi(spec, p) / symbols.eval_phi(spec, p)
    return 1.0 + p * dlog / L


def _min_distance(p: np.ndarray) -> float:
    """min |p_i - p_j| over i != j (inf for one point), ROW_BLOCK rows at a time."""
    best = np.inf
    for start in range(0, p.size, ROW_BLOCK):
        dist = np.abs(p[None, :] - p[start:start + ROW_BLOCK, None])
        np.fill_diagonal(dist[:, start:], np.inf)
        best = min(best, float(dist.min()))
    return best


def _log_row_ratios(offsets: np.ndarray, q: np.ndarray) -> complex:
    """sum_i log prod_{j != i} (p_j - p_i) / (q_j - q_i) for p = q + offsets.

    Each factor is 1 + y_ij, y_ij = (offsets_j - offsets_i) / (q_j - q_i),
    exact where p_j - p_i would cancel; a row's factors combine in pairs as
    y_a + y_b (1 + y_a), so no small y is ever rounded against a 1 (with L^2
    factors of 1 + u that cost L^2 eps/2).  Taken ROW_BLOCK rows at a time,
    each row padded with y = 0 to a power of two; the diagonal gap is set to
    1, where the offset difference is 0.
    """
    total = 0.0 + 0.0j
    width = pow2_at_least(q.size)
    for start in range(0, q.size, ROW_BLOCK):
        rows = np.arange(start, min(start + ROW_BLOCK, q.size))
        den = q[None, :] - q[rows, None]
        den[rows - start, rows] = 1.0
        y = np.zeros((rows.size, width), dtype=complex)
        y[:, :q.size] = (offsets[None, :] - offsets[rows, None]) / den
        while y.shape[1] > 1:
            y = y[:, 0::2] + y[:, 1::2] * (1.0 + y[:, 0::2])
        total += np.sum(_log1p(y[:, 0]))
    return total


def tau_eff_finite(spec: symbols.SymbolSpec, L: int, N: int | None = None,
                   x: int = 1) -> complex:
    """Finite-size overlap series in closed form.

    The series sums, over N-subsets S of the unshifted grid,
    F(p) det(C_S)^2 prod_{j in S} g(q_j) with the Cauchy matrix
    C_ij = 1/(p_i - q_j), g(q) = q^{1+x} theta/(1+theta) and
    F(p) = L^{-2N} prod p_i^{1-x} theta(p_i) / dens(p_i); the squared grid
    normalization L^{-2N} makes a constant phase shift exact at every L.

    N < L: by Cauchy-Binet the sum is F(p) det(C diag(g) C^T), one N x N
    log-determinant.  N = L: the one subset is the whole grid, and
    det(C)^2 = L^{2L} prod_i R_i / prod_i (p_i^L - 1)^2, where
    prod_j (p - q_j) = p^L - 1, the squared discriminant of q^L - 1 is
    L^{2L} (cancelling F's normalization) and
    R_i = prod_{j != i} (p_j - p_i)/(q_j - q_i) pairs each shifted root with
    its unshifted start.
    """
    system = solve_shifted(spec, L, N)
    N, p, q = system.N, system.p_roots, system.q_roots
    q_start, delta = q[system.indices], system.offsets
    if not np.any(delta):
        # symbol identically trivial: only the coincident subset, weight 1
        return 1.0 + 0.0j
    theta_p = symbols.eval_theta(spec, p)
    if not np.all(theta_p):
        # theta vanishes at a grid point, which the root then never leaves:
        # F(p) = 0 and the Cauchy matrix is singular
        return 0.0 + 0.0j
    theta_q = symbols.eval_theta(spec, q)
    g = q ** (1 + x) * theta_q / (1.0 + theta_q)
    root_terms = (1 - x) * np.log(p) - np.log(_angular_density(spec, p, L))
    if N < L:
        # p_i - q_j = (q_start_i - q_j) + delta_i: exact where q_j = q_start_i
        cmat = 1.0 / (q_start[:, None] - q[None, :] + delta[:, None])
        sign, logdet = np.linalg.slogdet((cmat * g) @ cmat.T)
        log_total = (np.sum(root_terms + np.log(theta_p)) + logdet +
                     np.log(sign) - 2.0 * N * np.log(float(L)))
    else:
        # p^L - 1 = (1 + delta/q)^L - 1 without cancellation; theta(p_i)
        # g(q_i) / (p_i^L - 1)^2 is one factor per root, so the large
        # logarithms of a small theta cancel before the sum, not in it
        ratio = theta_p * g / np.expm1(L * _log1p(delta / q_start)) ** 2
        log_total = (np.sum(root_terms + np.log(ratio)) +
                     _log_row_ratios(delta, q_start))
    return errors.exp_in_range(log_total)

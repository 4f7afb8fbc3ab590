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
    residuals: np.ndarray


def _chosen_indices(L: int, N: int) -> np.ndarray:
    """N grid indices closest to the positive real axis, in grid order."""
    j = np.arange(L)
    ang = np.angle(np.exp(2j * np.pi * j / L))
    order = np.argsort(np.abs(ang), kind="stable")
    return np.sort(order[:N])


def solve_shifted(spec: symbols.SymbolSpec, L: int, N: int | None = None
                  ) -> RootSystem:
    """Continue N unit roots of p^L = 1 into roots of p^L * phi(p) = 1.

    The symbol is switched on through phi^t, t: 0 -> 1; the logarithm of phi
    is tracked continuously along each root's path so no branch choice is
    ever taken from scratch.
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

    p = q_roots[idx].astype(complex)
    logphi = np.log(symbols.eval_phi(spec, p))  # principal start, then tracked

    def step_log(p_old, p_new, l_old):
        ratio = symbols.eval_phi(spec, p_new) / symbols.eval_phi(spec, p_old)
        return l_old + np.log(ratio)

    for t in np.linspace(0.0, 1.0, HOMOTOPY_STEPS + 1)[1:]:
        for it in range(NEWTON_MAXIT):
            g = p ** L * np.exp(t * logphi) - 1.0
            dlog = symbols.eval_dphi(spec, p) / symbols.eval_phi(spec, p)
            dg = (g + 1.0) * (L / p + t * dlog)
            delta = g / dg
            p_new = p - delta
            logphi = step_log(p, p_new, logphi)
            p = p_new
            if np.max(np.abs(delta)) < NEWTON_TOL:
                break
        else:
            bad = int(idx[int(np.argmax(np.abs(delta)))])
            raise errors.NewtonDiverged(bad)

    residuals = np.abs(p ** L * symbols.eval_phi(spec, p) - 1.0)
    if np.max(residuals) > RESIDUAL_TOL:
        bad = int(idx[int(np.argmax(residuals))])
        raise errors.NewtonDiverged(bad)
    if N > 1:
        dist = np.abs(p[:, None] - p[None, :])
        np.fill_diagonal(dist, np.inf)
        if dist.min() < DISTINCT_TOL:
            raise errors.DegenerateZeros(
                f"shifted roots collide: min distance {dist.min():.2e}")
    return RootSystem(spec=spec, L=L, N=N, q_roots=q_roots, indices=idx,
                      p_roots=p, residuals=residuals)


def _angular_density(spec: symbols.SymbolSpec, p: np.ndarray, L: int):
    """1 + (2 pi / L) * (angular derivative of the phase shift) at p."""
    dlog = symbols.eval_dphi(spec, p) / symbols.eval_phi(spec, p)
    return 1.0 + p * dlog / L


def _log_row_ratios(p: np.ndarray, q: np.ndarray) -> complex:
    """sum_i log prod_{j != i} (p_j - p_i) / (q_j - q_i).

    Taken ROW_BLOCK rows at a time, so no n x n temporary is built; the
    diagonal is set to 1/1 before dividing.
    """
    total = 0.0 + 0.0j
    for start in range(0, p.size, ROW_BLOCK):
        rows = np.arange(start, min(start + ROW_BLOCK, p.size))
        num = p[None, :] - p[rows, None]
        den = q[None, :] - q[rows, None]
        num[rows - start, rows] = 1.0
        den[rows - start, rows] = 1.0
        total += np.sum(np.log(np.prod(num / den, axis=1)))
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
    if np.max(np.abs(p - q[system.indices])) < 1e-12:
        # symbol identically trivial: only the coincident subset, weight 1
        return 1.0 + 0.0j
    theta_p = symbols.eval_theta(spec, p)
    if not np.all(theta_p):
        # theta vanishes at a grid point, which the root then never leaves:
        # F(p) = 0 and the Cauchy matrix is singular
        return 0.0 + 0.0j
    theta_q = symbols.eval_theta(spec, q)
    g = q ** (1 + x) * theta_q / (1.0 + theta_q)
    log_total = np.sum((1 - x) * np.log(p) + np.log(theta_p) -
                       np.log(_angular_density(spec, p, L)))
    if N < L:
        cmat = 1.0 / (p[:, None] - q[None, :])
        sign, logdet = np.linalg.slogdet((cmat * g) @ cmat.T)
        log_total += logdet + np.log(sign) - 2.0 * N * np.log(float(L))
    else:
        log_total += (_log_row_ratios(p, q[system.indices]) +
                      np.sum(np.log(g) - 2.0 * np.log(p ** L - 1.0)))
    if abs(log_total.real) > 700.0:
        raise errors.OverflowGuard(
            f"log-magnitude {log_total.real:.1f} exceeds safe range")
    return complex(np.exp(log_total))

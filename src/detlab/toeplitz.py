"""Exact reference values: finite determinants of Fourier moments.

This module is the ground truth for the whole library; it depends on the
symbol layer and the contour selection, and shares the one sampling rule,
``cauchy._converged_split``, with the kernel/asymptotics machinery.  Its
one log-determinant of a moment vector, ``moment_log_det``, also serves
the y-moment determinant of the winding-corrected formula and the Gram
minors of the orthogonality measure.

The determinant of the x-by-x moment matrix T_ij = c_{i-j} is taken in the
log domain and exponentiated once.  A Laurent polynomial P(q)/(a q^p) that
does not wind on its sampling circle has a banded T, whose finite sections
are stable (Boettcher and Grudsky, Spectral Properties of Banded Toeplitz
Matrices, SIAM 2005): past the order BLOCK its determinant is a block
elimination whose Schur complements reach a fixed point within a few
blocks, so it costs a few small LUs at any x, and its 2b + 1 moments, which
do not depend on x, come from one sample sized by the band b, not by x.
Every other symbol takes the dense LU of T (``np.linalg.slogdet``) below
the order LEVINSON_MIN and from there the nonsymmetric Levinson recursion
(Trench, J. SIAM 12 (1964); Zohar, J. ACM 21 (1974)) in O(x^2) time and
O(x) memory, as the sum of the logarithms of its prediction errors.
Where a reflection coefficient shows a (nearly) singular leading minor, or
a block is singular or its Schur complement grows, the method is not
trusted and the dense LU of the same matrix takes over.
"""

from __future__ import annotations

import math

import numpy as np

from . import errors, symbols
from ._series import circle_nodes, pow2_at_least
from .cauchy import _converged_split
from .contours import base_contour

# Largest |alpha|, |gamma| and |alpha gamma| / |1 - alpha gamma| (the
# cancellation in eps_{k+1}) the recursion accepts; past it a leading minor is
# nearly singular and the dense LU takes over.  Measured error model against
# 50-digit arithmetic on the same moments, g the largest of the three over all
# steps: |delta log det| <~ x eps g for large g (phi = q - 10.75/q + 5.25/q^2
# + delta, delta = 1e-1 .. 1e-12, x = 3 .. 200) and <= 40 x eps max(g, 1) on
# random rational symbols (winding -2..5, x <= 300, g <= 4).  At this bound
# x eps g <= 2.3e-11 for x <= 1024; F0-F7 and the benchmark's random symbols
# keep g <= 1.7.  The block elimination takes the same bound on the growth of
# its Schur complements' entries over those of A_0.
GROWTH_MAX = 100.0
# Smallest order whose determinant ``toeplitz_det`` takes by the recursion
# where the symbol is not banded: below it the dense LU is faster, as each
# step of the recursion pays 7-9 us of NumPy call overhead (CHANGES.md holds
# the timings).
LEVINSON_MIN = 192
# Rows per block of ``_block_log_det``, at least the band: the fastest of 16,
# 24 and 32 rows on the benchmark's x sweep, and of 16 ... 64 in F4's
# elimination at x = 1024 (CHANGES.md holds the timings).
BLOCK = 32


def _sample_radius(spec: symbols.SymbolSpec) -> float:
    """Radius of the circle where phi does not wind; 1 if no circle
    separates the selected zeros (an InputError of the contour choice).  A
    numerical failure, such as a winding quadrature that is not finite,
    raises."""
    try:
        return base_contour(spec)
    except errors.InputError:
        return 1.0


def moment_table(spec: symbols.SymbolSpec, x: int) -> np.ndarray:
    """The moment vector rho^k c_k of phi, k = -x .. x, for a positive
    integer order x, sampled on the circle |q| = rho where phi does not
    wind: the matrix becomes D T D^{-1}, D = diag(rho^i), with the same
    determinant, better conditioned.  Read from phi's converged split."""
    x = errors.check_x(x)
    if x == 0:
        raise errors.InputError("matrix order must be positive")
    rho = _sample_radius(spec)
    split, _ = _converged_split(lambda m: (symbols.eval_phi(
        spec, circle_nodes(rho, m)), rho), pow2_at_least(max(256, 8 * x)))
    return split.c[np.abs(split.j) <= x]


def _levinson_log_det(moments: np.ndarray):
    """log det T_x = sum_k log eps_k by the nonsymmetric Levinson recursion.

    T_k p_k = eps_k e_0 and T_k q_k = eps_k e_{k-1} with p_k[0] = q_k[-1] = 1
    define the forward and backward predictors; with the residuals
    eta = sum_j c_{k-j} p_k[j] and xi = sum_j c_{-1-j} q_k[j], the reflection
    coefficients alpha = eta/eps_k, gamma = xi/eps_k give
    p_{k+1} = (p_k, 0) - alpha (0, q_k), q_{k+1} = (0, q_k) - gamma (p_k, 0)
    and eps_{k+1} = eps_k (1 - alpha gamma).  Returns None when eps_k is 0 or
    non-finite or a coefficient passes GROWTH_MAX.
    """
    x = moments.size // 2
    # rows c_x .. c_1 and c_-x .. c_-1, conjugated for vecdot
    rows = np.conj(np.stack([moments[:x:-1], moments[:x]]))
    # rows p_k and q_k reversed, so that both updates read the other row
    # backwards from index k
    pred = np.zeros((2, x), dtype=complex)
    pred[:, 0] = 1.0
    coef = np.zeros((2, 1), dtype=complex)
    errs = np.empty(x, dtype=complex)
    eps = errs[0] = complex(moments[x])
    for k in range(1, x):
        if not 0.0 < abs(eps) < math.inf:
            return None
        eta, xi = np.vecdot(rows[:, x - k:], pred[:, :k]).tolist()
        alpha, gamma = eta / eps, xi / eps
        shrink = 1.0 - alpha * gamma
        if not (abs(alpha) <= GROWTH_MAX and abs(gamma) <= GROWTH_MAX and
                abs(alpha * gamma) <= GROWTH_MAX * abs(shrink)):
            return None
        coef[0, 0], coef[1, 0] = alpha, gamma
        pred[:, :k + 1] -= coef * pred[::-1, k::-1]
        eps = errs[k] = eps * shrink
    if not 0.0 < abs(eps) < math.inf:
        return None
    return complex(np.sum(np.log(errs)))


def _laurent_band(spec: symbols.SymbolSpec):
    """The band b of T_x, c_k = 0 for |k| > b, when phi = P(q)/(a q^p) is a
    Laurent polynomial with exactly p zeros of P inside its sampling circle,
    so that it does not wind there; None for every other symbol.  Read from
    the coefficients, since moments sampled past the band are rounding."""
    form = symbols.laurent_polynomial(spec)
    if form is None:
        return None
    p, coeffs = form
    try:
        winds = symbols.winding_on(spec, base_contour(spec))
    except errors.InputError:   # phi winds on every circle it could take
        return None
    return None if winds else max(p, len(coeffs) - 1 - p)


def _slogdet(mat: np.ndarray) -> complex:
    sign, log_abs = np.linalg.slogdet(mat)
    return complex(log_abs, np.angle(sign))


def _block_log_det(moments: np.ndarray, band: int):
    """log det T_x of moments zero past ``band`` by block elimination.

    With blocks of B = max(BLOCK, band) rows T_x is block tridiagonal, A_0
    on the diagonal, A_below and A_above beside it, and log det T_x =
    sum_k log det S_k over the Schur complements S_1 = A_0, S_{k+1} = A_0 -
    A_below S_k^-1 A_above; a last partial block of r rows adds the leading
    r-by-r minor of its S.  A_below and A_above touch only the leading
    band-by-band corner.  Once S_{k+1} equals S_k bit for bit, every later
    block repeats it, and its log det counts once per block left.  With
    B >= x this is the dense LU of T_x, every moment kept.  Blocks are not
    pivoted against each other: None when a block is singular or an entry
    of S passes GROWTH_MAX times the largest of A_0, for the dense LU to
    take the order."""
    x = moments.size // 2
    size = max(BLOCK, band)
    span = np.arange(min(size, x))
    offsets = np.subtract.outer(span, span)
    if size >= x:
        # one block: the dense LU, whose value stands as it is
        return _slogdet(moments[offsets + x])
    # c_k at index mid + k, |k| < 2 B, zero past the band
    mid = 2 * size - 1
    c = np.zeros(2 * mid + 1, dtype=complex)
    c[mid - band:mid + band + 1] = moments[x - band:x + band + 1]
    offsets += mid
    a0 = c[offsets]
    below, above = c[offsets[:band] + size], c[offsets[:, :band] - size]
    blocks, rest = divmod(x, size)
    bound = GROWTH_MAX * np.max(np.abs(a0))
    schur, log_det = a0, 0j
    for k in range(1, blocks + 1):
        block = _slogdet(schur)
        if not math.isfinite(block.real):
            return None
        log_det += block
        if k == blocks and not rest:
            break
        step = a0.copy()
        step[:band, :band] -= below @ np.linalg.solve(schur, above)
        if not np.max(np.abs(step)) <= bound:
            return None
        if np.array_equal(step, schur):
            log_det += (blocks - k) * block
            break
        schur = step
    if rest:
        log_det += _slogdet(schur[:rest, :rest])
    return log_det if math.isfinite(log_det.real) else None


def moment_log_det(moments: np.ndarray, band: int | None = None) -> complex:
    """log det T_k, T_ij = c_{i-j}, for the moment vector c_-k .. c_k (c_0
    at index k; c_-k and c_k are not read), as a complex log.  Moments zero
    past ``band`` take the block elimination, one block (the dense LU) up
    to the order BLOCK; others the dense LU below LEVINSON_MIN and the
    Levinson recursion from there.  Where either refuses, the dense LU of
    the same moments."""
    x = moments.size // 2
    if band is not None:
        log_det = _block_log_det(moments, band)
    else:
        log_det = _levinson_log_det(moments) if x >= LEVINSON_MIN else None
    return _block_log_det(moments, x) if log_det is None else log_det


def _log_det(spec: symbols.SymbolSpec, x: int) -> complex:
    """log det T_x, by the path ``toeplitz_det`` takes."""
    x = errors.check_x(x)
    band = _laurent_band(spec) if x > BLOCK else None
    if band is None:
        return moment_log_det(moment_table(spec, x))
    # c_-k .. c_k, k = min(band, x), from the sample of order max(k, 1),
    # 256 nodes up to k = 32, and every moment past k exactly 0
    k = min(band, x)
    table = moment_table(spec, max(k, 1))
    mid = table.size // 2
    moments = np.zeros(2 * x + 1, dtype=complex)
    moments[x - k:x + k + 1] = table[mid - k:mid + k + 1]
    return moment_log_det(moments, band)


def toeplitz_det(spec: symbols.SymbolSpec, x: int) -> complex:
    """Determinant of the x-by-x moment matrix.  Past the order BLOCK, a
    Laurent polynomial that does not wind on its sampling circle takes the
    block elimination of its banded matrix, its 2b + 1 moments read from
    ``moment_table`` of order b, so that no sample grows with x; any other
    symbol takes the dense LU below LEVINSON_MIN and the Levinson recursion
    from there, on ``moment_table(spec, x)``.  Where either refuses, the
    dense LU of the same moments takes over.  OverflowGuard when |det|
    leaves the normal double range on either side."""
    return errors.exp_in_range(_log_det(spec, x))

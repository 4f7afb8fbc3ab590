"""Exact reference values: finite determinants of Fourier moments.

This module is the ground truth for the whole library; it depends on the
symbol layer and the contour selection, and shares only the one sampling
rule, ``cauchy._converged_split``, with the kernel/asymptotics machinery.

The determinant of the x-by-x moment matrix T_ij = c_{i-j} is taken in the
log domain and exponentiated once.  Below the order LEVINSON_MIN it is the
dense LU of T (``np.linalg.slogdet``); from LEVINSON_MIN on it is the
nonsymmetric Levinson recursion (Trench, J. SIAM 12 (1964); Zohar, J. ACM 21
(1974)) in O(x^2) time and O(x) memory, as the sum of the logarithms of its
prediction errors.  Where a reflection coefficient shows a (nearly) singular
leading minor, the recursion is not trusted and the dense LU of the same
matrix takes over.
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
# keep g <= 1.7.
GROWTH_MAX = 100.0
# Smallest order whose determinant ``toeplitz_det`` takes by the recursion;
# below it the dense LU is faster, since each step of the recursion pays
# 7-9 us, mostly NumPy call overhead.  Median us of 21 interleaved runs,
# recursion / gather + slogdet of the same moments, 1 BLAS thread on a
# 2-vCPU x86-64 host:
#     x      F4             F1
#     8        50 / 13        53 / 14
#     64      675 / 111      457 / 87
#     128    1223 / 447      870 / 536
#     160    1553 / 1138    1124 / 1221
#     176    1724 / 1556    1351 / 1438
#     192    1871 / 1883    2036 / 1968
#     208    2033 / 2276    2204 / 2360
#     256    2571 / 3719    2746 / 3795
LEVINSON_MIN = 192


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


def _gather(moments: np.ndarray) -> np.ndarray:
    x = moments.size // 2
    return moments[np.subtract.outer(np.arange(x), np.arange(x)) + x]


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


def toeplitz_det(spec: symbols.SymbolSpec, x: int) -> complex:
    """Determinant of the x-by-x moment matrix: by dense LU for x below
    LEVINSON_MIN, by the Levinson recursion from LEVINSON_MIN on, and by
    dense LU again where the recursion passes its growth bound;
    OverflowGuard when |det| leaves the normal double range on either
    side."""
    moments = moment_table(spec, x)
    log_det = _levinson_log_det(moments) if x >= LEVINSON_MIN else None
    if log_det is None:
        sign, log_abs = np.linalg.slogdet(_gather(moments))
        log_det = complex(log_abs, np.angle(sign))
    return errors.exp_in_range(log_det)

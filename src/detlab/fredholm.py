"""Nystrom machinery: integrable kernels, determinants, explicit resolvent.

Every kernel here is integrable with r generator pairs (f_k, g_k),

    K(q,p) = a(q) a(p) sum_k f_k(q) g_k(p) / (2 pi i (p - q)),

sum_k f_k g_k = 0, with the diagonal given by the analytic limit
a^2 sum_k f_k g_k' / (2 pi i).  A kernel's one callable ``generators(q)``
returns (a, f, g, dg) at the nodes q, f, g and dg = (g_k') sequences of r
arrays, so a fill forms the pieces they share, like q^{+-x/2}, once.  S, V
and the resolvent have f = (vm, -vp) and g = (vp, vm).
Half-integer powers and square roots use the principal branch per node: a
different branch choice multiplies the Nystrom matrix by D K D with D a
diagonal of signs, which is a similarity and leaves determinants, traces and
the resolvent identity unchanged.

Every kernel carries its bandwidth ``x``, a nonnegative integer: a
trapezoid grid of m <= x nodes aliases its generators' q^{+-x/2}.  Its
``reach``, None or a callable radius -> ``Reach``, gives its modes past
q^{+-x/2} on that circle and, from exact data only, a bound on what a grid
folds back; ``nystrom_det`` trusts one grid on that bound alone, and
otherwise runs a ladder of grids (README, Fredholm determinants).

V has one split form, ``kernel_V``, and one residue form; the residue form,
``kernel_W`` and the suite's residue weights read z^{+-x}/phi'(z) from
``cauchy.residue_coefficient``.  S is the residue form over no zeros.

Grid forms.  Where a kernel's divided difference has finite rank, a grid of
``circle_nodes`` takes det(Id + K) = prod delta det(I + C^T P) from an r x
r matrix (``Factors``, ``_v_form``, ``_jacobi_det``), by either side of
Jacobi's complementary-minor identity (Boettcher and Widom, "Szego via
Jacobi", Linear Algebra Appl. 419 (2006)), which README derives; for S the
two sides read D_x(phi_m) = prod_j phi(q_j) D_n((1/phi)_m), n = m - x.  S
and both forms of V have both sides; ``kernel_W``, the rank-one kernel of
``rank_one_shift_identity`` and ``kernel_sum`` the direct side alone.
``_grid_det`` takes the side with fewer columns, and the dense LU of the
filled matrix every grid that neither side serves.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import errors, symbols
from ._series import (circle_nodes, circle_weights, grid_of, grid_powers,
                      grid_sums, pow2_at_least)
from .cauchy import (TAIL_TOL, CauchySuite, _converged_split,
                     residue_coefficient, suite_for)

ROW_BLOCK = 64   # rows of node gaps formed at a time, small enough for cache
# Smallest grid whose determinant ``_grid_det`` takes by the complementary
# side, the determinant lemma: the smallest m timed at which the lemma beat
# fill + LU on S and V of F1, F3 and F4 (breaking even near 48).
LEMMA_MIN = 56
# Largest entry of the complementary side's C^T P (C^T divided by delta)
# that ``_lemma_det`` accepts; past it (for S, |phi| below about 1/100 on
# the grid) the dense LU takes the grid.
GROWTH_MAX = 100.0
M_START = 32     # largest first margin of Nystrom nodes over the bandwidth x
M_CAP = 1024     # default cap on Nystrom nodes on the circle
TOL = 1e-10      # default agreement of two successive Nystrom determinants


@dataclass(frozen=True)
class DetResult:
    """det(Id + K) from ``nystrom_det``.  ``grids`` lists the node counts
    tried, the last one ``m_used``.  A ladder has in ``drifts`` |det - det
    before| on each grid after the first, and its ``err_estimate`` is the
    last drift.  A single grid has no ``drifts``; its ``err_estimate`` is
    m_used times its kernel's bound on what the grid folds into each entry,
    times max(1, |det|), taken only where that and the LU's rounding,
    ``lu_rounding``, are within tol together.  Neither estimate counts
    that rounding."""
    value: complex
    err_estimate: float
    grids: tuple
    drifts: tuple

    @property
    def m_used(self) -> int:
        """Node count of the grid that gave ``value``, the last tried."""
        return self.grids[-1]

    @property
    def lu_rounding(self) -> float:
        """m^2 eps max(1, |det|) on m = m_used nodes: the first-order bound
        on an LU's rounding of order m, without its condition number."""
        return self.m_used ** 2 * np.finfo(float).eps * max(1.0,
                                                              abs(self.value))


class Factors(NamedTuple):
    """One side of Jacobi's identity on a grid of m ``circle_nodes``
    (module docstring): Id + K, up to a similarity, is (I + P C^T)
    diag(delta), with P's columns u^b for b in ``powers`` and then the rows
    of ``cols``, and C^T's rows g u^-s for s in ``spows`` and then the rows
    of ``rows``; u = q/radius, and P's k-th column pairs with C^T's k-th
    row.  On the direct side ``delta`` is None, the identity, and g is
    theta/m at the nodes; on the complementary side delta is phi at the
    nodes and g = -theta/(m phi)."""
    g: np.ndarray
    powers: np.ndarray
    cols: np.ndarray
    spows: np.ndarray
    rows: np.ndarray
    delta: Optional[np.ndarray] = None


class Reach(NamedTuple):
    """A kernel's ``reach`` on one circle: ``modes``, how many modes its
    generators carry past q^{+-x/2} above TAIL_TOL, and ``folds(n)``, a
    bound on what a grid of x + n nodes folds into each entry, relative to
    the kernel's leading term (``nystrom_det``), or None where the modes
    are not exact, or where the determinant is near singular (S and V's
    residue form on a circle where phi winds, ``kernel_V_residue``)."""
    modes: int
    folds: Optional[Callable[[int], float]]


class Kernel:
    """Integrable kernel from ``generators`` (module docstring): its fill is
    sum_k (a f_k) (x) (g_k a w / (2 pi i)) over the node gaps q_j - q_i.
    Its grid ``form`` is None or gives the same determinant without the
    fill, by either side of Jacobi's identity: a callable (nodes, weights,
    complementary) -> that side's ``Factors`` on a grid of
    ``circle_nodes``, or None to hand the grid on; ``rank`` is the count r
    of the direct side's columns, None where it has none."""

    def __init__(self, generators, x: int = 0, reach=None, form=None,
                 rank=None):
        self.generators = generators
        self.x = errors.check_x(x)
        self.reach = reach
        self.form = form
        self.rank = rank

    def matrix(self, nodes, weights):
        """The m x m Nystrom matrix: the m x r generator columns a f_k times
        the r x m rows g_k a w / (2 pi i), divided by the node gaps, and the
        diagonal a^2 w sum_k f_k g_k' / (2 pi i)."""
        a, f, g, dg = self.generators(nodes)
        r = a * weights / (2j * np.pi)
        mat = _divide_by_gaps(np.stack([a * fk for fk in f], axis=1) @
                              np.stack([gk * r for gk in g]), nodes)
        np.fill_diagonal(mat, a * r * sum(fk * dgk for fk, dgk in zip(f, dg)))
        return mat


def _divide_by_gaps(mat, nodes):
    """mat[i, j] / (nodes[j] - nodes[i]) off the diagonal, in place, the gaps
    formed ROW_BLOCK rows at a time; the diagonal is the caller's."""
    for start in range(0, nodes.size, ROW_BLOCK):
        gaps = nodes[None, :] - nodes[start:start + ROW_BLOCK, None]
        np.fill_diagonal(gaps[:, start:], 1.0)
        mat[start:start + ROW_BLOCK] /= gaps
    return mat


def _rank_one(a, q, u, v, dv):
    """Generators of a(q) a(p) u(q) v(p) / (2 pi i), by
    u(q) v(p) (p - q) = u(q) p v(p) - q u(q) v(p)."""
    return a, (u, -q * u), (q * v, v), (v + q * dv, dv)


def kernel_sum(parts: list) -> Kernel:
    """The sum of the kernels ``parts``, which share a: their pairs, in
    order, with the largest x of the parts, and as reach on a circle the
    largest of their ``_first_reach`` modes there, with no bound.  Where
    every part has a direct side and one x, so one similarity serves them
    all, the sum's direct side stacks their columns: I + sum_k P_k C_k^T =
    I + [P_1 P_2 ...][C_1 C_2 ...]^T, the monomial columns and rows of the
    parts after the first written out on the grid.  It has no
    complementary side."""
    def generators(q):
        a, *pairs = zip(*(k.generators(q) for k in parts))
        return (a[0], *(list(itertools.chain(*rows)) for rows in pairs))

    def form(nodes, weights, complementary):
        if complementary:
            return None
        forms = [k.form(nodes, weights, False) for k in parts]
        if any(f is None for f in forms):
            return None
        m, first = nodes.size, forms[0]
        cols, rows = [first.cols], [first.rows]
        for f in forms[1:]:
            cols += [grid_powers(m, b) for b in f.powers] + [f.cols]
            rows += [f.g * grid_powers(m, -s) for s in f.spows] + [f.rows]
        return first._replace(cols=np.vstack(cols), rows=np.vstack(rows))

    stacked = parts and all(k.rank is not None and k.x == parts[0].x
                            for k in parts)

    def reach(radius):
        return Reach(max((_first_reach(k, radius).modes for k in parts),
                         default=M_START), None)

    return Kernel(generators, max((k.x for k in parts), default=0), reach,
                  form if stacked else None,
                  sum(k.rank for k in parts) if stacked else None)


def _first_reach(kernel, radius: float) -> Reach:
    """The kernel's ``reach`` on the circle of ``radius``, its modes clipped
    to [1, M_START] and its folds dropped where they were clipped; M_START
    with no bound for a kernel without one."""
    if kernel.reach is None:
        return Reach(M_START, None)
    modes, folds = kernel.reach(radius)
    if modes > M_START:
        return Reach(M_START, None)
    return Reach(max(1, modes), folds)


def _bandwidth(j, c, part=True, tol=TAIL_TOL) -> int:
    """Largest |j| among the modes ``part`` selects whose coefficient c_j
    lies within ``tol`` of the largest of all; 0 when none does."""
    mag = np.abs(c)
    keep = (mag > 0) & (mag >= tol * np.max(mag)) & part
    return int(np.max(np.abs(j[keep]), initial=0))


def _theta_reach(spec: symbols.SymbolSpec, radius: float,
                 tail_modes: int = 0, tail=None) -> Reach:
    """Reach of a kernel whose theta is the symbol's on the circle of
    ``radius`` and whose w = q^x + sum_nu d_nu q^-nu carries ``tail_modes``
    modes past q^x: theta's ``_bandwidth`` or that count, whichever is
    more.  For phi = P(q)/(a q^p) (``symbols.laurent_polynomial``) with
    |d_nu| relative to q^x at most ``tail(nu)``, in Python scalars: from
    c_j = (P_(j+p)/a) radius^j - delta_(j,0), none past the band, and E[k],
    the largest |c_j| over |j| >= k relative to the largest of all,
    folds(n) = E[n + 1] + sum_nu tail(nu) E[|n - nu|] over the nu with
    |n - nu| at most the band, past which E is 0.  Without ``tail``, and
    for any other symbol, whose modes come from theta's converged split
    there from 256 nodes, no bound."""
    form = symbols.laurent_polynomial(spec)
    if form is None:
        split, _ = _converged_split(lambda m: (symbols.eval_theta(
            spec, circle_nodes(radius, m)), radius), 256)
        return Reach(max(_bandwidth(split.j, split.c), tail_modes), None)
    p, coeffs = form
    size = [0.0] * (max(p, len(coeffs) - 1 - p) + 1)   # largest |c_j| at |j|
    for i, a in enumerate(coeffs + (0.0,) * (p + 1 - len(coeffs))):
        size[abs(i - p)] = max(size[abs(i - p)],
                               abs(a * radius ** (i - p) - (i == p)))
    top = max(size)
    modes = max(max((k for k, mag in enumerate(size)
                     if mag > 0 and mag >= TAIL_TOL * top), default=0),
                tail_modes)
    if tail is None:
        return Reach(modes, None)
    env = [e / (top or 1.0)
           for e in itertools.accumulate(size[::-1], max)][::-1]
    last = len(env) - 1

    def folds(n):
        return (env[n + 1] if n < last else 0.0) + sum(
            tail(nu) * env[abs(n - nu)]
            for nu in range(max(1, n - last), n + last + 1))
    return Reach(modes, folds)


def _residue_reach(spec: symbols.SymbolSpec, x: int, res,
                   rho: float) -> Reach:
    """Reach of a residue tail -sum_z c_z/(z - q) over the pairs ``res`` of
    a zero z and its c_z = z^x/phi'(z) on the circle of rho, V's residue
    form or W's one zero.  Its mode nu is sum_z c_z z^(nu - 1) q^-nu, at
    most sum_z |c_z| |z|^(nu - 1)/rho^(x + nu) of q^x there, which bounds
    what a grid folds on a Laurent polynomial.  It carries theta's
    bandwidth or ceil(log TAIL_TOL / log(max|z|/rho)) - x modes, whichever
    is more, the count without the weights c_z; M_START, with no bound,
    unless max|z| < rho.  Over no zeros it is theta's bandwidth, and the
    grid folds theta's modes alone."""
    top = max((abs(z) for z, _ in res), default=0.0) / rho
    if top >= 1.0:
        return Reach(M_START, None)
    poles = math.ceil(math.log(TAIL_TOL) / math.log(top)) - x if top else 0
    # (|c_z|/rho^(x + 1), |z|/rho), the first by logarithms, as rho^x alone
    # may underflow
    pairs = [(math.exp(math.log(abs(c)) - (x + 1) * math.log(rho))
              if c else 0.0, abs(z) / rho) for z, c in res]
    return _theta_reach(spec, rho, poles, lambda nu: sum(
        w * r ** (nu - 1) for w, r in pairs))


def _halfpows(q, x):
    """Principal q^{x/2} and q^{-x/2}, the second its own power rather than
    the reciprocal of the first, which would round differently; the sign
    ambiguity is harmless (see module docstring)."""
    return q ** (x / 2.0), q ** (-x / 2.0)


def _kernel_V_generic(theta, tail, x, reach, form=None, rank=None):
    """Generators a = sqrt(theta), vp = q^{-x/2} w = q^{x/2} + q^{-x/2} tail
    and vm = q^{-x/2} for the deformation function w = q^x + tail, where
    tail(q) returns the part of w analytic outside the contour and its
    derivative; q^x, which overflows on radii past 2 at x = 1024, is never
    formed."""
    def generators(q):
        hp, hm = _halfpows(q, x)
        t, dt = tail(q)
        vp = hp + hm * t
        return (np.sqrt(theta(q)), (hm, -vp), (vp, hm),
                ((x / 2.0) * hp / q + hm * (dt - (x / 2.0) * t / q),
                 (-x / 2.0) * hm / q))

    return Kernel(generators, x, reach, form, rank)


def kernel_V(spec: symbols.SymbolSpec, x: int, radius: float) -> Kernel:
    """Deformed kernel of the symbol ``spec`` on the circle of ``radius``;
    exact Toeplitz value when no zeros of phi remain outside that circle.
    Its w is q^x plus the outside part of the converged split of q^x
    theta/(1 + theta) from max(512, 4x) nodes, rounded up to a power of
    two, so its modes near j = x never fold; OverflowGuard when q^x
    overflows on the circle.  Its reach, on this circle, is
    ``_theta_reach``'s with the count N of that outside part's modes
    (``_bandwidth``), read from samples, so with no bound.  Its fill and
    its grid form (``_v_form``, on grids of this circle) read one tail, the
    outside modes down to max(x, 16) eps of the split's largest (at most
    TAIL_TOL), so neither carries the split's rounding."""
    x = errors.check_x(x)
    theta = functools.partial(symbols.eval_theta, spec)

    def sample(m):
        nodes = circle_nodes(radius, m)
        t = theta(nodes)
        with np.errstate(over="ignore", invalid="ignore"):
            density = nodes ** x * t / (1.0 + t)
        if not np.all(np.isfinite(density)):
            raise errors.OverflowGuard(
                f"q^x density overflows at x={x} on radius {radius:.4g}")
        return density, radius

    split, _ = _converged_split(sample, max(512, pow2_at_least(4 * x)))
    modes = _bandwidth(split.j, split.c, split.j < 0)
    # the fill and the grid form keep the outside modes down to max(x, 16)
    # eps of the split's largest, TAIL_TOL past x = 450: the split's
    # rounding lies below that, as its samples of q^x round like x eps
    # (outside modes of F1, F2 and F6 up to x eps/3.6 at x = 64 ... 1024,
    # 3.5 eps at small x), while the modes between it and TAIL_TOL move the
    # determinant by more than rounding (the kernel-split check of F4 at
    # x = 3 reads 1.5e-11 cut at TAIL_TOL, 6.7e-14 here, 1.2e-13 with every
    # mode, rounding included)
    kept = _bandwidth(split.j, split.c, split.j < 0,
                      min(max(x, 16) * np.finfo(float).eps, TAIL_TOL))
    tail = split.keep(split.j >= -kept)
    # w's tail sum_nu t_nu u^-nu, u = q/radius: t_nu = -c_(-nu)
    coeffs = -split.c[split.j < 0][::-1][:kept]

    def reach(rho):
        # read on this circle, the one every caller factors the kernel on
        return _theta_reach(spec, radius, modes)

    def form(nodes, weights, complementary):
        if grid_of(nodes)[0] != radius:
            return None
        return _v_form(theta, x, (), coeffs, nodes, weights, complementary)

    return _kernel_V_generic(
        theta, lambda q: (tail.minus(q), tail.minus(q, 1)), x, reach, form,
        x + kept)


def kernel_V_residue(spec: symbols.SymbolSpec, x: int, zeros_inside) -> Kernel:
    """V with w(q) = q^x - sum_z z^x/(phi'(z)(z - q)) in residue form over
    the zero set ``zeros_inside``.  V is singular only at that set, at 0 and
    at the poles of phi, so det(1 + V) is the same on every circle that
    encloses the zero set, 0 and the same poles of phi.  Other zeros of phi
    do not matter: theta = -1 there, and V is regular.  Its reach is
    ``_residue_reach``'s, with no bound on a circle where phi winds."""
    res = [(complex(z), residue_coefficient(spec, z, x, 0.0))
           for z in zeros_inside]
    theta = functools.partial(symbols.eval_theta, spec)

    def reach(rho):
        # where phi winds on the circle, Id + V is near singular there and
        # its LU rounds far past m^2 eps: on (2q - 0.5)/q^2 at x = 16, where
        # D_16 = 0, its smallest singular value is 1e-15 and 28 nodes read
        # 9e-11, so a second grid confirms the value instead
        read = _residue_reach(spec, x, res, rho)
        winds = read.folds and symbols.winding_on(spec, rho)
        return Reach(read.modes, None) if winds else read

    def tail(q):
        gaps = [(c, z - q) for z, c in res]
        zero = np.zeros(q.shape, dtype=complex)
        return (-sum((c / g for c, g in gaps), zero),
                -sum((c / g ** 2 for c, g in gaps), zero))

    return _kernel_V_generic(
        theta, tail, x, reach,
        functools.partial(_v_form, theta, x, res, ()), x + len(res))


def _by_logs(values, power: int, radius: float):
    """values / radius^power by logarithms, as radius^power alone may leave
    the double range: 0 where a value is 0, inf past the range."""
    with np.errstate(divide="ignore", over="ignore"):
        return np.exp(np.log(np.asarray(values, dtype=complex)) -
                      power * math.log(radius))


def _v_form(theta, x: int, res, tail, nodes, weights,
            complementary: bool) -> Optional[Factors]:
    """One side's ``Factors`` of V over the pairs ``res`` of a zero z and
    its c_z = z^x/phi'(z), with the polynomial tail sum_{nu=1..N}
    tail[nu - 1] u^-nu, on a grid of m ``circle_nodes`` (module docstring).
    The sine part has the columns u^b and rows g u^-b, b < x, on the
    direct side, and u^-a and g u^a, a < n = m - x, on the complementary
    side, which takes m > x and hands a grid of at most N nodes on (None).
    The tail's N columns u^(s-1-a), a < N, have the rows -t u^(1-s-x)
    sum_{nu > a} h_nu u^(a-nu), h_nu = tail[nu - 1]/radius^x by logarithms,
    summed by Horner's rule from a = N - 1 down, and each zero has one
    column (``_zero_factors``): t = theta/m and s = 0 on the direct side,
    t = theta/(m phi) and s = 1, the similarity diag(u), on the other."""
    radius, m = grid_of(nodes)
    n_tail, shift, delta = len(tail), int(complementary), None
    if complementary and n_tail >= m:
        return None
    t = theta(nodes) * weights / (2j * np.pi * nodes)   # theta / m
    if complementary:
        delta = 1.0 + m * t
        t = t / delta
        g, sine = -t, -np.arange(m - x)
    else:
        g, sine = t, np.arange(x)
    cols = rows = np.empty((0, m), dtype=complex)
    if n_tail:
        h, inv, acc = _by_logs(tail, x, radius), grid_powers(m, -1), 0.0
        rows = np.empty((n_tail, m), dtype=complex)
        for a in range(n_tail - 1, -1, -1):
            acc = rows[a] = inv * (h[a] + acc)
        rows *= -t * grid_powers(m, 1 - shift - x)
    if res:
        cols, zero_rows = _zero_factors(res, x, nodes, -t, shift)
        rows = np.vstack([rows, zero_rows])
    return Factors(g, np.concatenate([sine, shift - 1 - np.arange(n_tail)]),
                   cols, sine, rows, delta)


def _zero_factors(res, x: int, nodes, lead, shift: int = 0) -> tuple:
    """(cols, rows): P's columns and C^T's rows, times ``lead``, of the
    rank-one terms c_z/((z - q_i)(z - q_j)) of w's divided difference,
    times its rows' q_j^(1-x), over the pairs ``res`` of a zero z and its
    c_z.  Per zero, the column beta radius u^s/(z - q) and the row (r/beta)
    lead u^(1-s-x)/(z - q), r = c_z/radius^(x + 1 - s) by logarithms and
    beta = sqrt|r|, so that both have one scale; s = ``shift``, 1 for the
    complementary side's similarity diag(u) (``_v_form``)."""
    radius, m = grid_of(nodes)
    zeros, c = np.array(res, dtype=complex).reshape(-1, 2).T
    r = _by_logs(c, x + 1 - shift, radius)
    beta = np.where(r != 0, np.sqrt(np.abs(r)), 1.0)
    if shift:   # the same factors as below with s = 1, in another order
        gaps = zeros[:, None] - nodes
        return (beta[:, None] * nodes / gaps,
                lead * (r / beta)[:, None] * grid_powers(m, -x) / gaps)
    gaps = radius / (zeros[:, None] - nodes)
    return (beta[:, None] * gaps,
            (r / beta)[:, None] * gaps * (lead * grid_powers(m, 1 - x)))


def _products(rows, cols):
    """rows @ cols.T, a single row or column by a matrix-vector product: on
    several BLAS threads zgemm with a unit dimension can take milliseconds."""
    if len(rows) == 1:
        return (cols @ rows[0])[None, :]
    if len(cols) == 1:
        return (rows @ cols[0])[:, None]
    return rows @ cols.T


def _lemma_det(delta, cap):
    """det((I + P C^T) diag(delta)) = prod delta det(I + cap), cap = C^T P,
    by the matrix determinant lemma, its logarithms summed and the complex
    value formed only at the end, inf or nan past the double range; None where delta has a zero or a non-finite
    entry, where an entry of cap passes GROWTH_MAX, or where I + cap is
    singular, for ``_grid_det`` to take the grid by LU.  I + cap is scaled
    by the geometric mean of |delta|: for S it is the Toeplitz matrix of
    1/phi, whose pivots tend to 1/G(phi), so the scaled pivots' logarithms
    lie near 0, and slogdet's one-at-a-time sum of them rounds far less
    (split V on F6 at x = 16 and m = 258: 3.4e-13 off E G^x in log
    unscaled, 4e-15 scaled)."""
    size = np.abs(delta)
    if not (np.min(size) > 0 and np.max(size) < np.inf and
            np.max(np.abs(cap)) <= GROWTH_MAX):
        return None
    logs = np.log(size)
    mean = np.mean(logs)
    sign, logdet = np.linalg.slogdet(np.exp(mean) * (cap + np.eye(len(cap))))
    if sign == 0:
        return None
    with np.errstate(over="ignore", invalid="ignore"):
        return complex(sign * np.prod(delta / size) *
                       np.exp(np.sum(logs) - len(cap) * mean + logdet))


def _jacobi_det(form: Factors) -> Optional[complex]:
    """det(Id + K) from one side's ``Factors``, inf or nan past the double
    range.  Each entry of cap = C^T P sums a row of C^T times a column of P
    over the nodes, so one FFT of the rows g, g times each of ``cols`` and
    ``rows`` gives every entry against a monomial (``grid_sums``), and
    rows cols^T the rest: O(r m log m + r^3) for r columns, no m x m
    matrix.  The direct side's det(I + cap) is an LU
    (``np.linalg.det``); the complementary side's is ``_lemma_det``'s,
    None where it hands the grid on."""
    g, powers, cols, spows, rows, delta = form
    ns, nb, k = spows.size, powers.size, len(cols)
    # one FFT of the stacked rows: g read at s - b, the rest at s (g cols)
    # and -b (the explicit rows); S has none of the rest, and skipping
    # their empty blocks takes a fifth off its grid at x <= 5
    if len(rows):
        spectrum = np.fft.fft(np.vstack([g, g * cols, rows]))
        sums = grid_sums(spectrum[1:], np.concatenate([spows, -powers]))
        cap = np.empty((ns + len(rows), nb + k), dtype=complex)
        cap[:ns, :nb] = grid_sums(spectrum[0], spows[:, None] - powers)
        cap[:ns, nb:] = sums[:k, :ns].T
        cap[ns:, :nb] = sums[k:, ns:]
        cap[ns:, nb:] = _products(rows, cols)
    else:
        cap = grid_sums(np.fft.fft(g), spows[:, None] - powers)
    if delta is not None:
        return _lemma_det(delta, cap)
    cap.flat[::len(cap) + 1] += 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        return complex(np.linalg.det(cap))


def kernel_S(spec: symbols.SymbolSpec, x: int) -> Kernel:
    """Bare finite-temperature kernel, diagonal x*theta/(2 pi i q): V with
    w = q^x and no tail, the residue form over no zeros, whose reach is
    theta's Laurent bandwidth."""
    return kernel_V_residue(spec, x, ())


def kernel_W(spec: symbols.SymbolSpec, s: complex, x: int) -> Kernel:
    """Rank-one residue kernel c u(q) u(p) / (2 pi i) at a simple zero s of
    phi, c its residue coefficient and u = sqrt(theta) q^{-x/2}/(s - q); its
    reach is the residue form's at s (``_residue_reach``), and its grid
    form, the direct side alone, the residue form's one column, with the
    sign of + c."""
    c = residue_coefficient(spec, s, x, 0.0)

    def generators(q):
        u = q ** (-x / 2.0) / (s - q)
        return _rank_one(np.sqrt(symbols.eval_theta(spec, q)), q, c * u, u,
                         u * (1.0 / (s - q) - (x / 2.0) / q))

    def form(nodes, weights, complementary):
        if complementary:
            return None
        g = symbols.eval_theta(spec, nodes) * weights / (2j * np.pi * nodes)
        cols, rows = _zero_factors([(s, c)], x, nodes, g)
        return Factors(g, np.arange(0), cols, np.arange(0), rows)

    return Kernel(generators, x,
                  functools.partial(_residue_reach, spec, x, [(s, c)]),
                  form, 1)


def check_grid_cap(x: int, m_cap: int = M_CAP, margin: int = 1) -> None:
    """NotConverged when a kernel of bandwidth x could not be confirmed on
    its first two grids, x + margin and x + 2 margin nodes, under ``m_cap``.
    The default margin 1 gives the shortest ladder: the up-front check of
    ``nystrom_det``, for callers to make before they sample anything."""
    if x + 2 * margin > m_cap:
        raise errors.NotConverged(
            f"bandwidth x = {x} with first margin {margin} needs "
            f"m_cap >= {x + 2 * margin} nodes, got {m_cap}")


def _grid_det(kernel, nodes, weights) -> complex:
    """det(Id + K) on one grid, inf or nan past the double range.  On a
    grid of ``circle_nodes`` it takes the side of Jacobi's identity with
    fewer columns (module docstring), ``_jacobi_det`` of the kernel's
    ``form``: the complementary side on grids of LEMMA_MIN to 2x nodes,
    where n = m - x <= x; the direct side where its rank r is at most m/2.
    Where neither serves, or both hand the grid on, by LU of the filled
    matrix."""
    m = nodes.size
    if kernel.form is not None and grid_of(nodes) is not None:
        if LEMMA_MIN <= m <= 2 * kernel.x:
            form = kernel.form(nodes, weights, True)
            det = None if form is None else _jacobi_det(form)
            if det is not None:
                return det
        if kernel.rank is not None and 2 * kernel.rank <= m:
            form = kernel.form(nodes, weights, False)
            if form is not None:
                return _jacobi_det(form)
    mat = kernel.matrix(nodes, weights)
    np.fill_diagonal(mat, mat.diagonal() + 1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        return complex(np.linalg.det(mat))


def _grid_value(kernel, radius: float, m: int, prev) -> tuple:
    """(det, |det|, |det - prev|) on the grid of m nodes by ``_grid_det``,
    the drift 0 without ``prev``; OverflowGuard once |det| or the drift
    leaves the double range."""
    nodes = circle_nodes(radius, m)
    det = _grid_det(kernel, nodes, circle_weights(nodes, m))
    try:    # abs raises where the modulus of a finite complex overflows
        size, err = abs(det), 0.0 if prev is None else abs(det - prev)
    except OverflowError:
        size = err = np.inf
    if not (np.isfinite(size) and np.isfinite(err)):
        raise errors.OverflowGuard(
            f"|det| {size:.2e} or its drift {err:.2e} at m={m} is past "
            "the double range")
    return det, size, err


def nystrom_det(kernel, radius: float, tol: float = TOL,
                m_cap: int = M_CAP) -> DetResult:
    """det(Id + K) on trapezoidal grids on the origin-centered circle of
    ``radius``, each grid's determinant by ``_grid_det``.  The grids start
    past the kernel's bandwidth x by a margin a: its reach's modes on that
    circle, clipped to [1, M_START] (``_first_reach``; M_START for a kernel
    without a reach), doubled while the grid has fewer than 16 nodes.  Past
    x + a the determinants converge geometrically (Bornemann, Math. Comp.
    79 (2010)).

    One grid: where m folds(2a) (``Reach.folds``, exact data only) plus
    m^2 eps, the LU's rounding (``DetResult.lu_rounding``), is within
    ``tol`` on m = x + 2a nodes, only that grid is filled, with m folds(2a)
    max(1, |det|) as ``err_estimate``: the grid a ladder returns when its
    first two grids agree, so the same value.  To first order the
    determinant moves by at most m times what the grid folds into each
    entry, without the condition number (the residue form with phi'(0.5)
    = -4e-6 moved 6 times the bound at x = 30).  The clip also keeps a
    bound that understates what a grid folds off the single grid:
    ``asymptotics.tau_ratio_swap``'s swapped F4 kernel, 132 modes on
    radius 2.75, has grids m = 40 ... 140 off by 2.1 times m folds(m - 3).

    Otherwise a ladder of m = x + a 2^k nodes, k = 0, 1, ...: the first
    two grids that agree to tol max(1, |det|) give the later one's value,
    with their drift as ``err_estimate``.  InputError unless radius > 0;
    raises NotConverged when the next grid would pass ``m_cap``, and, by
    ``check_grid_cap``, up front before any sampling and again once the
    first margin is read, before any fill; OverflowGuard once |det| or its
    drift between two grids leaves the double range."""
    if not radius > 0:
        raise errors.InputError(f"circle radius {radius} is not positive")
    x = kernel.x
    check_grid_cap(x, m_cap)
    margin, folds = _first_reach(kernel, radius)
    while x + margin < 16:
        margin *= 2
    check_grid_cap(x, m_cap, margin)
    m = x + 2 * margin
    bound = math.inf if folds is None else m * folds(2 * margin)
    if bound + m * m * np.finfo(float).eps <= tol:
        det, size, _ = _grid_value(kernel, radius, m, None)
        return DetResult(det, bound * max(1.0, size), (m,), ())
    grids, drifts, prev = [], [], None
    while x + margin <= m_cap:
        grids.append(x + margin)
        det, size, err = _grid_value(kernel, radius, grids[-1], prev)
        if prev is not None:
            drifts.append(err)
            if err <= tol * max(1.0, size):
                return DetResult(det, err, tuple(grids), tuple(drifts))
        prev = det
        margin *= 2
    raise errors.NotConverged(f"determinant drift {err:.2e} at m={grids[-1]}")


def resolvent_kernel(suite: CauchySuite, x: int, b_plus) -> Kernel:
    """Explicit resolvent of 1 + V on the suite's circle, given the inside
    part ``b_plus`` of ``suite.b_split(x)``: generators fp = e^{Omega_lt}
    q^{x/2} and fm = e^{-Omega_gt} q^{-x/2} - b_plus fp."""
    def generators(q):
        hp, hm = _halfpows(q, x)
        fp = np.exp(suite.Omega_lt(q)) * hp
        dfp = (suite.Omega_lt(q, 1) + (x / 2.0) / q) * fp
        egt, bp = np.exp(-suite.Omega_gt(q)), b_plus(q)
        dfm = (-suite.Omega_gt(q, 1) - (x / 2.0) / q) * egt * hm - \
            b_plus(q, 1) * fp - bp * dfp
        fm = egt * hm - bp * fp
        return (np.sqrt(symbols.eval_theta(suite.spec, q)), (fm, -fp),
                (fp, fm), (dfp, dfm))

    return Kernel(generators, x)


def resolvent_residual(suite: CauchySuite, x: int) -> float:
    """Largest entry of (1 + V)(1 - R) - 1 on a 128-node grid, R the explicit
    resolvent; NotConverged up front (``check_grid_cap``) where that grid
    cannot hold the bandwidth x."""
    check_grid_cap(x, 128)
    nodes = circle_nodes(suite.rho, 128)
    weights = circle_weights(nodes, 128)
    eye = np.eye(nodes.size, dtype=complex)
    vmat = kernel_V(suite.spec, x, suite.rho).matrix(nodes, weights)
    rmat = resolvent_kernel(suite, x, suite.b_split(x).plus).matrix(
        nodes, weights)
    return float(np.max(np.abs((eye + vmat) @ (eye - rmat) - eye)))


def m_function(suite: CauchySuite, x: int, k1, k2) -> tuple:
    """Both sides of the resolvent lemma at each probe pair (k1[i], k2[i]):
    returns arrays (quadrature route on 256 nodes, closed-form route).  The
    probes, equal-length arrays, must lie off the circle; the resolvent is
    filled once for all of them.  NotConverged up front
    (``check_grid_cap``) where the 256 nodes cannot hold the bandwidth x."""
    check_grid_cap(x, 256)
    k1, k2 = np.asarray(k1, dtype=complex), np.asarray(k2, dtype=complex)
    if k1.ndim != 1 or k1.shape != k2.shape:
        raise errors.InputError("k1 and k2 must be equal-length arrays")
    rho = suite.rho
    for k in np.concatenate([k1, k2]):
        if abs(abs(k) - rho) < 1e-6 * rho:
            raise errors.TooCloseToContour(f"probe {k} sits on the circle")

    b = suite.b_split(x)
    nodes = circle_nodes(rho, 256)
    weights = circle_weights(nodes, 256)
    st = np.sqrt(symbols.eval_theta(suite.spec, nodes))
    hv = nodes ** (-x / 2.0)
    rmat = resolvent_kernel(suite, x, b.plus).matrix(nodes, weights)

    def omega(k):
        return suite.Omega_gt(k) if abs(k) < rho else suite.Omega_lt(k)

    def bval(k, der=0):
        return b.plus(k, der) if abs(k) < rho else b.minus(k, der)

    route_a, route_b = [], []
    for p, k in zip(k1.tolist(), k2.tolist()):
        u = st * hv / (p - nodes)
        v = st * hv / (k - nodes)
        route_a.append((np.sum(weights * u * v) - (weights * u) @ rmat @ v) /
                       (2j * np.pi))
        if abs(p - k) < 1e-12:
            route_b.append(-np.exp(2.0 * omega(p)) * bval(p, 1))
        else:
            route_b.append(-np.exp(omega(p) + omega(k)) *
                           (bval(p) - bval(k)) / (p - k))
    return np.array(route_a, dtype=complex), np.array(route_b, dtype=complex)


def _lowered(spec: symbols.SymbolSpec) -> symbols.SymbolSpec:
    """The symbol -phi/q, whose phase shift is phi's lowered by one index:
    numer -P and denom (0, *Q), or -P/q and Q where P(0) = 0, so that the
    two share no root."""
    numer = tuple(-c for c in spec.numer)
    if numer[0] == 0:
        return symbols.SymbolSpec(numer=numer[1:], denom=spec.denom,
                                  log_coeffs=spec.log_coeffs)
    return symbols.SymbolSpec(numer=numer, denom=(0.0, *spec.denom),
                              log_coeffs=spec.log_coeffs)


def rank_one_shift_identity(spec: symbols.SymbolSpec, x: int) -> dict:
    """Cross-checks the three equivalent values of the rank-one correction:
    determinant difference, determinant of the index-shifted weight, and the
    closed form det(1+V) e^{Omega_gt(0)} b_plus(0)."""
    if symbols.winding_number(spec) != 0:
        raise errors.WindingNonzero("identity needs a zero-winding weight")
    suite = suite_for(spec)
    theta = functools.partial(symbols.eval_theta, spec)
    vk = kernel_V(spec, x, suite.rho)

    # -sqrt(theta(q) theta(p)) q^{-x/2-1} p^{-x/2} / (2 pi i), its sign fixed
    # numerically: with it, the three values of the identity agree.
    def rank_one(q):
        h = q ** (-x / 2.0)
        return _rank_one(np.sqrt(theta(q)), q, -h / q, h, (-x / 2.0) * h / q)

    # conjugated by diag(q^{x/2}), -(theta_j/m) u_i^-1 u_j^(1-x) radius^-x:
    # the column u^-1 and the row -radius^-x g u^(1-x)
    def form(nodes, weights, complementary):
        if complementary:
            return None
        radius, m = grid_of(nodes)
        g = theta(nodes) * weights / (2j * np.pi * nodes)
        row = -_by_logs(1.0, x, radius) * g * grid_powers(m, 1 - x)
        return Factors(g, np.array([-1]), np.empty((0, m)), np.arange(0),
                       row[None, :])

    # theta's reach, with no bound
    vk1 = Kernel(rank_one, x, functools.partial(_theta_reach, spec), form, 1)

    det_v = nystrom_det(vk, suite.rho)
    det_sum = nystrom_det(kernel_sum([vk, vk1]), suite.rho)
    det_shift = nystrom_det(kernel_V(_lowered(spec), x, suite.rho),
                            suite.rho)
    closed = det_v.value * np.exp(suite.Omega_gt(0.0)) * \
        suite.b_split(x).plus(0.0)

    # When the correction is exponentially small in x, every determinant in
    # the identity is still O(1), so the identity can only hold to absolute
    # machine precision; residuals are scaled by the largest member rather
    # than by the tiny correction alone.  The same scale bounds what the
    # raw difference det(1+V+V1) - det(1+V) loses to cancellation, so it
    # needs no stable (relative-precision) form.
    scale = max(abs(det_sum.value), abs(det_shift.value), 1e-300)
    return {
        "det_v": det_v.value,
        "det_sum": det_sum.value,
        "det_shift": det_shift.value,
        "closed_form": complex(closed),
        "residual_difference":
            abs(det_sum.value - det_v.value - det_shift.value) / scale,
        "residual_closed": abs(complex(closed) - det_shift.value) / scale,
    }

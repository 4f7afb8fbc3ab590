"""Nystrom machinery: integrable kernels, determinants, explicit resolvent.

Every kernel here has the two-function integrable shape

    K(q,p) = a(q) a(p) (vp(p) vm(q) - vp(q) vm(p)) / (2 pi i (p - q)),

with the diagonal given by the analytic limit a^2 (vp' vm - vp vm')/(2 pi i).
Half-integer powers and square roots use the principal branch per node: a
different branch choice multiplies the Nystrom matrix by D K D with D a
diagonal of signs, which is a similarity and leaves determinants, traces and
the resolvent identity unchanged.

Every kernel object carries its bandwidth ``x``: its generators hold the
factors q^{+-x/2}, so a trapezoid grid of m <= x nodes aliases them and
``nystrom_det`` starts its grids above x.  An object without the attribute
has bandwidth 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import errors, symbols
from ._series import LaurentSplit, circle_nodes, pow2_at_least
from .cauchy import CauchySuite
from .contours import Contour, quadrature, unit_circle

ROW_BLOCK = 64   # rows of node gaps formed at a time, small enough for cache
M_START = 32     # first margin of Nystrom nodes over the bandwidth x
M_CAP = 1024     # default cap on Nystrom nodes per contour component
TOL = 1e-10      # default agreement of two successive Nystrom determinants


@dataclass(frozen=True)
class DetResult:
    value: complex
    err_estimate: float
    m_used: int


class Kernel:
    """Integrable kernel built from four callables; see module docstring.
    Off the diagonal its Nystrom matrix is (a vm (x) vp r - a vp (x) vm r),
    r = a w / (2 pi i), divided by the node gaps q_j - q_i."""

    def __init__(self, a, vp, vm, dvp, dvm, label: str, x: int = 0):
        self.a, self.vp, self.vm, self.dvp, self.dvm = a, vp, vm, dvp, dvm
        self.label, self.x = label, x

    def matrix(self, nodes, weights):
        a = self.a(nodes)
        vp, vm = self.vp(nodes), self.vm(nodes)
        r = a * weights / (2j * np.pi)
        mat = np.stack([a * vm, -a * vp], axis=1) @ np.stack([vp * r, vm * r])
        for start in range(0, nodes.size, ROW_BLOCK):
            gaps = nodes[None, :] - nodes[start:start + ROW_BLOCK, None]
            np.fill_diagonal(gaps[:, start:], 1.0)
            mat[start:start + ROW_BLOCK] /= gaps
        np.fill_diagonal(mat, a * r * (self.dvp(nodes) * vm -
                                        vp * self.dvm(nodes)))
        return mat


class SeparableKernel:
    """K(q,p) = c * u(q) v(p) / (2 pi i); rank one on any grid."""

    def __init__(self, u, v, c: complex, label: str, x: int = 0):
        self.u, self.v, self.c = u, v, complex(c)
        self.label, self.x = label, x

    def matrix(self, nodes, weights):
        col = self.c * self.u(nodes) / (2j * np.pi)
        return np.outer(col, self.v(nodes) * weights)


class SumKernel:
    def __init__(self, parts, label: str):
        self.parts = list(parts)
        self.label = label
        self.x = max((getattr(k, "x", 0) for k in self.parts), default=0)

    def matrix(self, nodes, weights):
        return sum(k.matrix(nodes, weights) for k in self.parts)


def _sqrt_theta(spec):
    return lambda q: np.sqrt(symbols.eval_theta(spec, q))


def _halfpow(x):
    """Principal q^(x/2); sign ambiguity is harmless (see module docstring)."""
    return lambda q: np.asarray(q, dtype=complex) ** (x / 2.0)


def kernel_S(spec: symbols.SymbolSpec, x: int) -> Kernel:
    """Bare finite-temperature kernel; diagonal x*theta/(2 pi i q)."""
    hp, hm = _halfpow(x), _halfpow(-x)
    return Kernel(_sqrt_theta(spec),
                  hp, hm,
                  lambda q: (x / 2.0) * hp(q) / q,
                  lambda q: (-x / 2.0) * hm(q) / q,
                  "S", x)


def _kernel_V_generic(a, tail, x, label):
    """Generators vp = q^{-x/2} w = q^{x/2} + q^{-x/2} tail and vm = q^{-x/2}
    for the deformation function w = q^x + tail, where tail(q, derivative)
    is the part of w analytic outside the contour; q^x, which overflows on
    radii past 2 at x = 1024, is never formed."""
    hp, hm = _halfpow(x), _halfpow(-x)

    def vp(q):
        return hp(q) + hm(q) * tail(q)

    def dvp(q):
        return (x / 2.0) * hp(q) / q + \
            hm(q) * (tail(q, 1) - (x / 2.0) * tail(q) / q)

    return Kernel(a, vp, hm, dvp, lambda q: (-x / 2.0) * hm(q) / q, label, x)


def kernel_V(suite: CauchySuite) -> Kernel:
    """Deformed kernel on the suite's circle; exact Toeplitz value when no
    zeros of the symbol remain outside the contour.  Its w is q^x plus the
    outside continuation of the k^x theta/(1 + theta) transform."""
    return _kernel_V_generic(_sqrt_theta(suite.spec), suite.w_split.minus,
                             suite.x, "V")


def kernel_V_residue(spec: symbols.SymbolSpec, x: int, zeros_inside) -> Kernel:
    """V with w(q) = q^x - sum_z z^x/(phi'(z)(z - q)) in residue form; valid
    on any contour whose enclosed region holds exactly ``zeros_inside`` zeros
    of phi, and analytic between those zeros and the poles of phi."""
    res = [(complex(z), complex(z) ** x /
            complex(symbols.eval_dphi(spec, np.asarray(z))))
           for z in zeros_inside]

    def tail(q, derivative=0):
        q = np.asarray(q, dtype=complex)
        return -sum((c / (z - q) ** (1 + derivative) for z, c in res),
                    np.zeros(q.shape, dtype=complex))

    return _kernel_V_generic(_sqrt_theta(spec), tail, x, "V")


def kernel_V_from_theta(theta_fn, x: int) -> Kernel:
    """V on the unit circle for a weight given only as a callable on (a
    neighborhood of) it.  The weight is split on max(512, 4x) nodes, rounded
    up to a power of two, so its modes near j = x never fold."""
    m = max(512, pow2_at_least(4 * x))
    nodes = circle_nodes(1.0, m)
    tvals = theta_fn(nodes)
    split = LaurentSplit(nodes ** x * tvals / (1.0 + tvals), 1.0)

    def a(q):
        return np.sqrt(theta_fn(np.asarray(q, dtype=complex)))

    return _kernel_V_generic(a, split.minus, x, "V")


def kernel_W(spec: symbols.SymbolSpec, s: complex, x: int) -> SeparableKernel:
    """Rank-one residue kernel at a simple zero s of phi."""
    s = complex(s)
    ds = complex(symbols.eval_dphi(spec, np.asarray(s)))
    if abs(ds) < 1e-10:
        raise errors.NotASimpleZero(f"phi'({s}) = {ds}")
    st, hm = _sqrt_theta(spec), _halfpow(-x)

    def u(q):
        return st(q) * hm(q) / (s - q)

    return SeparableKernel(u, u, s ** x / ds, "W", x)


def nystrom_det(kernel, contour: Contour, tol: float = TOL,
                m_cap: int = M_CAP) -> DetResult:
    """det(Id + K) by LU on trapezoidal grids of m = x + M_START 2^k nodes
    per contour component, k = 0, 1, ..., where x is the kernel's bandwidth.
    The grids start above x, where the q^{+-x/2} factors stop aliasing and
    the determinants converge geometrically (Bornemann, Math. Comp. 79
    (2010)); the first two that agree to ``tol`` give the value.  For x = 0
    this is plain doubling from M_START.  Raises NotConverged when the next
    grid would pass ``m_cap``, and up front, before any fill, when fewer
    than two grids fit under it."""
    x = getattr(kernel, "x", 0)
    if x + 2 * M_START > m_cap:
        raise errors.NotConverged(
            f"bandwidth x = {x} needs m_cap >= {x + 2 * M_START} nodes, "
            f"got {m_cap}")
    prev = None
    margin = M_START
    while True:
        m = x + margin
        quad = quadrature(contour, m)
        mat = kernel.matrix(quad.nodes, quad.weights)
        np.fill_diagonal(mat, mat.diagonal() + 1.0)
        with np.errstate(over="ignore", invalid="ignore"):
            det = complex(np.linalg.det(mat))
        if prev is not None:
            err = abs(det - prev)
            if err <= tol * max(1.0, abs(det)):
                # err = inf passes the test above when |det| = inf too
                if not np.isfinite(det):
                    raise errors.NotConverged(f"non-finite determinant at m={m}")
                return DetResult(det, err, m)
            if x + 2 * margin > m_cap:
                raise errors.NotConverged(
                    f"determinant drift {err:.2e} at m={m}")
        prev = det
        margin *= 2


def resolvent_kernel(suite: CauchySuite) -> Kernel:
    """Explicit resolvent of 1 + V on the suite's circle."""
    x = suite.x
    hp, hm = _halfpow(x), _halfpow(-x)

    def fp(q):
        return np.exp(suite.Omega_lt(q)) * hp(q)

    def dfp(q):
        return (suite.Omega_lt(q, 1) + (x / 2.0) / q) * fp(q)

    def fm(q):
        return np.exp(-suite.Omega_gt(q)) * hm(q) - suite.b_plus(q) * fp(q)

    def dfm(q):
        first = (-suite.Omega_gt(q, 1) - (x / 2.0) / q) * \
            np.exp(-suite.Omega_gt(q)) * hm(q)
        return first - suite.b_plus(q, 1) * fp(q) - suite.b_plus(q) * dfp(q)

    return Kernel(_sqrt_theta(suite.spec), fp, fm, dfp, dfm, "R", x)


def resolvent_residual(suite: CauchySuite) -> float:
    """Largest entry of (1 + V)(1 - R) - 1 on a 128-node grid, R the explicit
    resolvent."""
    quad = quadrature(suite.contour, 128)
    eye = np.eye(len(quad.nodes), dtype=complex)
    vmat = kernel_V(suite).matrix(quad.nodes, quad.weights)
    rmat = resolvent_kernel(suite).matrix(quad.nodes, quad.weights)
    return float(np.max(np.abs((eye + vmat) @ (eye - rmat) - eye)))


def m_function(suite: CauchySuite, k1: complex, k2: complex) -> tuple:
    """Returns (quadrature route on 256 nodes, closed-form route); both sides
    of the resolvent lemma.  k1, k2 must lie off the circle."""
    k1, k2 = complex(k1), complex(k2)
    rho = suite.rho
    for k in (k1, k2):
        if abs(abs(k) - rho) < 1e-6 * rho:
            raise errors.TooCloseToContour(f"probe {k} sits on the circle")

    rk = resolvent_kernel(suite)
    quad = quadrature(suite.contour, 256)
    nodes, weights = quad.nodes, quad.weights
    st = np.sqrt(symbols.eval_theta(suite.spec, nodes))
    hv = nodes ** (-suite.x / 2.0)
    u = st * hv / (k1 - nodes)
    v = st * hv / (k2 - nodes)
    rmat = rk.matrix(nodes, weights)
    route_a = (np.sum(weights * u * v) - (weights * u) @ rmat @ v) / (2j * np.pi)

    def omega(k):
        return suite.Omega_gt(k) if abs(k) < rho else suite.Omega_lt(k)

    def bval(k, der=0):
        return suite.b_plus(k, der) if abs(k) < rho else suite.b_minus(k, der)

    if abs(k1 - k2) < 1e-12:
        route_b = -np.exp(2.0 * omega(k1)) * bval(k1, 1)
    else:
        route_b = -np.exp(omega(k1) + omega(k2)) * \
            (bval(k1) - bval(k2)) / (k1 - k2)
    return complex(route_a), complex(route_b)


def rank_one_shift_identity(spec: symbols.SymbolSpec, x: int) -> dict:
    """Cross-checks the three equivalent values of the rank-one correction:
    determinant difference, determinant of the index-shifted weight, and the
    closed form det(1+V) e^{Omega_gt(0)} b_plus(0)."""
    if symbols.winding_number(spec) != 0:
        raise errors.WindingNonzero("identity needs a zero-winding weight")
    circle = unit_circle()
    suite = CauchySuite(spec, circle, x)
    vk = kernel_V(suite)
    st, hm = _sqrt_theta(spec), _halfpow(-x)
    # Overall sign fixed numerically: with this choice the determinant
    # difference, the shifted-weight determinant and the closed form agree.
    vk1 = SeparableKernel(lambda q: st(q) * hm(q) / q,
                          lambda q: st(q) * hm(q), -1.0, "V1", x)

    det_v = nystrom_det(vk, circle)
    det_sum = nystrom_det(SumKernel([vk, vk1], "V+V1"), circle)

    def theta_shift(q):
        # weight whose phase shift is the original one lowered by one index
        return -(1.0 + symbols.eval_theta(spec, q)) / q - 1.0

    det_shift = nystrom_det(kernel_V_from_theta(theta_shift, x), circle)
    closed = det_v.value * np.exp(suite.Omega_gt(0.0)) * suite.b_plus(0.0)

    # The raw subtraction det(1+V+V1) - det(1+V) cancels catastrophically
    # once the correction is much smaller than the determinants themselves.
    # For a rank-one update the difference factors exactly as
    # det(1+V) * rowspace(V1) . (1+V)^{-1} colspace(V1), which keeps full
    # relative precision; both grid sizes must agree.
    def stable_diff(m):
        quad = quadrature(circle, m)
        vmat = np.eye(len(quad.nodes), dtype=complex) + \
            vk.matrix(quad.nodes, quad.weights)
        col = vk1.c * vk1.u(quad.nodes) / (2j * np.pi)
        row = vk1.v(quad.nodes) * quad.weights
        return det_v.value * (row @ np.linalg.solve(vmat, col))

    diff = stable_diff(512)
    drift = abs(diff - stable_diff(256))
    if drift > max(TOL * abs(diff), 1e-14):
        raise errors.NotConverged(
            f"rank-one correction drift {drift:.2e} between grids")
    # When the correction is exponentially small in x, every determinant in
    # the identity is still O(1), so the identity can only hold to absolute
    # machine precision; residuals are scaled by the largest member rather
    # than by the tiny correction alone.
    scale = max(abs(det_sum.value), abs(det_shift.value), 1e-300)
    return {
        "det_v": det_v.value,
        "det_sum": det_sum.value,
        "det_shift": det_shift.value,
        "closed_form": complex(closed),
        "residual_difference": abs(diff - det_shift.value) / scale,
        "residual_closed": abs(complex(closed) - det_shift.value) / scale,
    }

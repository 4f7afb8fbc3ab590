"""Nystrom machinery: integrable kernels, determinants, explicit resolvent.

Every kernel here has the two-function integrable shape

    K(q,p) = a(q) a(p) (vp(p) vm(q) - vp(q) vm(p)) / (2 pi i (p - q)),

with the diagonal given by the analytic limit a^2 (vp' vm - vp vm')/(2 pi i).
Half-integer powers and square roots use the principal branch per node: a
different branch choice multiplies the Nystrom matrix by D K D with D a
diagonal of signs, which is a similarity and leaves determinants, traces and
the resolvent identity unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import errors, symbols
from ._series import LaurentSplit, circle_nodes
from .cauchy import CauchySuite
from .contours import Contour, quadrature, unit_circle


@dataclass(frozen=True)
class DetResult:
    value: complex
    err_estimate: float
    m_used: int
    method: str


class Kernel:
    """Integrable kernel built from four callables; see module docstring."""

    def __init__(self, a, vp, vm, dvp, dvm, label: str):
        self.a, self.vp, self.vm, self.dvp, self.dvm = a, vp, vm, dvp, dvm
        self.label = label

    def matrix(self, nodes, weights):
        a = self.a(nodes)
        vp, vm = self.vp(nodes), self.vm(nodes)
        num = vp[None, :] * vm[:, None] - vp[:, None] * vm[None, :]
        den = nodes[None, :] - nodes[:, None]
        np.fill_diagonal(den, 1.0)
        mat = num / den
        np.fill_diagonal(mat, self.dvp(nodes) * vm - vp * self.dvm(nodes))
        mat = a[:, None] * a[None, :] * mat / (2j * np.pi)
        return mat * weights[None, :]


class SeparableKernel:
    """K(q,p) = c * u(q) v(p) / (2 pi i); rank one on any grid."""

    def __init__(self, u, v, c: complex, label: str):
        self.u, self.v, self.c = u, v, complex(c)
        self.label = label

    def matrix(self, nodes, weights):
        col = self.c * self.u(nodes) / (2j * np.pi)
        return np.outer(col, self.v(nodes) * weights)


class SumKernel:
    def __init__(self, parts, label: str):
        self.parts = list(parts)
        self.label = label

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
                  "S")


def _kernel_V_generic(a, w, dw, x, label):
    hm = _halfpow(-x)

    def vp(q):
        return hm(q) * w(q)

    def dvp(q):
        return hm(q) * (dw(q) - (x / 2.0) * w(q) / q)

    return Kernel(a, vp, hm, dvp, lambda q: (-x / 2.0) * hm(q) / q, label)


def kernel_V(suite: CauchySuite) -> Kernel:
    """Deformed kernel on the suite's circle; exact Toeplitz value when no
    zeros of the symbol remain outside the contour."""
    return _kernel_V_generic(_sqrt_theta(suite.spec),
                             suite.w_func, lambda q: suite.w_func(q, 1),
                             suite.x, "V")


def kernel_V_residue(spec: symbols.SymbolSpec, x: int, zeros_inside) -> Kernel:
    """V with the deformation function in residue form; valid on any contour
    whose enclosed region contains exactly ``zeros_inside`` zeros of phi."""
    dphi = {complex(z): complex(symbols.eval_dphi(spec, np.asarray(z)))
            for z in zeros_inside}

    def w(q):
        q = np.asarray(q, dtype=complex)
        acc = q ** x
        for z, d in dphi.items():
            acc = acc - z ** x / (d * (z - q))
        return acc

    def dw(q):
        q = np.asarray(q, dtype=complex)
        acc = x * q ** (x - 1) if x else np.zeros(np.shape(q), dtype=complex)
        for z, d in dphi.items():
            acc = acc - z ** x / (d * (z - q) ** 2)
        return acc

    return _kernel_V_generic(_sqrt_theta(spec), w, dw, x, "V")


def kernel_V_from_theta(theta_fn, x: int, radius: float = 1.0,
                        m: int = 512) -> Kernel:
    """V for a weight given only as a callable on (a neighborhood of) the circle."""
    nodes = circle_nodes(radius, m)
    tvals = theta_fn(nodes)
    split = LaurentSplit(nodes ** x * tvals / (1.0 + tvals), radius)

    def w(q):
        q = np.asarray(q, dtype=complex)
        return q ** x + split.minus(q)

    def dw(q):
        q = np.asarray(q, dtype=complex)
        lead = x * q ** (x - 1) if x else np.zeros(np.shape(q), dtype=complex)
        return lead + split.minus(q, 1)

    def a(q):
        return np.sqrt(theta_fn(np.asarray(q, dtype=complex)))

    return _kernel_V_generic(a, w, dw, x, "V")


def kernel_Delta(suite: CauchySuite) -> Kernel:
    """Difference V - (conjugated S): only the transform part of w survives."""
    x = suite.x
    return _kernel_V_generic(_sqrt_theta(suite.spec),
                             lambda q: suite.w_split.minus(q),
                             lambda q: suite.w_split.minus(q, 1),
                             x, "Delta")


def kernel_Delta_residue(spec, x, zeros_inside) -> SumKernel:
    """Same difference as a residue sum of rank-one kernels."""
    return SumKernel([_negated(kernel_W(spec, z, x)) for z in zeros_inside],
                     "Delta")


def _negated(k: SeparableKernel) -> SeparableKernel:
    return SeparableKernel(k.u, k.v, -k.c, k.label)


def kernel_W(spec: symbols.SymbolSpec, s: complex, x: int) -> SeparableKernel:
    """Rank-one residue kernel at a simple zero s of phi."""
    s = complex(s)
    ds = complex(symbols.eval_dphi(spec, np.asarray(s)))
    if abs(ds) < 1e-10:
        raise errors.NotASimpleZero(f"phi'({s}) = {ds}")
    st, hm = _sqrt_theta(spec), _halfpow(-x)

    def u(q):
        return st(q) * hm(q) / (s - q)

    return SeparableKernel(u, u, s ** x / ds, "W")


def kernel_Q(spec: symbols.SymbolSpec, x: int, m: int = 512) -> Kernel:
    """Unit-circle kernel for nonnegative winding."""
    nodes = circle_nodes(1.0, m)
    tvals = symbols.eval_theta(spec, nodes)
    split = LaurentSplit(nodes ** (-x) * tvals / (1.0 + tvals), 1.0)
    hp = _halfpow(x)

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

    return Kernel(_sqrt_theta(spec), hp, vm,
                  lambda q: (x / 2.0) * hp(q) / q, dvm, "Q")


def zero_kernel() -> SeparableKernel:
    return SeparableKernel(lambda q: np.zeros(np.shape(q), dtype=complex),
                           lambda q: np.zeros(np.shape(q), dtype=complex),
                           0.0, "zero")


def nystrom_det(kernel, contour: Contour, tol: float = 1e-10,
                m_start: int = 32, m_cap: int = 1024) -> DetResult:
    """det(Id + K) by LU on trapezoidal nodes, doubling until stable."""
    prev = None
    m = m_start
    while True:
        quad = quadrature(contour, m)
        mat = np.eye(len(quad.nodes), dtype=complex) + \
            kernel.matrix(quad.nodes, quad.weights)
        det = complex(np.linalg.det(mat))
        if prev is not None:
            err = abs(det - prev)
            if err <= tol * max(1.0, abs(det)):
                # err = inf passes the test above when |det| = inf too
                if not np.isfinite(det):
                    raise errors.NotConverged(f"non-finite determinant at m={m}")
                return DetResult(det, err, m, kernel.label)
            if m >= m_cap:
                raise errors.NotConverged(
                    f"determinant drift {err:.2e} at m={m}")
        prev = det
        m *= 2


@dataclass(frozen=True)
class Resolvent:
    kernel: Kernel
    f_plus: np.ndarray
    f_minus: np.ndarray
    nodes: np.ndarray
    inversion_residual: float


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

    return Kernel(_sqrt_theta(suite.spec), fp, fm, dfp, dfm, "R")


def build_resolvent(suite: CauchySuite, m: int = 128) -> Resolvent:
    """Resolvent on an m-node grid with the inversion identity checked."""
    rk = resolvent_kernel(suite)
    vk = kernel_V(suite)
    quad = quadrature(suite.contour, m)
    eye = np.eye(len(quad.nodes), dtype=complex)
    vmat = vk.matrix(quad.nodes, quad.weights)
    rmat = rk.matrix(quad.nodes, quad.weights)
    resid = float(np.max(np.abs((eye + vmat) @ (eye - rmat) - eye)))
    if resid > 1e-8:
        raise errors.InversionCheckFailed(f"residual {resid:.2e} at m={m}")
    return Resolvent(rk, rk.vp(quad.nodes), rk.vm(quad.nodes),
                     quad.nodes, resid)


def m_function(suite: CauchySuite, k1: complex, k2: complex,
               m: int = 256) -> tuple:
    """Returns (quadrature route, closed-form route); both sides of the
    resolvent lemma.  k1, k2 must lie off the circle."""
    k1, k2 = complex(k1), complex(k2)
    rho = suite.rho
    for k in (k1, k2):
        if abs(abs(k) - rho) < 1e-6 * rho:
            raise errors.TooCloseToContour(f"probe {k} sits on the circle")

    rk = resolvent_kernel(suite)
    quad = quadrature(suite.contour, m)
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


def rank_one_shift_identity(spec: symbols.SymbolSpec, x: int,
                            tol: float = 1e-10) -> dict:
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
                          lambda q: st(q) * hm(q), -1.0, "V1")

    det_v = nystrom_det(vk, circle, tol)
    det_sum = nystrom_det(SumKernel([vk, vk1], "V+V1"), circle, tol)

    def theta_shift(q):
        # weight whose phase shift is the original one lowered by one index
        return -(1.0 + symbols.eval_theta(spec, q)) / q - 1.0

    det_shift = nystrom_det(kernel_V_from_theta(theta_shift, x), circle, tol)
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
    if drift > max(tol * abs(diff), 1e-14):
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

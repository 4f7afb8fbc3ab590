"""Closed-form ladder: leading tau, smooth-symbol limit, winding-corrected
determinant formulas, Cauchy-type correction series, contour-swap ratios and
the discrete-index determinant identity.

Double integrals over circles are never done by brute force when a spectral
shortcut exists: quadratic functionals of the phase shift reduce to sums over
Laurent modes, which converge geometrically.
"""

from __future__ import annotations

import itertools

import numpy as np

from . import errors, symbols
from ._series import LaurentSplit, circle_nodes, circle_weights, laurent_coeffs
from .cauchy import CauchySuite, WindingAdjustedSuite
from .contours import Contour, quadrature, select_contour, unit_circle
from .fredholm import kernel_V_from_theta, kernel_V_residue, nystrom_det


def base_contour(spec: symbols.SymbolSpec, m: int = 128) -> Contour:
    return select_contour(symbols.analyze(spec), m)


def _guarded_exp(log_value, factor=1.0) -> complex:
    """factor * exp(log_value); OverflowGuard instead of an inf or NaN."""
    with np.errstate(over="ignore", invalid="ignore"):
        value = complex(factor * np.exp(log_value))
    if not np.isfinite(value):
        raise errors.OverflowGuard(
            f"exp of log-magnitude {complex(log_value).real:.1f} "
            "is not finite")
    return value


# --- leading tau -------------------------------------------------------------

def tau_leading(spec: symbols.SymbolSpec, contour: Contour, x: int,
                route: str = "modes", m: int = 256) -> complex:
    """Leading-order value on a zero-winding circle.

    route 'modes': x * (inside value at 0) plus a geometric mode sum.
    route 'double': direct trapezoid of the double integral, diagonal taken
    as the analytic limit nu'(q)^2.
    """
    suite = CauchySuite(spec, contour, x, m)
    if route == "modes":
        return _guarded_exp(x * suite.Omega_gt(0.0) +
                            _mode_sum(suite.nu_split))
    if route == "double":
        return _guarded_exp(_log_tau_double(
            suite, suite.nu, symbols.eval_dnu(spec, suite.nodes)))
    raise errors.InputError(f"unknown route {route!r}")


def _log_tau_double(suite: CauchySuite, nu, dnu) -> complex:
    """ln tau as the trapezoid double integral on the suite's grid, for the
    shift values nu and derivative dnu at its nodes; the diagonal of the
    difference quotient is the analytic limit dnu."""
    nodes, weights = suite.nodes, suite.weights
    lin = suite.x * np.sum(weights * nu / nodes)
    den = nodes[:, None] - nodes[None, :]
    np.fill_diagonal(den, 1.0)
    ratio = (nu[:, None] - nu[None, :]) / den
    np.fill_diagonal(ratio, dnu)
    return lin - 0.5 * (weights @ ratio ** 2 @ weights)


def szego(spec: symbols.SymbolSpec, x: int, m: int = 256,
          term_tol: float = 1e-15) -> complex:
    """Smooth zero-winding asymptotic from the Fourier modes of the shift."""
    if symbols.winding_number(spec) != 0:
        raise errors.WindingNonzero("formula needs a zero-winding symbol")
    ks, _, nu = symbols.fourier_coefficients(spec, m)
    nu0 = complex(nu[ks == 0][0])
    acc = 0.0
    for j in range(1, m // 2):
        term = j * complex(nu[ks == j][0]) * complex(nu[ks == -j][0])
        acc += term
        if abs(term) < term_tol and j > 2:
            break
    return _guarded_exp(x * nu0 + acc)


# --- winding-compensated machinery on the unit circle ------------------------

def _mode_sum(split: LaurentSplit) -> complex:
    """sum_{m>=1} m * v_m * v_{-m} with v_j = 2 pi i * (Laurent coefficient j)."""
    js, cs = split.j, split.c
    pos = js > 0
    return complex(np.sum(js[pos] * (2j * np.pi * cs[pos]) *
                          (2j * np.pi * cs[np.searchsorted(js, -js[pos])])))


def _require_negative_winding(spec):
    ana = symbols.analyze(spec)
    if ana.winding >= 0:
        raise errors.WindingNonnegative("formula needs negative winding")
    return ana


def tau_eff(spec: symbols.SymbolSpec, x: int, tol: float = 1e-10,
            m_grid: int = 512) -> complex:
    """det(1 + V) directly on the unit circle, any winding."""
    k = kernel_V_from_theta(lambda q: symbols.eval_theta(spec, q), x,
                            1.0, m_grid)
    return nystrom_det(k, unit_circle(), tol).value


def y_moment(ws: WindingAdjustedSuite, s) -> complex:
    """(1/2 pi i) oint dk/k k^{-s} exp(-2 pi i nu_adj(k)) exp(-2 omega_lt(k))."""
    k = ws.nodes
    dens = k ** (-np.asarray(s)) * np.exp(-2j * np.pi * ws.nu_adj) * \
        np.exp(-2.0 * ws.omega_lt(k))
    return complex(np.sum(ws.weights * dens / k) / (2j * np.pi))


def hartwig_fisher(spec: symbols.SymbolSpec, x: int, m: int = 256) -> complex:
    """Winding-corrected determinant formula; exact (not just asymptotic)
    equal to det(1 + V) on the unit circle."""
    ana = _require_negative_winding(spec)
    n = -ana.winding
    ws = WindingAdjustedSuite(spec, m)
    ymat = np.array([[y_moment(ws, x + i - j) for j in range(n)]
                     for i in range(n)], dtype=complex)
    exponent = (x + n) * 2j * np.pi * ws.split.zero_mode() + _mode_sum(ws.split)
    return _guarded_exp(exponent, np.linalg.det(ymat))


def _s_functional(spec: symbols.SymbolSpec, z_list, x: int, n: int,
                  m: int = 512) -> complex:
    """The quadratic phase-shift functional entering the reduced leading form.

    All three pieces are computed spectrally from the angular density
    h(phi) = nu'(e^{i phi}) i e^{i phi}:
      - the ln(q) moment via the Fourier series of the sawtooth;
      - the ln|k-q| double integral via its cosine series;
      - the ln(z_j - k) moments by plain trapezoid (integrand smooth).
    """
    nodes = circle_nodes(1.0, m)
    h = symbols.eval_dnu(spec, nodes) * 1j * nodes
    js, hm = laurent_coeffs(h)

    nz = js != 0
    jnz = js[nz]
    # int phi e^{i m phi} dphi = 2 pi (-1)^m / (i m)
    int_phi_h = 2.0 * np.pi * np.sum(hm[nz] * (-1.0) ** jnz / (1j * jnz))
    # The ln(q) moment is the integrated-by-parts form -int nu dq/q: the
    # endpoint value of the (unwrapped) phase shift at q = -1 is subtracted,
    # which is the convention under which this route agrees with the
    # compensated-shift route.
    nu_end = symbols.eval_nu_grid(spec, nodes)[0]
    term1 = -(x + n) * (1j * int_phi_h - 2j * np.pi * nu_end)

    pos = js > 0
    hm_neg = hm[np.searchsorted(js, -js[pos])]
    term2 = -(2.0 * np.pi) ** 2 * np.sum(hm[pos] * hm_neg / js[pos])

    phi = np.angle(nodes)
    dphi = 2.0 * np.pi / m
    term3 = 0.0
    for z in z_list:
        lnzk = np.log(z) + np.log1p(-nodes / z)
        term3 += 2.0 * np.sum(lnzk * h) * dphi
    return complex(term1 + term2 + term3)


def hf_leading(spec: symbols.SymbolSpec, x: int, route: str = "angular",
               m: int = 512) -> complex:
    """Leading part of the winding-corrected asymptotic.

    route 'angular': quadratic functional of the raw phase shift on the
    angle interval [-pi, pi).
    route 'reduced': compensated-shift mode sums plus explicit zero factors.
    """
    ana = _require_negative_winding(spec)
    n = -ana.winding
    z = np.array(ana.z_list, dtype=complex)
    # zero differences over ordered pairs, and the zeros' powers and phi'
    # values, all as logarithms so no power of a zero over- or underflows
    diff = z[:, None] - z[None, :]
    log_num = np.sum(np.log(diff[~np.eye(z.size, dtype=bool)]))
    log_dphi = np.sum(np.log(symbols.eval_dphi(spec, z)))
    if route == "angular":
        s_val = _s_functional(spec, z, x, n, m)
        return _guarded_exp(s_val + log_num - log_dphi -
                            x * np.sum(np.log(z)))
    if route == "reduced":
        ws = WindingAdjustedSuite(spec, max(m, 256))
        expo = (x + n) * 2j * np.pi * ws.split.zero_mode() + _mode_sum(ws.split)
        expo -= 2.0 * np.sum([ws.omega_lt(zk) for zk in z])
        return _guarded_exp(expo + log_num - log_dphi -
                            (2 * n + x) * np.sum(np.log(z)))
    raise errors.InputError(f"unknown route {route!r}")


# --- Cauchy-type correction series -------------------------------------------

def _zw_sets(spec, contour):
    ana = symbols.analyze(spec)
    rho = contour.radius
    zset = [z for z in ana.zeros if abs(z) < rho]
    wset = [z for z in ana.zeros if abs(z) > rho]
    return zset, wset


def slavnov_term(spec: symbols.SymbolSpec, x: int, zset, wset,
                 contour: Contour | None = None) -> complex:
    """One Cauchy-determinant correction for equally sized zero subsets."""
    if len(zset) != len(wset):
        raise errors.SizeMismatch("zero subsets must have equal size")
    if not zset:
        return 1.0 + 0.0j
    contour = contour or base_contour(spec)
    suite = CauchySuite(spec, contour, x)
    val = 1.0 + 0.0j
    for w in wset:
        val *= w ** (-x) * np.exp(-2.0 * suite.Omega_lt(w)) / \
            complex(symbols.eval_dphi(spec, np.asarray(w)))
    for z in zset:
        val *= z ** x * np.exp(2.0 * suite.Omega_gt(z)) / \
            complex(symbols.eval_dphi(spec, np.asarray(z)))
    for a, b in itertools.combinations(range(len(wset)), 2):
        val *= (wset[a] - wset[b]) ** 2
    for a, b in itertools.combinations(range(len(zset)), 2):
        val *= (zset[a] - zset[b]) ** 2
    for z in zset:
        for w in wset:
            val /= (z - w) ** 2
    return complex(val)


def correction_matrix(spec: symbols.SymbolSpec, x: int,
                      contour: Contour | None = None) -> np.ndarray:
    """Matrix over outside zeros whose determinant det(Id - A) collects all
    correction terms at once."""
    contour = contour or base_contour(spec)
    zset, wset = _zw_sets(spec, contour)
    suite = CauchySuite(spec, contour, x)
    nw, nz = len(wset), len(zset)
    A = np.zeros((max(nw, 1), max(nw, 1)), dtype=complex)[:nw, :nw]
    for i, wn in enumerate(wset):
        for j, wm in enumerate(wset):
            acc = 0.0 + 0.0j
            for z in zset:
                acc -= (wn ** (-x) * np.exp(-2.0 * suite.Omega_lt(wn)) *
                        np.exp(2.0 * suite.Omega_gt(z)) * z ** x /
                        (complex(symbols.eval_dphi(spec, np.asarray(wn))) *
                         complex(symbols.eval_dphi(spec, np.asarray(z))) *
                         (wn - z) * (wm - z)))
            A[i, j] = acc
    return A


def slavnov_series(spec: symbols.SymbolSpec, x: int,
                   max_order: int | None = None,
                   contour: Contour | None = None) -> complex:
    """Leading value times the full (or truncated) correction sum; exact at
    full order for symbols with finitely many zeros."""
    if spec.kind != "rational":
        raise errors.InputError("correction series needs a rational symbol")
    contour = contour or base_contour(spec)
    zset, wset = _zw_sets(spec, contour)
    tau = tau_leading(spec, contour, x)
    kmax = min(len(zset), len(wset))
    if max_order is not None:
        kmax = min(kmax, max_order)
    total = 1.0 + 0.0j
    for k in range(1, kmax + 1):
        for zs in itertools.combinations(zset, k):
            for wsub in itertools.combinations(wset, k):
                total += slavnov_term(spec, x, zs, wsub, contour)
    return complex(tau * total)


def tau_ratio_swap(spec: symbols.SymbolSpec, x: int, z_a: complex,
                   w_b: complex, tol: float = 1e-9) -> tuple:
    """Ratio of determinants on the swapped versus base contour.

    Returns (closed form, Nystrom ratio on the deformed contour).
    """
    from .contours import deformed_contour
    ana = symbols.analyze(spec)
    contour = select_contour(ana)
    zset, wset = _zw_sets(spec, contour)
    if not wset:
        raise errors.NotAvailable("no zeros outside the contour to include")
    z_a, w_b = complex(z_a), complex(w_b)
    if min(abs(z_a - z) for z in zset) > 1e-8:
        raise errors.InputError(f"{z_a} is not a zero inside the contour")
    if min(abs(w_b - w) for w in wset) > 1e-8:
        raise errors.InputError(f"{w_b} is not a zero outside the contour")

    suite = CauchySuite(spec, contour, x)
    closed = (z_a ** x * w_b ** (-x) *
              np.exp(2.0 * suite.Omega_gt(z_a) - 2.0 * suite.Omega_lt(w_b)) /
              (complex(symbols.eval_dphi(spec, np.asarray(z_a))) *
               complex(symbols.eval_dphi(spec, np.asarray(w_b))) *
               (z_a - w_b) ** 2))

    deformed = deformed_contour(contour, [z_a], [w_b], ana)
    inside_def = [z for z in zset if abs(z - z_a) > 1e-8] + [w_b]
    det_def = nystrom_det(kernel_V_residue(spec, x, inside_def), deformed, tol)
    det_base = nystrom_det(kernel_V_residue(spec, x, zset), contour, tol)
    return complex(closed), complex(det_def.value / det_base.value)


# --- discrete-index determinant identity -------------------------------------

def borodin_okounkov(spec: symbols.SymbolSpec, x: int, trunc: int = 48,
                     m: int = 1024, tail_tol: float = 1e-16,
                     l_cap: int = 4096) -> complex:
    """Smooth-symbol factor times det(Id - K) on shifted integer indices."""
    if symbols.winding_number(spec) != 0:
        raise errors.WindingNonzero("identity needs a zero-winding symbol")
    if trunc < 8:
        raise errors.InputError("truncation must be at least 8")
    suite = CauchySuite(spec, unit_circle(), x, m)
    om_sum = suite.Omega_gt_nodes + suite.Omega_lt_nodes
    ks_m, c_minus = laurent_coeffs(np.exp(-om_sum))   # (phi_+^{-1} phi_-)_k
    ks_p, c_plus = laurent_coeffs(np.exp(om_sum))     # (phi_+ phi_-^{-1})_k
    # K[n, m] = sum_l c-_{x+n+l} c+_{-x-m-l} (n, m >= 1) = (H- @ H+)[n, m]
    # with Hankel factors H-[n, l] = a[n + l], H+[l, m] = b[m + l] (0-based)
    a = c_minus[ks_m > x]              # c-_{x+1}, c-_{x+2}, ...
    b = c_plus[ks_p < -x][::-1]        # c+_{-x-1}, c+_{-x-2}, ...
    size = min(a.size, b.size)
    # largest term at shift l over all (n, m): suffix maxima of |a| and |b|
    tail = (np.maximum.accumulate(np.abs(a[:size])[::-1])[::-1] *
            np.maximum.accumulate(np.abs(b[:size])[::-1])[::-1])
    below = np.flatnonzero(tail < tail_tol)
    # shifts l = 0 .. n_l - 1; a tail that never falls needs unsampled indices
    n_l = max(int(below[0]), 1) if below.size else size + 1
    if n_l > l_cap:
        raise errors.TailNotConverged("tail cap reached")
    if trunc + n_l - 1 > size:
        raise errors.TailNotConverged(
            f"coefficient index {x + trunc + n_l - 1} beyond sampled range")
    hankel = np.arange(trunc)[:, None] + np.arange(n_l)[None, :]
    K = a[hankel] @ b[hankel].T
    det = complex(np.linalg.det(np.eye(trunc, dtype=complex) - K))
    return complex(szego(spec, x) * det)


def variational_check(spec: symbols.SymbolSpec, contour: Contour, x: int,
                      j: int, eps: float = 1e-6, m: int = 128) -> tuple:
    """Finite-difference derivative of ln tau under nu -> nu + eps q^j versus
    the first-order formula; returns (finite difference, formula)."""
    suite = CauchySuite(spec, contour, x, max(m, 256))
    nodes, weights = suite.nodes, suite.weights
    nu = suite.nu
    dnu = symbols.eval_dnu(spec, nodes)

    pert = nodes.astype(complex) ** j
    dpert = j * nodes.astype(complex) ** (j - 1)
    fd = (_log_tau_double(suite, nu + eps * pert, dnu + eps * dpert) -
          _log_tau_double(suite, nu - eps * pert, dnu - eps * dpert)) / (2 * eps)

    # first-order variation paired with the perturbation: the double-integral
    # part reduces, after integration by parts, to the principal value of the
    # transform of nu', i.e. the average of its inside/outside split values.
    split = LaurentSplit(dnu, suite.rho)
    pv = split.plus(nodes) + split.minus(nodes)
    inner = x / nodes + 2j * np.pi * pv
    formula = np.sum(weights * pert * inner)
    return complex(fd), complex(formula)

"""Closed-form ladder: leading tau, smooth-symbol limit, winding-corrected
determinant formulas, Cauchy-type correction series, contour-swap ratios and
the discrete-index determinant identity.

Double integrals over circles are never done by brute force when a spectral
shortcut exists: quadratic functionals of the phase shift reduce to sums over
Laurent modes, which converge geometrically.
"""

from __future__ import annotations

import numpy as np

from . import errors, symbols
from ._series import LaurentSplit, circle_nodes, laurent_coeffs
from .cauchy import CauchySuite
from .contours import Contour, select_contour, unit_circle
from .fredholm import kernel_V_from_theta, kernel_V_residue, nystrom_det

HF_LEADING_M = 512    # unit-circle nodes of both hf_leading routes
BO_TRUNC = 48         # borodin_okounkov: order of the index-space determinant,
BO_M = 1024           # nodes of its Wiener-Hopf factor coefficients,
BO_TAIL_TOL = 1e-16   # size below which a Hankel-product term is dropped,
BO_L_CAP = 4096       # and cap on the number of shifts in that product


def base_contour(spec: symbols.SymbolSpec) -> Contour:
    return select_contour(symbols.analyze(spec))


# --- leading tau -------------------------------------------------------------

def tau_leading(spec: symbols.SymbolSpec, x: int,
                route: str = "modes") -> complex:
    """Leading-order value on the symbol's circle, where phi does not wind.

    route 'modes': the strong-limit exponent, x 2 pi i nu_0 plus a mode sum.
    route 'double': direct trapezoid of the double integral, diagonal taken
    as the analytic limit nu'(q)^2.
    """
    suite = CauchySuite(spec, x)
    if route == "modes":
        return errors.exp_in_range(_log_strong_limit(suite))
    if route == "double":
        return errors.exp_in_range(_log_tau_double(
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


def szego(spec: symbols.SymbolSpec, x: int) -> complex:
    """Smooth zero-winding asymptotic: the strong-limit exponent of the
    unit-circle split, x 2 pi i nu_0 plus the mode sum
    sum_{j>=1} j (2 pi i)^2 nu_j nu_{-j} of the phase shift."""
    if symbols.winding_number(spec) != 0:
        raise errors.WindingNonzero("formula needs a zero-winding symbol")
    suite = CauchySuite(spec, x, unit=True)
    return errors.exp_in_range(_log_strong_limit(suite))


# --- strong-limit exponent ---------------------------------------------------

def _mode_sum(split: LaurentSplit) -> complex:
    """sum_{m>=1} m * v_m * v_{-m} with v_j = 2 pi i * (Laurent coefficient j)."""
    js, cs = split.j, split.c
    pos = js > 0
    return complex(np.sum(js[pos] * (2j * np.pi * cs[pos]) *
                          (2j * np.pi * cs[np.searchsorted(js, -js[pos])])))


def _log_strong_limit(suite: CauchySuite) -> complex:
    """(x - winding) 2 pi i nu_0 plus the mode sum of the suite's split."""
    return ((suite.x - suite.winding) * 2j * np.pi *
            suite.nu_split.zero_mode() + _mode_sum(suite.nu_split))


def _require_negative_winding(spec):
    ana = symbols.analyze(spec)
    if ana.winding >= 0:
        raise errors.WindingNonnegative("formula needs negative winding")
    return ana


def tau_eff_kernel(spec: symbols.SymbolSpec, x: int):
    """(kernel, contour) whose det(1 + V) is the unit-circle one, any
    winding.  Negative winding: V in residue form is analytic out to the
    first pole, so it is taken on ``select_contour``'s circle, where phi does
    not wind.  Otherwise V is taken from theta on the unit circle."""
    if symbols.winding_number(spec) < 0:
        ana = symbols.analyze(spec)
        inside = [z for z in ana.zeros if abs(z) < 1.0]
        return kernel_V_residue(spec, x, inside), select_contour(ana)
    return (kernel_V_from_theta(lambda q: symbols.eval_theta(spec, q), x),
            unit_circle())


def tau_eff(spec: symbols.SymbolSpec, x: int) -> complex:
    """det(1 + V) on the unit circle, any winding (see ``tau_eff_kernel``)."""
    return nystrom_det(*tau_eff_kernel(spec, x)).value


def y_moment(suite: CauchySuite, s) -> complex:
    """(1/2 pi i) oint dk/k k^{-s} exp(-2 pi i nu_w(k)) exp(-2 Omega_lt(k))
    over the grid of a unit-circle suite."""
    k = suite.nodes
    dens = k ** (-np.asarray(s)) * np.exp(-2j * np.pi * suite.nu) * \
        np.exp(-2.0 * suite.Omega_lt_nodes)
    return complex(np.sum(suite.weights * dens / k) / (2j * np.pi))


def hartwig_fisher(spec: symbols.SymbolSpec, x: int) -> complex:
    """Winding-corrected determinant formula; exact (not just asymptotic)
    equal to det(1 + V) on the unit circle."""
    ana = _require_negative_winding(spec)
    n = -ana.winding
    suite = CauchySuite(spec, x, unit=True)
    ymat = np.array([[y_moment(suite, x + i - j) for j in range(n)]
                     for i in range(n)], dtype=complex)
    return errors.exp_in_range(_log_strong_limit(suite), np.linalg.det(ymat))


def _s_functional(spec: symbols.SymbolSpec, z_list, x: int, n: int) -> complex:
    """The quadratic phase-shift functional entering the reduced leading form.

    All three pieces are computed spectrally from the angular density
    h(phi) = nu'(e^{i phi}) i e^{i phi}:
      - the ln(q) moment via the Fourier series of the sawtooth;
      - the ln|k-q| double integral via its cosine series;
      - the ln(z_j - k) moments by plain trapezoid (integrand smooth).
    """
    nodes = circle_nodes(1.0, HF_LEADING_M)
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

    dphi = 2.0 * np.pi / HF_LEADING_M
    term3 = 0.0
    for z in z_list:
        lnzk = np.log(z) + np.log1p(-nodes / z)
        term3 += 2.0 * np.sum(lnzk * h) * dphi
    return complex(term1 + term2 + term3)


def hf_leading(spec: symbols.SymbolSpec, x: int,
               route: str = "angular") -> complex:
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
        s_val = _s_functional(spec, z, x, n)
        return errors.exp_in_range(s_val + log_num - log_dphi -
                                   x * np.sum(np.log(z)))
    if route == "reduced":
        suite = CauchySuite(spec, x, HF_LEADING_M, unit=True)
        expo = _log_strong_limit(suite)
        expo -= 2.0 * np.sum([suite.Omega_lt(zk) for zk in z])
        return errors.exp_in_range(expo + log_num - log_dphi -
                                   (2 * n + x) * np.sum(np.log(z)))
    raise errors.InputError(f"unknown route {route!r}")


# --- Cauchy-type correction series -------------------------------------------

def slavnov_series(spec: symbols.SymbolSpec, x: int,
                   max_order: int | None = None) -> complex:
    """Leading value tau times the correction sum up to ``max_order``
    (default: full order, exact for symbols with finitely many zeros).

    With a(z) the residue weights of the zeros z inside the contour and b(w)
    those of the zeros w outside it, A_ij = -b(w_i) sum_z a(z) / ((w_i - z)
    (w_j - z)).  Coefficient k of det(t - A) is the sum of the principal
    k-minors of -A, which by Cauchy-Binet and the Cauchy determinant is the
    sum over k-subsets Z, W of prod a(Z) prod b(W) det[1/(w - z)]^2; the
    series is tau times the sum of its leading coefficients."""
    if spec.kind != "rational":
        raise errors.InputError("correction series needs a rational symbol")
    if max_order is not None and max_order < 0:
        raise errors.InputError(f"correction order {max_order} is negative")
    suite = CauchySuite(spec, x)
    zset, wset = suite.zeros_inside(), suite.zeros_outside()
    kmax = min(len(zset), len(wset))
    if max_order is not None:
        kmax = min(kmax, max_order)
    total = 1.0
    if kmax:   # np.poly takes no empty matrix
        a = np.array([suite.residue_weight(z) for z in zset])
        b = np.array([suite.residue_weight(w) for w in wset])
        cmat = 1.0 / np.subtract.outer(np.array(wset), np.array(zset))
        amat = -b[:, None] * ((cmat * a) @ cmat.T)
        total = np.sum(np.poly(amat)[:kmax + 1])
    return errors.exp_in_range(_log_strong_limit(suite), total)


def tau_ratio_swap(spec: symbols.SymbolSpec, x: int, z_a: complex,
                   w_b: complex) -> tuple:
    """Ratio of determinants on the swapped versus base contour.

    Returns (closed form, Nystrom ratio on the deformed contour).
    """
    from .contours import deformed_contour
    ana = symbols.analyze(spec)
    suite = CauchySuite(spec, x)
    contour = suite.contour
    zset, wset = suite.zeros_inside(), suite.zeros_outside()
    if not wset:
        raise errors.NotAvailable("no zeros outside the contour to include")
    z_a, w_b = complex(z_a), complex(w_b)
    if min(abs(z_a - z) for z in zset) > 1e-8:
        raise errors.InputError(f"{z_a} is not a zero inside the contour")
    if min(abs(w_b - w) for w in wset) > 1e-8:
        raise errors.InputError(f"{w_b} is not a zero outside the contour")

    closed = (suite.residue_weight(z_a) * suite.residue_weight(w_b) /
              (z_a - w_b) ** 2)

    deformed = deformed_contour(contour, [z_a], [w_b], ana)
    inside_def = [z for z in zset if abs(z - z_a) > 1e-8] + [w_b]
    det_def = nystrom_det(kernel_V_residue(spec, x, inside_def), deformed,
                          1e-9)
    det_base = nystrom_det(kernel_V_residue(spec, x, zset), contour, 1e-9)
    return complex(closed), complex(det_def.value / det_base.value)


# --- discrete-index determinant identity -------------------------------------

def borodin_okounkov(spec: symbols.SymbolSpec, x: int) -> complex:
    """Smooth-symbol factor times det(Id - K) on shifted integer indices."""
    if symbols.winding_number(spec) != 0:
        raise errors.WindingNonzero("identity needs a zero-winding symbol")
    suite = CauchySuite(spec, x, BO_M)
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
    below = np.flatnonzero(tail < BO_TAIL_TOL)
    # shifts l = 0 .. n_l - 1; a tail that never falls needs unsampled indices
    n_l = max(int(below[0]), 1) if below.size else size + 1
    if n_l > BO_L_CAP:
        raise errors.TailNotConverged("tail cap reached")
    if BO_TRUNC + n_l - 1 > size:
        raise errors.TailNotConverged(
            f"coefficient index {x + BO_TRUNC + n_l - 1} beyond sampled range")
    hankel = np.arange(BO_TRUNC)[:, None] + np.arange(n_l)[None, :]
    K = a[hankel] @ b[hankel].T
    det = complex(np.linalg.det(np.eye(BO_TRUNC, dtype=complex) - K))
    return complex(szego(spec, x) * det)


def variational_check(spec: symbols.SymbolSpec, x: int, j: int) -> tuple:
    """Finite-difference derivative of ln tau under nu -> nu + eps q^j,
    eps = 1e-6, versus the first-order formula; returns (finite difference,
    formula)."""
    eps = 1e-6
    suite = CauchySuite(spec, x)
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

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

from . import errors, symbols, toeplitz
from ._series import (LaurentSplit, circle_nodes, circle_weights, horner,
                      laurent_coeffs)
from .cauchy import CauchySuite, _converged_split, suite_for
from .contours import base_contour, radius_past
from .fredholm import (Reach, _divide_by_gaps, check_grid_cap, kernel_V,
                       kernel_V_residue, nystrom_det)

BO_TAIL_TOL = 1e-16   # borodin_okounkov: size below which the Hankel terms
                      # past a shift, and the indices past it, are dropped


# --- leading tau -------------------------------------------------------------

def tau_leading(spec: symbols.SymbolSpec, x: int,
                route: str = "modes") -> complex:
    """Leading-order value on the symbol's circle, where phi does not wind.

    route 'modes': the strong-limit exponent from the roots, x C + modes.
    route 'double': direct trapezoid of the double integral, diagonal taken
    as the analytic limit nu'(q)^2, on the sampled nu (``_sampled_nu``).
    """
    x = errors.check_x(x)
    suite = suite_for(spec)
    if route == "modes":
        return errors.exp_in_range(_log_strong_limit(suite, x))
    if route == "double":
        nodes, nu = _sampled_nu(suite)
        return errors.exp_in_range(_log_tau_double(
            x, nodes, nu, symbols.eval_dnu(spec, nodes)))
    raise errors.InputError(f"unknown route {route!r}")


def _sampled_nu(suite: CauchySuite) -> tuple:
    """(nodes, nu), nu sampled on the suite's own circle, from 256 nodes."""
    split, m = _converged_split(lambda m: (symbols.eval_nu_grid(
        suite.spec, circle_nodes(suite.rho, m)), suite.rho), 256)
    return circle_nodes(suite.rho, m), split.values


def _log_tau_double(x: int, nodes, nu, dnu) -> complex:
    """ln tau as the trapezoid double integral on the grid ``nodes``, for
    the shift values nu and derivative dnu there; the diagonal of the
    difference quotient is the analytic limit dnu."""
    weights = circle_weights(nodes, nodes.size)
    lin = x * np.sum(weights * nu / nodes)
    # one m x m buffer holds the quotient and its square
    ratio = _divide_by_gaps(nu[None, :] - nu[:, None], nodes)
    np.fill_diagonal(ratio, dnu)
    ratio *= ratio
    return lin - 0.5 * (weights @ ratio @ weights)


def szego(spec: symbols.SymbolSpec, x: int) -> complex:
    """Smooth zero-winding asymptotic x 2 pi i nu_0 + sum_{j>=1} j (2 pi i)^2
    nu_j nu_{-j}: at winding 0 the symbol's own circle is the unit circle,
    so this is ``tau_leading``'s strong-limit value from the one suite."""
    x = errors.check_x(x)
    if symbols.winding_number(spec) != 0:
        raise errors.WindingNonzero("formula needs a zero-winding symbol")
    return tau_leading(spec, x)


# --- strong-limit exponent ---------------------------------------------------

def _log_strong_limit(suite: CauchySuite, x: int) -> complex:
    """(x - winding) C plus sum_{m>=1} m v_m v_{-m}, v_j the modes of
    Omega_gt - Omega_lt, over the suite's roots a outside and b inside and
    the halves E_+- of sum_j t_j q^j: sum_m m t_m t_{-m} - sum_b s_b E_+(b)
    - sum_a s_a E_-(a) - sum_{a,b} s_a s_b log(1 - b/a), where sum_b s_b
    (E_+(b) + sum_a s_a log(1 - b/a)) = sum_b s_b (Omega_gt(b) - C)."""
    (plus, minus), _ = suite.halves
    modes = sum(m * plus[m] * minus[m]
                for m in range(1, min(len(plus), len(minus))))
    modes -= sum(s * (suite.Omega_gt(b) - suite.C) for b, s in suite.inside)
    if minus:
        modes -= sum(s * horner(minus, 1.0 / a) for a, s in suite.outside)
    return (x - suite.winding) * suite.C + complex(modes)


def _require_negative_winding(spec):
    ana = symbols.analyze(spec)
    if ana.winding >= 0:
        raise errors.WindingNonnegative("formula needs negative winding")
    return ana


def tau_eff_kernel(spec: symbols.SymbolSpec, x: int):
    """(kernel, radius) whose det(1 + V) is the unit-circle one, any
    winding.  Negative winding: V in residue form is analytic out to the
    first pole, so it is taken on ``base_contour``'s circle, where phi does
    not wind.  Zero winding, phi = P/Q with no t_j: the outside part of
    q^x theta/(1 + theta) = q^x (1 - Q/P) on the unit circle is its
    principal parts at the zeros of phi inside, so split V is the residue
    form over those zeros, of rank x + #zeros and sized by no sample of x;
    it is taken there unless two of them lie within ``symbols.SEP_TOL``,
    as ``CauchySuite``'s residue sums require.  Otherwise, t_j or such a
    pair or positive winding, split V is taken on the unit circle
    (``kernel_V``)."""
    winding = symbols.winding_number(spec)
    if winding < 0 or winding == 0 and not spec.log_coeffs:
        inside = [z for z in symbols.analyze(spec).zeros if abs(z) < 1.0]
        if winding < 0:
            return kernel_V_residue(spec, x, inside), base_contour(spec)
        if all(abs(a - b) >= symbols.SEP_TOL
               for a, b in itertools.combinations(inside, 2)):
            return kernel_V_residue(spec, x, inside), 1.0
    return kernel_V(spec, x, 1.0), 1.0


def tau_eff(spec: symbols.SymbolSpec, x: int) -> complex:
    """det(1 + V) on the unit circle, any winding (see ``tau_eff_kernel``:
    V's residue form at negative winding and at zero winding where phi =
    P/Q, split V otherwise): exactly 0 at positive winding w, where the
    sector N = L + w of ``formfactors.tau_eff_finite`` is empty, with no
    kernel built; NotConverged past the node cap before the kernel samples
    anything."""
    x = errors.check_x(x)
    if symbols.winding_number(spec) > 0:
        return 0.0 + 0.0j
    check_grid_cap(x)
    return nystrom_det(*tau_eff_kernel(spec, x)).value


def y_moment(suite: CauchySuite, s: int) -> complex:
    """y_s = (1/2 pi i) oint dk/k k^{-s} e^{-Omega_gt(k) - Omega_lt(k)} on
    the unit circle: coefficient s of a unit-circle suite's ratio split.
    TruncationFailure past that split's grid, |s| >= m/2, where the
    coefficient lies below the split's tail and the grid would fold it."""
    split = suite.ratio
    if abs(s) >= split.m // 2:
        raise errors.TruncationFailure(
            f"y-moment {s} lies past the {split.m}-node ratio grid")
    return split.coefficient(s)


def y_log_det(suite: CauchySuite, x: int, n: int) -> complex:
    """log det [y_{x+i-j}], i, j < n, of a unit-circle suite's y-moments:
    ``toeplitz.moment_log_det`` of y_{x-n+1} .. y_{x+n-1}."""
    moments = [0, *(y_moment(suite, x + d) for d in range(1 - n, n)), 0]
    return toeplitz.moment_log_det(np.array(moments, dtype=complex))


def hartwig_fisher(spec: symbols.SymbolSpec, x: int) -> complex:
    """Winding-corrected determinant formula; exact (not just asymptotic)
    equal to det(1 + V) on the unit circle.  The strong-limit exponent and
    the y-moment log-determinant are summed, then exponentiated once."""
    x = errors.check_x(x)
    n = -_require_negative_winding(spec).winding
    suite = suite_for(spec, unit=True)
    return errors.exp_in_range(_log_strong_limit(suite, x) +
                               y_log_det(suite, x, n))


def _s_functional(spec: symbols.SymbolSpec, z_list, x: int, n: int) -> complex:
    """The quadratic phase-shift functional entering the reduced leading form.

    All three pieces are computed spectrally from the unit-circle modes h_j
    of the angular density h(phi) = nu'(e^{i phi}) i e^{i phi}:
      - the ln(q) moment via the Fourier series of the sawtooth;
      - the ln|k-q| double integral via its cosine series;
      - the ln(z_j - k) moments, |z_j| > 1, via the series of ln(1 - q/z).
    """
    split, m = _converged_split(lambda m: (symbols.eval_dnu(
        spec, circle_nodes(1.0, m)) * 1j * circle_nodes(1.0, m), 1.0), 256)
    js, hm = split.j, split.c

    nz = js != 0
    jnz = js[nz]
    # int phi e^{i m phi} dphi = 2 pi (-1)^m / (i m)
    int_phi_h = 2.0 * np.pi * np.sum(hm[nz] * (-1.0) ** jnz / (1j * jnz))
    # The ln(q) moment is the integrated-by-parts form -int nu dq/q: the
    # endpoint value of the (unwrapped) phase shift at q = -1 is subtracted,
    # which is the convention under which this route agrees with the
    # compensated-shift route.
    nu_end = symbols.eval_nu_grid(spec, circle_nodes(1.0, m))[0]
    term1 = -(x + n) * (1j * int_phi_h - 2j * np.pi * nu_end)

    pos = js > 0
    hm_neg = hm[np.searchsorted(js, -js[pos])]
    term2 = -(2.0 * np.pi) ** 2 * np.sum(hm[pos] * hm_neg / js[pos])

    term3 = sum(4.0 * np.pi * (np.log(z) * split.coefficient(0) - np.sum(
        (1.0 / z) ** js[pos] * hm_neg / js[pos])) for z in z_list)
    return complex(term1 + term2 + term3)


def hf_leading(spec: symbols.SymbolSpec, x: int,
               route: str = "angular") -> complex:
    """Leading part of the winding-corrected asymptotic.

    route 'angular': quadratic functional of the raw phase shift on the
    angle interval [-pi, pi).
    route 'reduced': compensated-shift mode sums plus explicit zero factors.
    Both sum over the n zeros of ``z_list`` at winding -n: EmptyAnnulus
    where it holds fewer, as where phi has no zero outside the circle.
    """
    x = errors.check_x(x)
    ana = _require_negative_winding(spec)
    n = -ana.winding
    if len(ana.z_list) < n:
        raise errors.EmptyAnnulus(
            f"winding {-n} but {len(ana.z_list)} zeros to enclose")
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
        suite = suite_for(spec, unit=True)
        expo = _log_strong_limit(suite, x)
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
    series is tau times the sum of its leading coefficients.  At full order
    that sum is det(I - A), one LU; only a partial order forms the
    characteristic polynomial.  NoResidueForm unless phi is rational."""
    x = errors.check_x(x)
    if max_order is not None and max_order < 0:
        raise errors.InputError(f"correction order {max_order} is negative")
    suite = suite_for(spec)
    zset, wset = suite.zeros_inside(), suite.zeros_outside()
    full = min(len(zset), len(wset))
    kmax = full if max_order is None else min(full, max_order)
    total = 1.0
    if kmax:
        a = np.array([suite.residue_weight(z, x) for z in zset])
        b = np.array([suite.residue_weight(w, x) for w in wset])
        cmat = 1.0 / np.subtract.outer(np.array(wset), np.array(zset))
        amat = -b[:, None] * ((cmat * a) @ cmat.T)
        if kmax < full:
            total = np.sum(np.poly(amat)[:kmax + 1])
        else:
            sign, log_abs = np.linalg.slogdet(np.eye(len(wset)) - amat)
            total = sign * np.exp(log_abs)
    return errors.exp_in_range(_log_strong_limit(suite, x), total)


def _ladder_only(kernel):
    """``kernel`` with no fold bound in its reach, so that ``nystrom_det``
    confirms its value on a second grid rather than trusting one."""
    reach = kernel.reach
    kernel.reach = lambda radius: Reach(reach(radius).modes, None)
    return kernel


def tau_ratio_swap(spec: symbols.SymbolSpec, x: int, z_a: complex,
                   w_b: complex) -> tuple:
    """Ratio of det(1 + V) with the zero z_a inside the contour swapped for
    the zero w_b outside it, to det(1 + V) before the swap.

    Returns (closed form, Nystrom ratio, absolute error bound of the
    ratio), the bound combining both determinants' ``err_estimate`` and
    ``lu_rounding``, m^2 eps max(1, |det|) on m nodes: the ratio is
    accurate only in absolute terms, so a small one may be far off relative
    to itself.  The swapped V in residue form is regular at z_a,
    where theta = -1, so its determinant is taken on the plain circle
    ``radius_past`` |w_b| outward, with the poles of phi as obstructions.
    Both determinants run the ladder: phi winds on the swapped circle, so
    that kernel's reach carries no fold bound, and the base kernel's is
    stripped of it (``_ladder_only``).  On F4 with z_a = 1.4 and w_b = 2.2,
    past x ~ 110 the swapped kernel's reach falls under its true fold, and
    its one grid read cancellation noise (5e-5 at x = 127 against the
    closed form's -8e-26, under a bound of 2e-15), which a second grid
    exposes as NotConverged.  EmptyAnnulus when a pole lies between the base circle and
    w_b; NotAvailable when no zero lies inside the contour, or none
    outside."""
    x = errors.check_x(x)
    suite = suite_for(spec)
    zset, wset = suite.zeros_inside(), suite.zeros_outside()
    z_a, w_b = complex(z_a), complex(w_b)
    for z, zeros, side in ((z_a, zset, "inside"), (w_b, wset, "outside")):
        if not zeros:
            raise errors.NotAvailable(f"no zeros {side} the contour")
        if min(abs(z - w) for w in zeros) > 1e-8:
            raise errors.InputError(f"{z} is not a zero {side} the contour")

    closed = (suite.residue_weight(z_a, x) * suite.residue_weight(w_b, x) /
              (z_a - w_b) ** 2)

    poles = symbols.analyze(spec).pole_moduli
    if any(suite.rho < p <= abs(w_b) for p in poles):
        raise errors.EmptyAnnulus(
            f"a pole lies between the contour and the zero {w_b}")
    inside_swap = [z for z in zset if abs(z - z_a) > 1e-8] + [w_b]
    det_swap = nystrom_det(kernel_V_residue(spec, x, inside_swap),
                           radius_past(abs(w_b), poles, 1), 1e-9)
    det_base = nystrom_det(_ladder_only(kernel_V_residue(spec, x, zset)),
                           suite.rho, 1e-9)
    ratio = det_swap.value / det_base.value
    d_swap, d_base = (d.err_estimate + d.lu_rounding
                      for d in (det_swap, det_base))
    # |a/b - (a + da)/(b + db)| <= (|da| + |a/b| |db|) / (|b| - |db|)
    floor = abs(det_base.value) - d_base
    err = (d_swap + abs(ratio) * d_base) / floor if floor > 0 else np.inf
    return complex(closed), complex(ratio), float(err)


# --- discrete-index determinant identity -------------------------------------

def borodin_okounkov(spec: symbols.SymbolSpec, x: int) -> complex:
    """Smooth-symbol factor times det(Id - K) on shifted integer indices."""
    x = errors.check_x(x)
    if symbols.winding_number(spec) != 0:
        raise errors.WindingNonzero("identity needs a zero-winding symbol")
    suite = suite_for(spec, unit=True)
    ratio = suite.ratio                 # (phi_+^{-1} phi_-)_k
    ks, c_plus = laurent_coeffs(1.0 / ratio.values)  # (phi_+ phi_-^{-1})_k
    # K[n, m] = sum_l c-_{x+n+l} c+_{-x-m-l} (n, m >= 1) = (H- @ H+)[n, m]
    # with Hankel factors H-[n, l] = a[n + l], H+[l, m] = b[m + l] (0-based)
    a = ratio.c[ratio.j > x]            # c-_{x+1}, c-_{x+2}, ...
    b = c_plus[ks < -x][::-1]           # c+_{-x-1}, c+_{-x-2}, ...
    size = min(a.size, b.size)
    # with A, B the suffix maxima of |a| and |b|, the shifts l >= n add at
    # most T_n = sum_{s>=n} A_s B_s to any entry, and T_n bounds K[n, n]:
    # shifts and indices n (a row and a column, which enter det(Id - K)
    # through K[n, n] and the products K[n, m] K[m, n]) are kept while T_n
    # passes BO_TAIL_TOL.  A row alone, of size A_n B_0, would flatten at
    # the coefficients' rounding floor instead.
    a_max, b_max = (np.maximum.accumulate(np.abs(v[:size])[::-1])[::-1]
                    for v in (a, b))
    tail = np.cumsum((a_max * b_max)[::-1])[::-1]
    below = np.flatnonzero(tail < BO_TAIL_TOL)
    if size and not below.size:
        raise errors.TailNotConverged(f"tail {tail[-1]:.2e} at the grid edge")
    order = max(int(below[0]), 1) if size else 1   # n, l = 0 .. order - 1
    # past the grid the coefficients lie below the converged split's tail
    width = 2 * order - 1
    a, b = (np.pad(v[:width], (0, max(width - v.size, 0))) for v in (a, b))
    hankel = np.add.outer(np.arange(order), np.arange(order))
    K = a[hankel] @ b[hankel].T
    mat = np.eye(order, dtype=complex) - K
    sign, log_abs = np.linalg.slogdet(mat)
    # rounding the entries moves det by ~eps times the product of the row
    # norms, which bounds |det|: below eps of it no digit is assured
    log_hadamard = log_abs - np.sum(np.log(np.linalg.norm(mat, axis=1)))
    if not log_hadamard >= np.log(np.finfo(float).eps):
        raise errors.Cancellation(
            f"det(Id - K) is {np.exp(log_hadamard):.1e} of its Hadamard "
            f"bound at x={x}")
    return errors.exp_in_range(_log_strong_limit(suite, x) + log_abs +
                               1j * np.angle(sign))


def variational_check(spec: symbols.SymbolSpec, x: int, j: int) -> tuple:
    """Finite-difference derivative of ln tau under nu -> nu + eps q^j,
    eps = 1e-6, versus the first-order formula; returns (finite difference,
    formula)."""
    eps = 1e-6
    x = errors.check_x(x)
    suite = suite_for(spec)
    nodes, nu = _sampled_nu(suite)
    weights = circle_weights(nodes, nodes.size)
    dnu = symbols.eval_dnu(spec, nodes)

    pert = nodes.astype(complex) ** j
    dpert = j * nodes.astype(complex) ** (j - 1)
    fd = (_log_tau_double(x, nodes, nu + eps * pert, dnu + eps * dpert) -
          _log_tau_double(x, nodes, nu - eps * pert, dnu - eps * dpert)) / (2 * eps)

    # first-order variation paired with the perturbation: the double-integral
    # part reduces, after integration by parts, to the principal value of the
    # transform of nu', i.e. the average of its inside/outside split values.
    split = LaurentSplit(dnu, suite.rho)
    pv = split.plus(nodes) + split.minus(nodes)
    inner = x / nodes + 2j * np.pi * pv
    formula = np.sum(weights * pert * inner)
    return complex(fd), complex(formula)

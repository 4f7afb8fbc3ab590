"""Acceptance suite: one test per contract criterion, each printing a
single pass/fail line with the worst observed residual at the stated
tolerance.  Every identity is checked against the independent
moment-determinant oracle or a second independent evaluation route.
"""

import numpy as np
import pytest

from detlab import (asymptotics, cauchy, formfactors, fredholm, orthopoly,
                    symbols, toeplitz)
from detlab.contours import unit_circle

FIXTURES = list(symbols.FIXTURE_NAMES[1:])  # F1..F7 (F0 is trivial)


def report(num, label, worst, tol, ok=None):
    ok = (worst < tol) if ok is None else ok
    print(f"criterion {num:2d} [{label}]: "
          f"{'PASS' if ok else 'FAIL'}  worst={worst:.3e}  tol={tol:.1e}")
    assert ok, f"criterion {num}: worst residual {worst:.3e} >= {tol:.1e}"


def test_criterion_01_oracle_equivalence():
    # det(1 + S) on the selected contour vs the exact moment determinant
    worst = 0.0
    for name in FIXTURES:
        spec = symbols.fixture(name)
        ct = asymptotics.base_contour(spec)
        for x in range(1, 11):
            det = fredholm.nystrom_det(fredholm.kernel_S(spec, x), ct,
                                       m_cap=512).value
            t = toeplitz.toeplitz_det(spec, x)
            worst = max(worst, abs(det - t) / abs(t))
    report(1, "oracle equivalence", worst, 1e-8)


def test_criterion_02_constant_symbol():
    spec = symbols.fixture("F1")
    ct = asymptotics.base_contour(spec)
    worst = 0.0
    for x in range(1, 11):
        truth = 1.5 ** x
        values = [
            toeplitz.toeplitz_det(spec, x),
            fredholm.nystrom_det(fredholm.kernel_S(spec, x), ct).value,
            asymptotics.tau_leading(spec, ct, x),
            asymptotics.szego(spec, x),
            asymptotics.borodin_okounkov(spec, x),
        ]
        worst = max(worst, max(abs(v - truth) / truth for v in values))
    report(2, "constant symbol closed form", worst, 1e-12)


def test_criterion_03_winding_determinant_exactness():
    # the n x n moment-determinant formula vs det(1 + V) on the unit circle
    worst = 0.0
    for name in ("F3", "F5"):
        spec = symbols.fixture(name)
        for x in range(1, 9):
            hf = asymptotics.hartwig_fisher(spec, x)
            det = asymptotics.tau_eff(spec, x)
            worst = max(worst, abs(hf - det) / abs(det))
    report(3, "winding-sector exactness", worst, 1e-7)


def test_criterion_04_correction_series_exactness():
    # For F3 the selected contour already encloses every zero, so the
    # correction set is empty and order 0 is the full series: both errors
    # sit at the rounding floor and "strictly worse" is vacuous there.
    worst = 0.0
    zero_order_strictly_worse = True
    floor = 1e-12
    for name in ("F3", "F4"):
        spec = symbols.fixture(name)
        for x in (2, 4, 6):
            t = toeplitz.toeplitz_det(spec, x)
            full = asymptotics.slavnov_series(spec, x)
            worst = max(worst, abs(full - t) / abs(t))
            e0 = abs(asymptotics.slavnov_series(spec, x, max_order=0) - t)
            ef = abs(full - t)
            zero_order_strictly_worse &= (ef < e0 or
                                          (e0 < floor and ef < floor))
    report(4, "correction series exact", worst, 1e-8,
           ok=(worst < 1e-8 and zero_order_strictly_worse))


def test_criterion_05_contour_swap_ratio():
    worst = 0.0
    for x in (2, 3, 4):
        closed, ratio = asymptotics.tau_ratio_swap(
            symbols.fixture("F4"), x, 1.4, 2.2)
        worst = max(worst, abs(closed - ratio) / abs(ratio))
    report(5, "zero-for-zero contour swap", worst, 1e-6)


def test_criterion_06_index_series_identity():
    worst = 0.0
    for name in ("F2", "F6"):
        spec = symbols.fixture(name)
        for x in (3, 5, 8):
            bo = asymptotics.borodin_okounkov(spec, x)
            t = toeplitz.toeplitz_det(spec, x)
            worst = max(worst, abs(bo - t) / abs(t))
    report(6, "index-space determinant identity", worst, 1e-8)


def test_criterion_07_m_function_dual_routes():
    # one probe inside the contour and one outside: with both probes on the
    # same side and all symbol zeros enclosed the value vanishes identically
    # and a relative gap between two rounding-level zeros is meaningless
    rng = np.random.default_rng(11)
    worst = 0.0
    for name in FIXTURES:
        spec = symbols.fixture(name)
        suite = cauchy.CauchySuite(spec, asymptotics.base_contour(spec), 2)
        for _ in range(8):
            r1 = suite.rho * (0.3 + 0.4 * rng.random())
            r2 = suite.rho * (1.2 + 0.6 * rng.random())
            k1 = r1 * np.exp(2j * np.pi * rng.random())
            k2 = r2 * np.exp(2j * np.pi * rng.random())
            a, b = fredholm.m_function(suite, k1, k2)
            worst = max(worst, abs(a - b) / max(abs(b), 1e-30))
    report(7, "kernel numerator dual routes", worst, 1e-8)


def test_criterion_08_leading_route_identity():
    worst = 0.0
    for name in ("F3", "F5"):
        spec = symbols.fixture(name)
        for x in (2, 5):
            a = asymptotics.hf_leading(spec, x, route="angular")
            b = asymptotics.hf_leading(spec, x, route="reduced")
            worst = max(worst, abs(a - b) / abs(b))
    report(8, "leading-term route identity", worst, 1e-7)


def test_criterion_09_matrix_boundary_problem():
    worst_rhp = 0.0
    for name, xs in (("F3", range(1, 7)), ("F5", (2, 3))):
        spec = symbols.fixture(name)
        for x in xs:
            sol = orthopoly.RHPSolution(orthopoly.MeasureMu(spec, x))
            for q in np.exp(2j * np.pi * np.array([0.08, 0.37, 0.81])):
                worst_rhp = max(worst_rhp, sol.jump_residual(q))
            worst_rhp = max(worst_rhp, sol.normalization_residual())
            worst_rhp = max(worst_rhp,
                            orthopoly.hf_moment_equivalence(spec, x))
    worst_cd = 0.0
    rng = np.random.default_rng(5)
    mu = orthopoly.MeasureMu(symbols.fixture("F5"), 3)
    for _ in range(4):
        p, q = 0.85 * np.exp(2j * np.pi * rng.random(2))
        a = orthopoly.christoffel_darboux(mu, p, q, route="sum")
        b = orthopoly.christoffel_darboux(mu, p, q, route="closed")
        worst_cd = max(worst_cd, abs(a - b) / max(abs(b), 1e-30))
    ok = worst_rhp < 1e-8 and worst_cd < 1e-9
    report(9, "matrix boundary problem", max(worst_rhp, worst_cd), 1e-8,
           ok=ok)


def test_criterion_10_resolvent_inversion():
    worst = 0.0
    for name in ("F1", "F2", "F3"):
        spec = symbols.fixture(name)
        for x in (2, 6):
            suite = cauchy.CauchySuite(spec, asymptotics.base_contour(spec),
                                       x)
            worst = max(worst, fredholm.resolvent_residual(suite))
    report(10, "resolvent inversion", worst, 1e-8)


def test_criterion_11_rank_one_identity():
    worst = 0.0
    for name in ("F2", "F6"):
        spec = symbols.fixture(name)
        for x in (2, 5, 8):
            res = fredholm.rank_one_shift_identity(spec, x)
            worst = max(worst, res["residual_difference"],
                        res["residual_closed"])
    report(11, "rank-one shift identity", worst, 1e-8)


def test_criterion_12_finite_size_convergence():
    # Gap to det(1 + V) must shrink from L=8 to L=16 by at least 1/3.
    # For F1 the finite-size sum is exact at every L (a constant shift
    # cancels the discretization error identically), so both gaps sit at
    # the rounding floor and their ratio is noise; the floor case is
    # accepted explicitly rather than pretending a ratio of two
    # rounding errors is meaningful.
    floor = 1e-12
    worst_ratio = 0.0
    ok = True
    for name in ("F1", "F2"):
        spec = symbols.fixture(name)
        for x in (1, 2, 3):
            truth = asymptotics.tau_eff(spec, x)
            g8 = abs(formfactors.tau_eff_finite(spec, 8, 8, x) - truth)
            g16 = abs(formfactors.tau_eff_finite(spec, 16, 16, x) - truth)
            if g8 < floor and g16 < floor:
                continue
            ratio = g16 / g8
            worst_ratio = max(worst_ratio, ratio)
            ok &= ratio <= 2.0 / 3.0
    report(12, "finite-size convergence", worst_ratio, 2.0 / 3.0, ok=ok)


def test_criterion_13_asymptotic_decay():
    # Relative gaps must decrease monotonically until they reach the
    # rounding floor, then stay below it.  For F3 the leading formula is
    # exact (no zeros lie beyond the selected contour, so every
    # correction vanishes identically) and the whole sequence sits at
    # the floor from the start; that degenerate-but-correct case is
    # accepted by the same floor rule.
    floor = 1e-13

    def monotone_to_floor(gaps):
        dropped = False
        for a, b in zip(gaps, gaps[1:]):
            if dropped or a <= floor:
                dropped = True
                if b > floor:
                    return False
            elif b > floor and b >= a:
                return False
        return True

    spec3 = symbols.fixture("F3")
    gaps3 = [abs(toeplitz.toeplitz_det(spec3, x) /
                 asymptotics.hf_leading(spec3, x) - 1)
             for x in range(4, 13)]
    spec2 = symbols.fixture("F2")
    gaps2 = [abs(toeplitz.toeplitz_det(spec2, x) /
                 asymptotics.szego(spec2, x) - 1)
             for x in range(4, 13)]
    ok = monotone_to_floor(gaps3) and monotone_to_floor(gaps2)
    report(13, "asymptotic decay", max(gaps3[-1], gaps2[-1]), floor, ok=ok)


def test_criterion_14_scalar_problem_and_spectral_convergence():
    worst_jump = 0.0
    for name in FIXTURES:
        spec = symbols.fixture(name)
        suite = cauchy.CauchySuite(spec, asymptotics.base_contour(spec), 2)
        worst_jump = max(worst_jump, suite.jump_residual)

    # self-convergence: each m-doubling shrinks the determinant change by
    # at least 10x until the rounding floor
    spectral_ok = True
    floor = 1e-12
    for name in ("F2", "F4"):
        spec = symbols.fixture(name)
        ct = asymptotics.base_contour(spec)
        kern = fredholm.kernel_S(spec, 3)
        dets = []
        for m in (32, 64, 128, 256, 512):
            quad = fredholm.quadrature(ct, m)
            mat = np.eye(len(quad.nodes), dtype=complex) + \
                kern.matrix(quad.nodes, quad.weights)
            dets.append(complex(np.linalg.det(mat)))
        errs = [abs(a - b) for a, b in zip(dets, dets[1:])]
        for e_prev, e_next in zip(errs, errs[1:]):
            if e_prev <= floor:
                continue
            spectral_ok &= (e_next <= e_prev / 10.0 or e_next <= floor)
    ok = worst_jump < 1e-10 and spectral_ok
    report(14, "scalar problem + spectral convergence", worst_jump, 1e-10,
           ok=ok)

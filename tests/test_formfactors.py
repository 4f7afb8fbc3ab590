"""Finite-size root systems and the discrete sum over excited subsets.

``form_factor`` and ``enumerated_sum`` are the small-L oracle: the sum taken
term by term over all C(L, N) subsets, against which the closed forms of
``tau_eff_finite`` are checked.
"""

import itertools

import numpy as np
import pytest
from hypothesis import assume, given, reject, settings, strategies as st

from detlab import asymptotics, errors, symbols, toeplitz
from detlab.formfactors import (ROW_BLOCK, _angular_density, _min_distance,
                                solve_shifted, tau_eff_finite)


class SizeMismatch(ValueError):
    """Subset of the wrong size given to ``form_factor``."""


def form_factor(system, q_subset) -> complex:
    """Squared overlap of the shifted roots with an N-point unshifted subset.

    Evaluated as a sum of logarithms and exponentiated once at the end; the
    value is symmetric in the subset ordering.
    """
    q = np.asarray(q_subset, dtype=complex)
    if q.shape != (system.N,):
        raise SizeMismatch(
            f"subset size {q.size} != number of shifted roots {system.N}")
    spec, L, p = system.spec, system.L, system.p_roots

    theta_q = symbols.eval_theta(spec, q)
    theta_p = symbols.eval_theta(spec, p)
    if np.any(theta_q == 0) or np.any(theta_p == 0):
        return 0.0 + 0.0j
    dens = _angular_density(spec, p, L)

    log_total = -2.0 * system.N * np.log(float(L))
    log_total += np.sum(np.log(p) + np.log(q) + np.log(theta_q) +
                        np.log(theta_p) - np.log(1.0 + theta_q) - np.log(dens))
    iu = np.triu_indices(system.N, k=1)
    log_total += 2.0 * np.sum(np.log(p[iu[1]] - p[iu[0]]))
    log_total += 2.0 * np.sum(np.log(q[iu[1]] - q[iu[0]]))
    log_total -= 2.0 * np.sum(np.log(p[:, None] - q[None, :]))
    return complex(np.exp(log_total))


def enumerated_sum(spec, L, N, x) -> complex:
    """Sum over N-subsets of the unshifted grid of |overlap|^2 prod (q/p)^x,
    term by term, with compensated summation; the coincident subset of a
    trivial symbol contributes 1."""
    system = solve_shifted(spec, L, N)
    p = system.p_roots
    total = 0.0 + 0.0j
    comp = 0.0 + 0.0j
    for combo in itertools.combinations(range(L), system.N):
        q = system.q_roots[list(combo)]
        if np.max(np.abs(np.sort_complex(q) - np.sort_complex(p))) < 1e-12:
            term = 1.0 + 0.0j
        else:
            term = form_factor(system, q) * complex(np.prod((q / p) ** x))
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return complex(total)


@st.composite
def banded_symbols(draw):
    """phi(q) = c prod (1 - q/w_k) prod (1 - z_k/q): zeros z_k with modulus
    in [0.2, 0.4], w_k in [2.5, 4], so phi stays near c on the unit circle."""
    def zero(lo, hi):
        r = draw(st.floats(lo, hi))
        a = draw(st.floats(0.0, 2.0 * np.pi))
        return r * np.exp(1j * a)

    inner = [zero(0.2, 0.4) for _ in range(draw(st.integers(0, 2)))]
    outer = [zero(2.5, 4.0) for _ in range(draw(st.integers(0, 2)))]
    c = draw(st.floats(0.5, 2.0))
    numer = np.polynomial.polynomial.polyfromroots(inner + outer)
    numer = c * numer / np.prod([-w for w in outer])
    denom = [0.0] * len(inner) + [1.0]
    return symbols.SymbolSpec("rational", tuple(numer), tuple(denom))


class TestRoots:
    def test_trivial_symbol_roots_coincide(self):
        spec = symbols.fixture("F0")
        sys = solve_shifted(spec, L=8, N=4)
        assert np.max(np.abs(sys.p_roots - sys.q_roots[sys.indices])) < 1e-12

    def test_constant_symbol_radius(self):
        # p^L (1 + 0.5) = 1 so |p| = 1.5^{-1/L}
        sys = solve_shifted(symbols.fixture("F1"), L=8, N=4)
        assert np.max(np.abs(np.abs(sys.p_roots) - 1.5 ** (-1 / 8))) < 1e-12

    def test_offsets_are_root_displacements(self):
        sys = solve_shifted(symbols.fixture("F2"), L=10, N=5)
        assert np.array_equal(sys.p_roots,
                              sys.q_roots[sys.indices] + sys.offsets)
        assert not np.any(solve_shifted(symbols.fixture("F0"), 8).offsets)

    def test_residuals_small(self):
        sys = solve_shifted(symbols.fixture("F2"), L=10, N=5)
        assert np.max(sys.residuals) < 1e-12

    def test_roots_distinct(self):
        sys = solve_shifted(symbols.fixture("F2"), L=12, N=6)
        p = sys.p_roots
        gaps = np.abs(p[:, None] - p[None, :])[np.triu_indices(len(p), 1)]
        assert gaps.min() > 1e-6

    def test_colliding_roots_raise(self):
        with pytest.raises(errors.DegenerateZeros):
            solve_shifted(symbols.fixture("F6"), L=16, N=6)

    def test_blocked_min_distance(self):
        rng = np.random.default_rng(3)
        p = rng.standard_normal(2 * ROW_BLOCK + 5) + \
            1j * rng.standard_normal(2 * ROW_BLOCK + 5)
        p[-1] = p[ROW_BLOCK // 2] + 1e-9      # closest pair across blocks
        dist = np.abs(p[:, None] - p[None, :])
        np.fill_diagonal(dist, np.inf)
        assert _min_distance(p) == dist.min()
        assert _min_distance(p[:1]) == np.inf


class TestFormFactor:
    def test_vanishing_shift_gives_zero(self):
        # theta = 0 kills the overlap weight termwise; the coincident-grid
        # unit contribution is supplied by the summation layer instead
        spec = symbols.fixture("F0")
        sys = solve_shifted(spec, L=8, N=4)
        assert form_factor(sys, sys.q_roots[sys.indices]) == 0.0

    def test_permutation_invariance(self):
        sys = solve_shifted(symbols.fixture("F2"), L=10, N=5)
        subset = sys.q_roots[[0, 2, 5, 7, 9]]
        a = form_factor(sys, subset)
        b = form_factor(sys, subset[::-1])
        assert abs(a - b) / abs(a) < 1e-12

    def test_size_mismatch(self):
        sys = solve_shifted(symbols.fixture("F2"), L=10, N=5)
        with pytest.raises(SizeMismatch):
            form_factor(sys, sys.q_roots[:3])


class TestFiniteSum:
    def test_trivial_symbol_sums_to_one(self):
        assert abs(tau_eff_finite(symbols.fixture("F0"), L=8, x=3) -
                   1.0) < 1e-14

    def test_constant_symbol_exact_at_any_size(self):
        spec = symbols.fixture("F1")
        truth = toeplitz.toeplitz_det(spec, 2)
        for L in (6, 8, 12):
            val = tau_eff_finite(spec, L=L, x=2)
            assert abs(val - truth) / abs(truth) < 1e-11, L

    def test_smooth_symbol_converges(self):
        # the L -> infinity limit of the subset sum is det(1 + V) on the
        # unit circle, which differs from the moment determinant by
        # exponentially small corrections in x
        spec = symbols.fixture("F2")
        truth = asymptotics.tau_eff(spec, 2)
        gaps = [abs(tau_eff_finite(spec, L=L, x=2) - truth) / abs(truth)
                for L in (8, 12, 16)]
        assert gaps[-1] < 1e-10
        assert gaps[0] > gaps[-1]

    def test_trivial_symbol_gives_exactly_one(self):
        spec = symbols.fixture("F0")
        assert tau_eff_finite(spec, L=8, N=4, x=3) == 1.0
        assert tau_eff_finite(spec, L=8, N=8, x=3) == 1.0

    def test_large_sizes_without_budget(self):
        # C(64, 32) ~ 1.8e18 subsets: out of reach of any enumeration
        spec = symbols.fixture("F2")
        assert np.isfinite(tau_eff_finite(spec, L=64, N=32, x=2))
        truth = asymptotics.tau_eff(spec, 2)
        val = tau_eff_finite(spec, L=1024, N=1024, x=2)
        assert abs(val - truth) / abs(truth) < 1e-9

    @pytest.mark.parametrize("name,L,N", [("F1", 8, 3), ("F2", 10, 5),
                                          ("F2", 9, 9), ("F7", 8, 4)])
    def test_closed_forms_match_enumeration(self, name, L, N):
        spec = symbols.fixture(name)
        want = enumerated_sum(spec, L, N, 2)
        got = tau_eff_finite(spec, L, N, 2)
        assert abs(got - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("c", [1 - 2 ** -9, 1 + 2 ** -9])
    def test_near_trivial_symbol_error_tracks_conditioning(self, c):
        # theta = c - 1 is small, so each shifted root lies ~|theta|/L from
        # its start and rounding the roots costs ~L eps/|theta| relative
        spec = symbols.SymbolSpec("rational", (c,), (1.0,))
        truth = toeplitz.toeplitz_det(spec, 2)
        for L in (4, 8, 12, 64):
            bound = 50 * L * np.finfo(float).eps / abs(c - 1)
            val = tau_eff_finite(spec, L=L, x=2)
            assert abs(val - truth) <= bound * abs(truth), L

    @pytest.mark.parametrize("c,L", [(1 - 2 ** -20, 12), (1 - 2 ** -20, 64),
                                     (1 - 2 ** -20, 256), (1 - 2 ** -9, 256)])
    def test_near_trivial_symbol_keeps_full_precision(self, c, L):
        # each root sits ~|theta|/L from its start; Newton on that offset,
        # p^L - 1 from it and the row ratios from offset ratios keep the sum
        # exact to rounding (absolute roots: 5.6e-9 at c = 1 - 2^-20, L = 12;
        # rounding each of the L^2 factors 1 + u: 6.7e-12 at c = 1 - 2^-9,
        # L = 256)
        spec = symbols.SymbolSpec("rational", (c,), (1.0,))
        truth = toeplitz.toeplitz_det(spec, 2)
        assert abs(tau_eff_finite(spec, L=L, x=2) / truth - 1) <= 1e-12

    @pytest.mark.parametrize("N", [4, 8])
    def test_theta_zero_on_grid_gives_zero(self, N):
        # phi = (q + 3)/4 has phi(1) = 1: the root at q = 1 never moves
        spec = symbols.SymbolSpec("rational", (0.75, 0.25), (1.0,))
        assert enumerated_sum(spec, 8, N, 2) == 0.0
        assert tau_eff_finite(spec, 8, N, 2) == 0.0

    @settings(max_examples=40, deadline=None)
    @given(spec=banded_symbols(), L=st.integers(4, 12), data=st.data(),
           x=st.integers(0, 4))
    def test_closed_forms_match_enumeration_random(self, spec, L, data, x):
        N = data.draw(st.integers(1, L))
        try:
            system = solve_shifted(spec, L, N)
        except (errors.NewtonDiverged, errors.DegenerateZeros):
            reject()  # no root system at this size: nothing to sum
        # A shifted root sits about theta(p)/L from its start, so rounding p
        # costs ~L eps/|theta(p)| in any evaluation of the sum, exact
        # arithmetic on the rounded roots included: at theta ~ 2e-3 and
        # L = 4 that is already 1.4e-12.  Compare only where both sides can
        # carry 1e-12.
        assume(np.min(np.abs(symbols.eval_theta(spec, system.p_roots)))
               >= 0.1)
        want = enumerated_sum(spec, L, N, x)
        got = tau_eff_finite(spec, L, N, x)
        assert abs(got - want) <= 1e-12 * abs(want)

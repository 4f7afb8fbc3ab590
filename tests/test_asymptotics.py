"""The ladder of exact and asymptotic determinant formulas."""

import numpy as np
import pytest

from detlab import asymptotics as A
from detlab import errors, symbols, toeplitz
from detlab.contours import unit_circle


class TestLeading:
    @pytest.mark.parametrize("name,x", [("F1", 3), ("F2", 4), ("F4", 3)])
    def test_dual_routes_agree(self, name, x):
        spec = symbols.fixture(name)
        ct = A.base_contour(spec)
        a = A.tau_leading(spec, ct, x, route="modes")
        b = A.tau_leading(spec, ct, x, route="double")
        assert abs(a - b) / abs(b) < 1e-9

    def test_constant_symbol_exact(self):
        spec = symbols.fixture("F1")
        ct = A.base_contour(spec)
        for x in (1, 5):
            assert abs(A.tau_leading(spec, ct, x) - 1.5 ** x) < 1e-10

    def test_variational_formula(self):
        for name, ct, x, j in [("F2", unit_circle(), 2, -1),
                               ("F2", unit_circle(), 3, 0),
                               ("F4", None, 2, 1)]:
            spec = symbols.fixture(name)
            ct = ct or A.base_contour(spec)
            fd, formula = A.variational_check(spec, ct, x, j)
            assert abs(fd - formula) / max(abs(formula), 1e-8) < 1e-4


class TestSzego:
    def test_f2_closed_form(self):
        # log phi = 0.3 q + 0.2/q: strong-limit constant exp(0.3*0.2)
        spec = symbols.fixture("F2")
        assert abs(A.szego(spec, 5) - np.exp(0.06)) < 1e-12

    def test_f1_equals_power(self):
        spec = symbols.fixture("F1")
        assert abs(A.szego(spec, 4) - 1.5 ** 4) < 1e-12


class TestHartwigFisher:
    @pytest.mark.parametrize("name,x", [("F3", 1), ("F3", 4), ("F5", 3)])
    def test_exact_at_finite_x(self, name, x):
        spec = symbols.fixture(name)
        hf = A.hartwig_fisher(spec, x)
        det = A.tau_eff(spec, x)
        assert abs(hf - det) / abs(det) < 1e-10

    def test_needs_negative_winding(self):
        with pytest.raises(errors.WindingNonnegative):
            A.hartwig_fisher(symbols.fixture("F2"), 2)

    @pytest.mark.parametrize("name,x", [("F3", 2), ("F3", 6), ("F5", 3)])
    def test_leading_routes_agree(self, name, x):
        spec = symbols.fixture(name)
        a = A.hf_leading(spec, x, route="angular")
        b = A.hf_leading(spec, x, route="reduced")
        assert abs(a - b) / abs(b) < 1e-10

    def test_leading_matches_contour_form(self):
        spec = symbols.fixture("F5")
        tl = A.tau_leading(spec, A.base_contour(spec), 4)
        assert abs(A.hf_leading(spec, 4) - tl) / abs(tl) < 1e-9


class TestSlavnov:
    def test_empty_sets_give_unity(self):
        spec = symbols.fixture("F4")
        assert abs(A.slavnov_term(spec, 3, [], []) - 1.0) < 1e-14

    def test_size_mismatch(self):
        spec = symbols.fixture("F4")
        with pytest.raises(errors.SizeMismatch):
            A.slavnov_term(spec, 3, [1.4], [])

    @pytest.mark.parametrize("x", [2, 4, 6])
    def test_full_series_is_exact(self, x):
        spec = symbols.fixture("F4")
        s = A.slavnov_series(spec, x)
        t = toeplitz.toeplitz_det(spec, x)
        assert abs(s - t) / abs(t) < 1e-10

    def test_order_zero_is_strictly_worse(self):
        spec = symbols.fixture("F4")
        t = toeplitz.toeplitz_det(spec, 4)
        e0 = abs(A.slavnov_series(spec, 4, max_order=0) - t)
        ef = abs(A.slavnov_series(spec, 4) - t)
        assert ef < e0

    def test_correction_matrix_matches_terms(self):
        # det(I - A) equals 1 + sum of the explicit correction terms
        spec = symbols.fixture("F4")
        ct = A.base_contour(spec)
        amat = A.correction_matrix(spec, 3, ct)
        det = complex(np.linalg.det(np.eye(len(amat)) - amat))
        total = 1.0 + A.slavnov_term(spec, 3, [0.3], [2.2], ct) + \
            A.slavnov_term(spec, 3, [1.4], [2.2], ct)
        assert abs(det - total) / abs(total) < 1e-10

    @pytest.mark.parametrize("x", [2, 3])
    def test_contour_swap_ratio(self, x):
        spec = symbols.fixture("F4")
        closed, ratio = A.tau_ratio_swap(spec, x, 1.4, 2.2)
        assert abs(closed - ratio) / abs(ratio) < 1e-8

    def test_terms_decay_in_x(self):
        spec = symbols.fixture("F4")
        ct = A.base_contour(spec)
        mags = [abs(A.slavnov_term(spec, x, [1.4], [2.2], ct))
                for x in (2, 4, 6, 8)]
        assert all(a > b for a, b in zip(mags, mags[1:]))


class TestIndexSeries:
    @pytest.mark.parametrize("name,x", [("F2", 3), ("F2", 5), ("F6", 3),
                                        ("F6", 8)])
    def test_identity(self, name, x):
        spec = symbols.fixture(name)
        bo = A.borodin_okounkov(spec, x)
        t = toeplitz.toeplitz_det(spec, x)
        assert abs(bo - t) / abs(t) < 1e-10

    def test_f1_closed_form(self):
        assert abs(A.borodin_okounkov(symbols.fixture("F1"), 3) -
                   1.5 ** 3) < 1e-10

    @pytest.mark.parametrize("x", [470, 600])
    def test_unsampled_indices_raise(self, x):
        # the kernel needs c-_{x+1} .. c-_{x+trunc}; the grid holds j < 512
        with pytest.raises(errors.TailNotConverged):
            A.borodin_okounkov(symbols.fixture("F2"), x)


class TestDecay:
    def test_f2_szego_gap_decays_to_floor(self):
        spec = symbols.fixture("F2")
        gaps = [abs(toeplitz.toeplitz_det(spec, x) / A.szego(spec, x) - 1)
                for x in range(4, 13)]
        floor = 1e-13
        above = [g for g in gaps if g > floor]
        assert all(a > b for a, b in zip(above, above[1:]))

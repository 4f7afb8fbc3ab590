"""Exact moment-determinant oracle."""

import numpy as np
import pytest

from detlab import asymptotics, errors, symbols, toeplitz


class TestClosedForms:
    def test_constant_symbol(self):
        sp = symbols.fixture("F1")
        for x in range(1, 8):
            assert abs(toeplitz.toeplitz_det(sp, x) - 1.5 ** x) < 1e-12

    def test_triangular_symbol(self):
        # F7: phi = q - 0.4 has only moments c_1 = 1, c_0 = -0.4, so the
        # moment matrix is lower-triangular with -0.4 on the diagonal
        sp = symbols.fixture("F7")
        for x in (1, 3, 6):
            assert abs(toeplitz.toeplitz_det(sp, x) - (-0.4) ** x) < 1e-12

    def test_f3_is_unity(self):
        # F3 has c_0 = 1 and only non-positive moments otherwise: upper
        # triangular with unit diagonal
        sp = symbols.fixture("F3")
        for x in (1, 4, 9):
            assert abs(toeplitz.toeplitz_det(sp, x) - 1.0) < 1e-12


class TestStructure:
    def test_matrix_is_toeplitz(self):
        mat = toeplitz.toeplitz_matrix(symbols.fixture("F4"), 5)
        for d in range(-4, 5):
            diag = np.diagonal(mat, offset=d)
            assert np.max(np.abs(diag - diag[0])) < 1e-14

    @pytest.mark.parametrize("x", range(1, 9))
    def test_matrix_entries_are_moments(self, x):
        spec = symbols.fixture("F4")
        c = toeplitz.moment_table(spec, x)
        mat = toeplitz.toeplitz_matrix(spec, x)
        assert mat.shape == (x, x)
        for i in range(x):
            for j in range(x):
                assert mat[i, j] == c[i - j]

    def test_moment_table_symmetric_range(self):
        table = toeplitz.moment_table(symbols.fixture("F4"), 3)
        assert set(table) == set(range(-3, 4))

    def test_f4_agrees_with_series_at_large_x(self):
        # phi winds on |q| = 1; moments sampled there lost every digit by
        # x = 128, on the zero-winding circle they keep them
        spec = symbols.fixture("F4")
        det = toeplitz.toeplitz_det(spec, 128)
        ref = asymptotics.slavnov_series(spec, 128)
        assert abs(det - ref) / abs(ref) < 1e-10

    def test_overflow_is_loud(self):
        # det grows past the double range at x = 1024 for F4
        with pytest.raises(errors.OverflowGuard):
            toeplitz.toeplitz_det(symbols.fixture("F4"), 1024)

    def test_invalid_order(self):
        with pytest.raises(errors.InputError):
            toeplitz.toeplitz_det(symbols.fixture("F1"), 0)

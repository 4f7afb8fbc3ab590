"""Exact moment-determinant oracle."""

import itertools
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from detlab import asymptotics, cauchy, cli, errors, symbols, toeplitz
from detlab._series import circle_nodes
from test_asymptotics import (SLOW, laurent_symbols, log_gap,
                              two_sided_symbols)


def gather(moments):
    """T_ij = c_{i-j} from the moment vector c_{-x} .. c_x."""
    x = moments.size // 2
    return moments[np.subtract.outer(np.arange(x), np.arange(x)) + x]


def toeplitz_matrix(spec, x):
    return gather(toeplitz.moment_table(spec, x))


def dense_log_det(spec, x):
    sign, log_abs = np.linalg.slogdet(toeplitz_matrix(spec, x))
    return complex(log_abs, np.angle(sign))


EPS = np.finfo(float).eps


def growth(moments):
    """g of the recursion's error model (toeplitz.GROWTH_MAX): the largest
    |alpha|, |gamma| and |alpha gamma| / |1 - alpha gamma| over its steps,
    by a plain loop over the same recurrences."""
    x = moments.size // 2
    p = q = np.ones(1, dtype=complex)
    eps, g = moments[x], 0.0
    for k in range(1, x):
        alpha = moments[x + k - np.arange(k)] @ p / eps
        gamma = moments[x - 1 - np.arange(k)] @ q / eps
        p, q = (np.append(p, 0) - alpha * np.insert(q, 0, 0),
                np.insert(q, 0, 0) - gamma * np.append(p, 0))
        eps *= 1 - alpha * gamma
        g = max(g, abs(alpha), abs(gamma),
                abs(alpha * gamma) / abs(1 - alpha * gamma))
    return g


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

    def test_triangular_bands_are_exactly_unity(self):
        # F3 = (q - 0.4)(q - 1.6)/q^2 and F5, a cubic over q^3, hold no
        # positive moment and c_0 = 1: read from the coefficients, T_x is
        # exactly upper triangular with a unit diagonal, and so is every
        # Schur complement (sampled, they read 1 only to rounding)
        for name in ("F3", "F5"):
            for x in (2, 33, 256, 1024):
                got = toeplitz.toeplitz_det(symbols.fixture(name), x)
                assert got == 1 + 0j, (name, x)


class TestStructure:
    def test_matrix_is_toeplitz(self):
        mat = toeplitz_matrix(symbols.fixture("F4"), 5)
        for d in range(-4, 5):
            diag = np.diagonal(mat, offset=d)
            assert np.max(np.abs(diag - diag[0])) < 1e-14

    @pytest.mark.parametrize("x", range(1, 9))
    def test_matrix_entries_are_moments(self, x):
        spec = symbols.fixture("F4")
        c = toeplitz.moment_table(spec, x)
        mat = toeplitz_matrix(spec, x)
        assert mat.shape == (x, x)
        for i in range(x):
            for j in range(x):
                assert mat[i, j] == c[i - j + x]

    def test_moment_table_symmetric_range(self):
        # the moment vector c_{-3} .. c_3; order 0 has no matrix
        table = toeplitz.moment_table(symbols.fixture("F4"), 3)
        assert table.shape == (7,)
        with pytest.raises(errors.InputError):
            toeplitz.moment_table(symbols.fixture("F4"), 0)

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

    @pytest.mark.parametrize("x", [-3, 2.5])
    def test_negative_or_fractional_order(self, x):
        with pytest.raises(errors.InputError):
            toeplitz.toeplitz_det(symbols.fixture("F1"), x)


# phi = 1/(1 - 0.99 q): its moments fall like 0.99^k, by only 3.4e-5 across
# the 2048 nodes of cauchy.M_CAP
NEAR_POLE = symbols.SymbolSpec(numer=(1.0,), denom=(1.0, -0.99))


def record_grids(monkeypatch):
    """A list that collects the node count of every sample ``toeplitz``
    takes by ``_converged_split``; the recording stays installed."""
    sampled, split = [], toeplitz._converged_split

    def counted(sample, m0):
        def recorded(m):
            sampled.append(m)
            return sample(m)
        return split(recorded, m0)

    monkeypatch.setattr(toeplitz, "_converged_split", counted)
    return sampled


class TestSampling:
    """``moment_table`` samples phi by the one rule,
    ``cauchy._converged_split``, from max(256, 8x) nodes."""

    @pytest.mark.parametrize("spec, x, grids", [
        (symbols.fixture("F4"), 3, [256]),
        (symbols.fixture("F4"), 40, [512]),
        (symbols.SymbolSpec(log_coeffs=SLOW), 4, [256, 512, 1024])])
    def test_grids_sampled(self, spec, x, grids, monkeypatch):
        sampled = record_grids(monkeypatch)
        toeplitz.moment_table(spec, x)
        assert sampled == grids

    def test_banded_symbol_samples_its_band(self, monkeypatch):
        # F4 (b = 2) at x = 1024: toeplitz_det reads c_-2 .. c_2 from its
        # coefficients and samples no grid, where moment_table(F4, 1024)
        # takes 8,192 nodes
        sampled = record_grids(monkeypatch)
        with pytest.raises(errors.OverflowGuard):
            toeplitz.toeplitz_det(symbols.fixture("F4"), 1024)
        assert sampled == []
        toeplitz.moment_table(symbols.fixture("F4"), 1024)
        assert sampled == [8192]

    def test_tail_past_the_cap_raises(self, tmp_path):
        with pytest.raises(errors.TruncationFailure,
                           match=f"M_CAP = {cauchy.M_CAP}"):
            toeplitz.toeplitz_det(NEAR_POLE, 4)
        path = tmp_path / "near_pole.json"
        path.write_text(json.dumps(symbols.to_json_dict(NEAR_POLE)))
        assert cli.main(["toeplitz", "--spec", str(path), "--x", "4"]) == 3


# phi = (q - 0.5)(q - 3)(q + 3.5)/q^2 = q - 10.75/q + 5.25/q^2 has c_0 = 0
# on every circle: the first leading minor vanishes
VANISHING_MINOR = symbols.SymbolSpec("rational", (5.25, -10.75, 0.0, 1.0),
                                     (0.0, 0.0, 1.0))
# det of the constant symbol -0.4 is (-0.4)^x: 1e-407 at x = 1024
SMALL_CONSTANT = symbols.SymbolSpec("rational", (-0.4,), (1.0,))


def record_methods(spec, x):
    """The methods ``toeplitz_det(spec, x)`` notes, in order: "levinson",
    "block", the elimination of a band below x (one entry for its run of
    block LUs), and "lu", the dense LU of the whole order."""
    with cauchy.Notes() as notes:
        try:
            toeplitz.toeplitz_det(spec, x)
        except errors.OverflowGuard:
            pass
    return [kind for kind, _ in itertools.groupby(e[0] for e in notes)]


class TestLevinson:
    @settings(max_examples=40, deadline=None)
    @given(spec=laurent_symbols(), x=st.integers(1, 300))
    def test_matches_dense_lu(self, spec, x):
        # the recursion itself at every order, also below LEVINSON_MIN,
        # where toeplitz_det takes the dense LU
        mat = toeplitz_matrix(spec, x)
        assume(np.linalg.cond(mat, 1) < 1e10)
        want = dense_log_det(spec, x)
        assume(abs(want.real) < 700)
        got = toeplitz._levinson_log_det(toeplitz.moment_table(spec, x))
        # a refusal is the monitor's: test_vanishing_minor_falls_back
        assume(got is not None)
        assert log_gap(got, want) <= 1e-10

    @pytest.mark.parametrize("x", [2, 3, 8, 64, toeplitz.LEVINSON_MIN, 256])
    def test_vanishing_minor_falls_back(self, x):
        # unguarded, the recursion was off by 5.3, 18.7 and 283 in log at
        # x = 3, 8, 64, and its monitor refuses at every order; toeplitz_det
        # never runs it here: the symbol is banded and does not wind on its
        # sampling circle, so up to BLOCK it takes the dense LU and past it
        # the block elimination, which pivots inside each block
        assert toeplitz._levinson_log_det(
            toeplitz.moment_table(VANISHING_MINOR, x)) is None
        assert record_methods(VANISHING_MINOR, x) == \
            ["lu" if x <= toeplitz.BLOCK else "block"]
        got = np.log(toeplitz.toeplitz_det(VANISHING_MINOR, x))
        assert log_gap(got, dense_log_det(VANISHING_MINOR, x)) <= 1e-12

    @pytest.mark.parametrize("name", symbols.FIXTURE_NAMES)
    def test_fixtures_take_the_recursion(self, name, monkeypatch):
        # neither recursion's monitor refuses a fixture, and from
        # LEVINSON_MIN on toeplitz_det takes no dense LU of the whole order:
        # the block elimination for the banded fixtures, Levinson for F2
        spec = symbols.fixture(name)
        band = toeplitz._laurent_band(spec)
        assert (band is None) == (name == "F2")
        orders = (1, 2, 5, 64, toeplitz.LEVINSON_MIN, 300)
        want = [dense_log_det(spec, x) for x in orders]
        for x, ref in zip(orders, want):
            moments = toeplitz.moment_table(spec, x)
            got = [toeplitz._levinson_log_det(moments)]
            if band is not None:
                got.append(toeplitz._block_log_det(moments, band))
            for value in got:
                assert log_gap(value, ref) <= 1e-10
        slogdet = np.linalg.slogdet

        def blocks_only(a):
            assert len(a) <= toeplitz.BLOCK, "dense LU of the order taken"
            return slogdet(a)

        monkeypatch.setattr(np.linalg, "slogdet", blocks_only)
        for x, ref in zip(orders, want):
            if x >= toeplitz.LEVINSON_MIN:
                got = np.log(toeplitz.toeplitz_det(spec, x))
                assert log_gap(got, ref) <= 1e-10

    @pytest.mark.parametrize("x, method", [
        (toeplitz.LEVINSON_MIN - 1, "lu"), (toeplitz.LEVINSON_MIN, "levinson")])
    def test_method_switches_at_the_crossover(self, x, method):
        # F2, exp(0.3 q + 0.2/q), is not banded and keeps the crossover
        assert record_methods(symbols.fixture("F2"), x) == \
            [method]

    @settings(max_examples=20, deadline=None)
    @given(spec=laurent_symbols(),
           x=st.sampled_from([toeplitz.LEVINSON_MIN - 1,
                              toeplitz.LEVINSON_MIN]))
    def test_methods_agree_at_the_crossover(self, spec, x):
        # the recursion's error model of toeplitz.GROWTH_MAX, plus the
        # rounding of slogdet's one-at-a-time sum of x pivot logarithms:
        # against 40-digit references the LU side is the larger, up to
        # 44 log|det| eps, the recursion up to 7 x eps max(g, 1)
        moments = toeplitz.moment_table(spec, x)
        got = toeplitz._levinson_log_det(moments)
        assume(got is not None)
        want = dense_log_det(spec, x)
        bound = (40 * x * EPS * max(growth(moments), 1.0) +
                 x * EPS * max(abs(want.real), 1.0) / 2)
        assert log_gap(got, want) <= bound

    def test_underflow_is_loud(self):
        assert abs(toeplitz.toeplitz_det(SMALL_CONSTANT, 700) /
                   0.4 ** 700 - 1) < 1e-12
        for x in (800, 1024):   # subnormal 4e-319, and 1e-407
            with pytest.raises(errors.OverflowGuard):
                toeplitz.toeplitz_det(SMALL_CONSTANT, x)

    def test_underflow_exits_3(self, tmp_path, capsys):
        path = tmp_path / "small.json"
        path.write_text(json.dumps(symbols.to_json_dict(SMALL_CONSTANT)))
        assert cli.main(["toeplitz", "--spec", str(path), "--x", "800"]) == 3
        assert cli.main(["toeplitz", "--spec", str(path), "--x", "700"]) == 0


# phi = (0.787 + (-0.262 + 0.207i) q)/q^2 winds -2 on every circle: its one
# zero can never balance the double pole.  Run on the band anyway, the block
# elimination read log det T_55 = -1168.2 against the dense LU's -157.8
WINDING = symbols.SymbolSpec("rational", (0.787, -0.262 + 0.207j),
                             (0.0, 0.0, 1.0))


def every_block(moments, band):
    """log det T_x by the block recursion of ``toeplitz._block_log_det`` on
    the gathered matrix, moments past ``band`` zeroed, forming every Schur
    complement and none of its shortcuts."""
    x = moments.size // 2
    size = max(toeplitz.BLOCK, band)
    k = np.arange(-x, x + 1)
    mat = gather(np.where(np.abs(k) <= band, moments, 0))
    log_det, prev = 0j, None
    for start in range(0, x, size):
        rows = slice(start, min(start + size, x))
        schur = mat[rows, rows]
        if prev is not None:
            schur = schur - mat[rows, prev] @ np.linalg.solve(
                prev_schur, mat[prev, rows])
        sign, log_abs = np.linalg.slogdet(schur)
        log_det += complex(log_abs, np.angle(sign))
        prev, prev_schur = rows, schur
    return log_det


class TestBlock:
    @settings(max_examples=40, deadline=None)
    @given(spec=st.one_of(laurent_symbols(), two_sided_symbols()),
           x=st.integers(toeplitz.BLOCK + 1, 300))
    def test_matches_dense_lu(self, spec, x):
        # within the error model of test_methods_agree_at_the_crossover: of
        # 600 draws the guard excluded 9, the block path refused none of the
        # rest, and they read at worst 2.3e-12, 0.18 of the bound
        band = toeplitz._laurent_band(spec)
        assume(band is not None)
        moments = toeplitz.moment_table(spec, x)
        got = toeplitz._block_log_det(moments, band)
        assert got is not None
        want = dense_log_det(spec, x)
        bound = (40 * x * EPS * max(growth(moments), 1.0) +
                 x * EPS * max(abs(want.real), 1.0) / 2)
        assert log_gap(got, want) <= bound

    @settings(max_examples=20, deadline=None)
    @given(spec=laurent_symbols(), x=st.integers(toeplitz.BLOCK + 1, 600))
    def test_fixed_point_matches_every_block(self, spec, x):
        # the shortcut counts the repeated block's log det once per block
        # left, where the recursion sums the same term block by block
        band = toeplitz._laurent_band(spec)
        assume(band is not None)
        moments = toeplitz.moment_table(spec, x)
        want = every_block(moments, band)
        got = toeplitz._block_log_det(moments, band)
        assert log_gap(got, want) <= x * EPS * max(abs(want.real), 1.0)

    @pytest.mark.parametrize("name, most, exact", [("F4", 4, 5), ("F1", 1, 1)],
                             ids=["F4-4", "F1-1"])
    def test_blocks_stop_at_the_fixed_point(self, name, most, exact):
        # 32 blocks of T_1024; F1's constant symbol repeats its first; on
        # the exact moments toeplitz_det reads, zero past the band, F4's
        # elimination reaches its bitwise fixed point one block later
        spec = symbols.fixture(name)
        with cauchy.Notes() as notes:
            toeplitz._block_log_det(toeplitz.moment_table(spec, 1024),
                                    toeplitz._laurent_band(spec))
        assert 1 <= len(notes) <= most
        with cauchy.Notes() as notes:
            toeplitz._log_det(spec, 1024)
        assert 1 <= len(notes) <= exact

    @settings(max_examples=30, deadline=None)
    @given(spec=laurent_symbols(), x=st.integers(toeplitz.BLOCK + 1, 1024))
    def test_band_read_matches_the_order_sample(self, spec, x):
        # the band's exact moments against those of moment_table(spec, x),
        # sampled on up to 8,192 nodes: they differ by rounding, which T_x's
        # conditioning amplifies, here measured by phi's dynamic range on
        # its sampling circle; on 1,500 draws the gap read at most 0.23
        # x eps max(1, |log det|) times that range, at x = 33 (0.25 from the
        # band's 256-node sample)
        band = toeplitz._laurent_band(spec)
        assume(band is not None)
        want = toeplitz._block_log_det(toeplitz.moment_table(spec, x), band)
        assume(want is not None)
        size = np.abs(symbols.eval_phi(spec, circle_nodes(
            toeplitz._sample_radius(spec), 256)))
        got = toeplitz._log_det(spec, x)
        assert log_gap(got, want) <= (4 * x * EPS * max(abs(want), 1.0) *
                                      np.max(size) / np.min(size))

    @pytest.mark.parametrize("x", [toeplitz.BLOCK + 1, 40, 60])
    def test_band_past_the_order(self, x):
        # phi = P(q)/q^40, 40 zeros inside |q| = 1 and 3 outside: up to
        # x = 40 every moment of T_x lies in the band, and the value is the
        # dense LU of the exact moments rho^j c_j bit for bit; past it, the
        # block elimination's, within rounding of the sampled moments
        rng = np.random.default_rng(1)
        inner = 0.3 * rng.uniform(0.5, 1, 40) * np.exp(
            2j * np.pi * rng.random(40))
        outer = 2.5 * np.exp(2j * np.pi * rng.random(3))
        numer = np.polynomial.polynomial.polyfromroots([*inner, *outer])
        spec = symbols.SymbolSpec("rational", tuple(numer),
                                  (0.0,) * 40 + (1.0,))
        assert toeplitz._laurent_band(spec) == 40
        want = toeplitz._block_log_det(toeplitz.moment_table(spec, x), x)
        got = toeplitz._log_det(spec, x)
        if x <= 40:
            j = np.arange(-40, 4)
            exact = np.zeros(2 * x + 1, dtype=complex)
            exact[j[40 - x:] + x] = np.multiply(
                spec.numer, toeplitz._sample_radius(spec) ** j)[40 - x:]
            assert got == toeplitz._block_log_det(exact, x)
        else:
            assert log_gap(got, want) <= 4 * x * EPS * max(abs(want), 1.0)

    @pytest.mark.parametrize("x, method", [
        (toeplitz.BLOCK, "lu"), (toeplitz.BLOCK + 1, "block")])
    def test_banded_symbols_switch_at_block(self, x, method):
        assert record_methods(symbols.fixture("F4"), x) == \
            [method]

    @pytest.mark.parametrize("x", [55, toeplitz.LEVINSON_MIN])
    def test_winding_symbol_keeps_the_old_rule(self, x):
        assert toeplitz._laurent_band(WINDING) is None
        assert "block" not in record_methods(WINDING, x)
        got = np.log(toeplitz.toeplitz_det(WINDING, x))
        assert log_gap(got, dense_log_det(WINDING, x)) <= 1e-9


REFERENCES = json.loads((Path(__file__).parent / "data" /
                         "toeplitz_references.json").read_text())


class TestReferences:
    """log det T_x of the banded fixtures against the 50-digit values of
    ``tools/toeplitz_references.py``.  Against them, in units of
    x eps max(1, |log det|), the block path read at worst 1.00 (F5,
    x = 32), the dense LU 1.00 (F5, x = 1024) and Levinson 2.02 (F5,
    x = 512); on F4 at x = 1024, 8.1e-13, 6.4e-12 and 2.6e-12.
    ``toeplitz_det``'s own path, which reads the moments of these Laurent
    polynomials from their coefficients, reads at worst 0.15 (F1, x = 8);
    from the band's sample it read 1.02 (F5, x = 1024)."""

    @pytest.mark.parametrize("name, x", [
        (name, int(x)) for name, entry in REFERENCES.items()
        for x in entry["log_det"]])
    def test_three_methods(self, name, x):
        spec = symbols.fixture(name)
        assert REFERENCES[name]["rho"] == toeplitz._sample_radius(spec)
        want = complex(*map(float, REFERENCES[name]["log_det"][str(x)]))
        moments = toeplitz.moment_table(spec, x)
        bound = 4 * x * EPS * max(abs(want.real), 1.0)
        for got in (toeplitz._block_log_det(moments,
                                            toeplitz._laurent_band(spec)),
                    toeplitz._levinson_log_det(moments),
                    toeplitz._block_log_det(moments, x),
                    toeplitz._log_det(spec, x)):
            assert log_gap(got, want) <= bound

    def test_oracle_within_half_a_unit(self):
        worst = 0.0
        for name, entry in REFERENCES.items():
            for x, value in entry["log_det"].items():
                want = complex(*map(float, value))
                got = toeplitz._log_det(symbols.fixture(name), int(x))
                worst = max(worst, log_gap(got, want) / (
                    int(x) * EPS * max(abs(want.real), 1.0)))
        assert worst <= 0.5

"""Process-wide memos: grid samples of phi and nu, FFT layouts and circle
grids, and the set-up each evaluator pays once.  A memo may only save
time: every value it returns is, bit for bit, what the uncached call
returns."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial import polynomial as P

from detlab import cli, contours, errors, symbols
from detlab._series import (LaurentSplit, circle_nodes, grid_of, horner,
                            laurent_coeffs)
from test_asymptotics import laurent_symbols

MEMOISED = (symbols.eval_phi, symbols.eval_nu_grid)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def rational(zeros, poles, label=""):
    return symbols.SymbolSpec(numer=tuple(P.polyfromroots(zeros)),
                              denom=tuple(P.polyfromroots(poles)),
                              label=label)


class TestGridIdentity:
    def test_grid_known_by_identity_only(self):
        grid = circle_nodes(1.3, 40)
        assert grid_of(grid) == (1.3, 40)
        assert grid_of(np.array(grid)) is None
        assert grid_of(grid[::2]) is None
        assert grid_of(grid[:]) is None
        assert grid_of(1.3) is None

    def test_off_grid_evaluation_builds_no_grid(self):
        grid = circle_nodes(1.0, 64)
        split = LaurentSplit(np.exp(grid), 1.0)
        before = circle_nodes.cache_info()
        for q in (np.array([0.3, 0.5j, -0.7]), np.array([-1.0]),
                  np.array(grid)):
            split.plus(q)
            split.minus(q, 1)
        assert circle_nodes.cache_info() == before

    def test_equal_copy_of_a_grid_takes_the_direct_sum(self):
        grid = circle_nodes(1.0, 64)
        split = LaurentSplit(np.exp(0.3 * grid + 0.2 / grid), 1.0)
        on_grid, copy = split.plus(grid), split.plus(np.array(grid))
        assert np.max(np.abs(on_grid - copy)) < 1e-14

    def test_second_verify_pass_misses_no_grid(self):
        def one_pass():
            for _, _, check in cli._verify_checks(3):
                check()

        one_pass()
        before = circle_nodes.cache_info()
        held = dict(symbols._samples)
        one_pass()
        after = circle_nodes.cache_info()
        assert after.misses == before.misses
        assert after.hits > before.hits
        # and evaluates no sample afresh
        assert symbols._samples.keys() == held.keys()
        assert all(symbols._samples[key] is out for key, out in held.items())


class TestGridSamples:
    @pytest.mark.parametrize("name", symbols.FIXTURE_NAMES)
    @pytest.mark.parametrize("evaluate", MEMOISED)
    def test_cached_sample_is_the_uncached_value(self, name, evaluate):
        spec = symbols.fixture(name)
        grid = circle_nodes(1.0, 256)
        cached = evaluate(spec, grid)
        assert evaluate(spec, grid) is cached
        assert same_bits(cached, evaluate(spec, np.array(grid)))

    @pytest.mark.parametrize("evaluate", MEMOISED)
    def test_cached_sample_is_read_only(self, evaluate):
        out = evaluate(symbols.fixture("F4"), circle_nodes(1.0, 128))
        assert not out.flags.writeable
        with pytest.raises(ValueError):
            out[0] = 0.0

    @pytest.mark.parametrize("evaluate", MEMOISED)
    def test_copies_and_views_are_evaluated_afresh(self, evaluate):
        spec = symbols.fixture("F3")
        grid = circle_nodes(1.0, 128)
        for q in (np.array(grid), grid[::2], grid[1:]):
            first, second = evaluate(spec, q), evaluate(spec, q)
            assert first is not second and first.flags.writeable
            assert same_bits(first, second)

    def test_large_grids_are_not_held(self):
        grid = circle_nodes(1.0, 2 * symbols.SAMPLE_M_MAX)
        spec = symbols.fixture("F2")
        assert symbols.eval_phi(spec, grid) is not \
            symbols.eval_phi(spec, grid)

    def test_memo_is_bounded(self):
        # by bytes: twice as many of the largest samples as it holds leave
        # it full to within one of them, the latest held
        spec = symbols.fixture("F1")
        largest = 16 * symbols.SAMPLE_M_MAX
        for k in range(2 * symbols.SAMPLE_MEMO // largest):
            grid = circle_nodes(1.0, symbols.SAMPLE_M_MAX - k)
            out = symbols.eval_phi(spec, grid)
        held = sum(a.nbytes for a in symbols._samples.values())
        assert held == symbols._sample_bytes
        assert symbols.SAMPLE_MEMO - largest < held <= symbols.SAMPLE_MEMO
        assert symbols.eval_phi(spec, grid) is out

    def test_cyclic_pass_of_small_samples_misses_none(self):
        # 100 small samples in one cyclic order, past the 64 largest ones
        # the memo holds: the second pass returns every first result
        spec = symbols.fixture("F3")
        grids = [circle_nodes(1.0, m) for m in range(64, 164)]
        first = [symbols.eval_phi(spec, grid) for grid in grids]
        assert all(symbols.eval_phi(spec, grid) is out
                   for grid, out in zip(grids, first))

    def test_pole_hit_raises_on_every_call(self):
        grid = circle_nodes(1.3, 16)
        spec = rational([0.5], [grid[3]])
        for _ in range(3):
            with pytest.raises(errors.PoleHit):
                symbols.eval_phi(spec, grid)

    def test_zero_on_contour_raises_on_every_call(self):
        grid = circle_nodes(1.3, 16)
        spec = rational([grid[5]], [0.2])
        for _ in range(3):
            with pytest.raises(errors.ZeroOnContour):
                symbols.eval_nu_grid(spec, grid)

    @pytest.mark.parametrize("name", symbols.FIXTURE_NAMES)
    def test_grid_winding_reads_the_cached_sample(self, name):
        # the winding of the held sample on a grid, its unwrapped phase's
        # closing increment, is the count of the roots of P and Q
        spec = symbols.fixture(name)
        grid = circle_nodes(1.0, 256)
        held = symbols.eval_phi(spec, grid)
        assert symbols.eval_phi(spec, grid) is held
        ang = np.unwrap(np.angle(np.concatenate([held, held[:1]])))
        assert round((ang[-1] - ang[0]) / (2.0 * np.pi)) == \
            symbols.winding_on(spec, 1.0)

    @settings(max_examples=40, deadline=None)
    @given(zeros=st.lists(st.complex_numbers(max_magnitude=3.0), min_size=0,
                          max_size=4),
           poles=st.lists(st.complex_numbers(max_magnitude=3.0), min_size=0,
                          max_size=3),
           radius=st.sampled_from([0.7, 1.0, 1.6]),
           m=st.sampled_from([16, 100, 256, 1024, 2048]))
    def test_random_rational_symbols(self, zeros, poles, radius, m):
        try:
            spec = rational(zeros, poles)
        except errors.InputError:
            return
        grid = circle_nodes(radius, m)
        for evaluate in MEMOISED:
            try:
                cached = evaluate(spec, grid)
            except (errors.PoleHit, errors.ZeroOnContour) as exc:
                with pytest.raises(type(exc)):
                    evaluate(spec, np.array(grid))
                continue
            with np.errstate(all="ignore"):
                fresh = evaluate(spec, np.array(grid))
            assert same_bits(cached, fresh)
            assert same_bits(evaluate(spec, grid), fresh)


class TestSetUpOnce:
    @settings(max_examples=40, deadline=None)
    @given(coeffs=st.lists(st.complex_numbers(max_magnitude=10.0,
                                              allow_subnormal=False),
                           min_size=1, max_size=6),
           points=st.lists(st.complex_numbers(max_magnitude=3.0,
                                              allow_subnormal=False),
                           min_size=0, max_size=5))
    def test_horner_is_polyval(self, coeffs, points):
        # array, list and tuple coefficients, at arrays, 0-d arrays and
        # Python scalars: the bits of polyval
        for c in (np.array(coeffs, dtype=complex), list(coeffs),
                  tuple(coeffs)):
            for q in (np.array(points, dtype=complex),
                      np.asarray(complex(points[0]) if points else 0.5j),
                      complex(points[-1]) if points else -0.25):
                with np.errstate(all="ignore"):
                    got = horner(c, q)
                    assert np.ndim(got) == np.ndim(q)
                    assert same_bits(got, P.polyval(q, tuple(coeffs)))

    def test_coefficient_lists_formed_with_the_spec(self):
        spec = symbols.SymbolSpec(numer=(1.0, -2.0, 0.5j), denom=(2.0, 3.0),
                                  log_coeffs={2: 0.5, -3: 0.25j})
        assert same_bits(np.array(spec._dnumer),
                         P.polyder((1.0, -2.0, 0.5j)))
        assert spec._ddenom == [3.0] and spec._pole_scale == 3.0
        assert spec._exponent_terms == (([0, 0, 0.5], [0, 0, 0, 0.25j]),
                                        ([0, 1.0], [0, 0, 0, 0, -0.75j]))

    @pytest.mark.parametrize("m", [1, 2, 15, 16, 256, 1000])
    def test_laurent_coeffs_match_the_direct_layout(self, m):
        rng = np.random.default_rng(m)
        values = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        j = np.fft.fftfreq(m, 1.0 / m).astype(int)
        c = np.fft.fft(values) / m * np.exp(-1j * j * -np.pi)
        order = np.argsort(j)
        got_j, got_c = laurent_coeffs(values)
        assert same_bits(got_j, j[order]) and same_bits(got_c, c[order])
        assert laurent_coeffs(values[::-1])[0] is got_j
        assert not got_j.flags.writeable

    @pytest.mark.parametrize("side", ["plus", "minus", "reconstruct"])
    def test_split_side_prepared_once(self, side):
        grid = circle_nodes(1.0, 128)
        split = LaurentSplit(np.exp(0.3 * grid + 0.2 / grid), 1.0)
        off = np.array([0.2 + 0.1j, 1.5j])
        first = [getattr(split, side)(q, d) for q in (grid, off)
                 for d in (0, 1)]
        held = dict(split._terms_memo)
        again = [getattr(split, side)(q, d) for q in (grid, off)
                 for d in (0, 1)]
        assert split._terms_memo.keys() == held.keys() and len(held) == 4
        assert all(same_bits(a, b) for a, b in zip(first, again))


def fresh_laurent(spec):
    """(p, P/a) for phi = P(q)/(a q^p), recognised afresh from the spec's
    fields; None for every other symbol."""
    p, *rest = np.flatnonzero(spec.denom).tolist()
    if spec.log_coeffs or rest:
        return None
    return p, np.array(spec.numer) / spec.denom[p]


def empty_annulus_spec():
    """Zeros 0.3, 2 and 4, poles 0, 0 and 1.5: winding -1 on |q| = 1, but
    every circle past the zero at 2 also encloses the pole at 1.5."""
    return rational([0.3, 2.0, 4.0], [0.0, 0.0, 1.5])


class TestHeldConstants:
    """Per-symbol constants read once: the Laurent form and the roots of P
    and Q, formed with the spec, and the base contour's radius, chosen
    once per memoised analysis, each the value its uncached derivation
    gives."""

    def check(self, spec):
        form = symbols.laurent_polynomial(spec)
        assert symbols.laurent_polynomial(spec) is form
        fresh = fresh_laurent(spec)
        if fresh is None:
            assert form is None
        else:
            p, coeffs = form
            assert isinstance(coeffs, tuple) and p == fresh[0]
            assert same_bits(np.array(coeffs), fresh[1])
            with pytest.raises(TypeError):
                coeffs[0] = 0.0
        try:
            radius = contours.select_contour(symbols.analyze(spec))
        except errors.DetlabError as exc:
            for _ in range(2):
                with pytest.raises(type(exc)):
                    contours.base_contour(spec)
            return
        for _ in range(2):
            assert contours.base_contour(spec).hex() == radius.hex()

    @pytest.mark.parametrize("name", symbols.FIXTURE_NAMES)
    def test_fixtures(self, name):
        self.check(symbols.fixture(name))

    @settings(max_examples=40, deadline=None)
    @given(spec=laurent_symbols())
    def test_laurent_symbols(self, spec):
        assert symbols.laurent_polynomial(spec) is not None
        self.check(spec)

    def test_empty_annulus_raises_on_every_call(self):
        spec = empty_annulus_spec()
        for _ in range(2):
            with pytest.raises(errors.EmptyAnnulus):
                contours.base_contour(spec)
        self.check(spec)

    def test_roots_found_once_per_spec(self, monkeypatch):
        # np.roots runs on P and on Q once, as the spec is formed; the
        # winding's count and the analysis read the held roots
        calls = []
        real = symbols._poly_roots
        monkeypatch.setattr(symbols, "_poly_roots",
                            lambda coeffs: calls.append(1) or real(coeffs))
        spec = rational([0.3, 2.5], [0.0, 0.6], "held-roots")
        assert len(calls) == 2
        assert symbols.winding_number(spec) == -1
        symbols.analyze(spec)
        assert len(calls) == 2
        for held, coeffs in zip(spec._roots, (spec.numer, spec.denom)):
            assert same_bits(held, real(coeffs)) and not held.flags.writeable

    def test_radius_read_once_per_analysis(self, monkeypatch):
        spec = rational([0.3, 2.5], [0.0, 0.0], "held-radius")
        calls = []
        select = contours.select_contour
        monkeypatch.setattr(contours, "select_contour",
                            lambda analysis: calls.append(1) or select(
                                analysis))
        contours._own_radius.cache_clear()
        first = contours.base_contour(spec)
        assert contours.base_contour(spec) == first and len(calls) == 1

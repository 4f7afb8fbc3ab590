"""Symbol specifications, winding numbers, and zero bookkeeping."""

import dataclasses
import inspect
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial import polynomial as P

from detlab import asymptotics, errors, fredholm, symbols, toeplitz
from detlab._series import circle_nodes, horner
from detlab.cauchy import CauchySuite
from detlab.contours import base_contour

EXPECTED_WINDING = {"F0": 0, "F1": 0, "F2": 0, "F3": -1, "F4": -1,
                    "F5": -2, "F6": 0, "F7": 1}
EXPONENT = {1: 0.3, -1: 0.2, 2: 0.05j}


def times_exponent(name, log_coeffs=EXPONENT):
    """Fixture ``name``'s P/Q times exp(sum_j t_j q^j)."""
    ratio = symbols.fixture(name)
    return symbols.SymbolSpec(numer=ratio.numer, denom=ratio.denom,
                              log_coeffs=log_coeffs)


class TestFixtures:
    @pytest.mark.parametrize("name", sorted(EXPECTED_WINDING))
    def test_winding(self, name):
        assert symbols.winding_number(symbols.fixture(name)) == \
            EXPECTED_WINDING[name]

    @pytest.mark.parametrize("name", sorted(EXPECTED_WINDING))
    def test_winding_on_the_unit_circle(self, name):
        spec = symbols.fixture(name)
        assert symbols.winding_on(spec, 1.0) == symbols.winding_number(spec)

    def test_winding_on_other_circles(self):
        # phi = (q - 0.3)(q - 1.4)(q - 2.2)/q^2 (F4's zeros): -2 inside 0.3,
        # then one more for each zero a circle passes
        spec = symbols.SymbolSpec(
            "rational", tuple(np.poly([2.2, 1.4, 0.3])[::-1]), (0, 0, 1.0))
        assert [symbols.winding_on(spec, r) for r in (0.1, 1.0, 2.0, 3.0)] \
            == [-2, -1, 0, 1]

    def test_f3_selected_zeros(self):
        ana = symbols.analyze(symbols.fixture("F3"))
        assert len(ana.z_list) == 1
        assert abs(ana.z_list[0] - 1.6) < 1e-10

    def test_f5_selected_zeros(self):
        ana = symbols.analyze(symbols.fixture("F5"))
        got = sorted(abs(z) for z in ana.z_list)
        assert np.allclose(got, [1.5, 1.9], atol=1e-10)

    def test_fixture_ignores_environment(self, monkeypatch, tmp_path):
        # the shipped fixtures are the only ones; --spec PATH loads any other
        shipped = symbols.fixture("F4")
        monkeypatch.setenv("DETLAB_FIXTURES", str(tmp_path))
        assert symbols.fixture("F4") == shipped

    def test_fixture_read_once_and_frozen(self):
        spec = symbols.fixture("F4")
        assert symbols.fixture("F4") is spec
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.numer = (1.0,)

    def test_f1_constant_theta(self):
        sp = symbols.fixture("F1")
        q = np.exp(1j * np.linspace(0, 6, 11))
        assert np.max(np.abs(symbols.eval_theta(sp, q) - 0.5)) < 1e-14


class TestEvaluation:
    def test_phi_equals_one_plus_theta(self):
        sp = symbols.fixture("F4")
        q = np.array([0.5 + 0.1j, 2.0, -1.3j])
        assert np.max(np.abs(symbols.eval_phi(sp, q) -
                             (1.0 + symbols.eval_theta(sp, q)))) < 1e-13

    def test_dphi_finite_difference(self):
        q, h = 0.7 + 0.4j, 1e-6
        for sp in (symbols.fixture("F5"), times_exponent("F5")):
            fd = (symbols.eval_phi(sp, q + h) -
                  symbols.eval_phi(sp, q - h)) / (2 * h)
            assert abs(symbols.eval_dphi(sp, q) - fd) < 1e-8

    def test_dnu_is_logarithmic_derivative(self):
        sp = symbols.fixture("F2")
        q = np.array([1.1 + 0.2j])
        expect = symbols.eval_dphi(sp, q) / (2j * np.pi * symbols.eval_phi(sp, q))
        assert abs(symbols.eval_dnu(sp, q)[0] - expect[0]) < 1e-12

    @pytest.mark.parametrize("name", ["F0", "F1", "F4", "F6"])
    def test_log_phi_in_one_pass(self, name):
        # a logarithm of phi and phi'/phi in one pass, for P/Q, for P/Q
        # times e^E, and (F0) for e^E alone and phi = 1
        q = np.array([0.7 + 0.4j, 1.3 - 0.2j, -1.0 + 0.0j])
        for sp in (symbols.fixture(name), times_exponent(name)):
            log, dlog = symbols.eval_log_phi(sp, q)
            phi = symbols.eval_phi(sp, q)
            dphi = symbols.eval_dphi(sp, q)
            assert np.all(np.abs(np.exp(log) - phi) <= 1e-14 * np.abs(phi))
            assert np.all(np.abs(dlog * phi - dphi) <=
                          1e-14 * (np.abs(dphi) + np.abs(phi)))

    def test_nu_grid_is_continuous(self):
        sp = symbols.fixture("F5")
        from detlab._series import circle_nodes
        nu = symbols.eval_nu_grid(sp, circle_nodes(1.0, 256))
        assert np.max(np.abs(np.diff(nu))) < 0.2


def _rational(zeros, pole_order):
    numer = np.polynomial.polynomial.polyfromroots(zeros)
    return symbols.SymbolSpec("rational", tuple(numer),
                              (0.0,) * pole_order + (1.0,))


class TestZeroSelection:
    def test_pair_off_the_edge_is_kept(self):
        spec = _rational([0.3, 1.5, 3 * np.exp(0.5j), 3 * np.exp(-0.5j)], 2)
        ana = symbols.analyze(spec)
        assert ana.winding == -1
        assert len(ana.z_list) == 1 and abs(ana.z_list[0] - 1.5) < 1e-12

    @pytest.mark.parametrize("zeros", [
        [0.3, 1.5 * np.exp(0.5j), 1.5 * np.exp(-0.5j), 3],  # pair at the edge
        [0.3, 1.5, 3, 3],                                   # double zero
    ], ids=["straddling-pair", "double-zero"])
    def test_ambiguous_or_multiple_zeros_raise(self, zeros):
        with pytest.raises(errors.DegenerateZeros):
            symbols.analyze(_rational(zeros, 2))

    def test_laurent_phase_shift_needs_no_phi(self):
        # |phi(-1)| = e^-40 is no zero: nu is the exponent over 2 pi i
        spec = symbols.SymbolSpec("laurent_phase",
                                  log_coeffs={1: 20.0, -1: 20.0})
        nodes = circle_nodes(1.0, 64)
        nu = symbols.eval_nu_grid(spec, nodes)
        assert np.allclose(nu, (20 * nodes + 20 / nodes) / (2j * np.pi),
                           rtol=0, atol=1e-13)


def wide_laurent(b):
    """1 + sum_{0 < |k| <= b} c_k q^k, complex c_k from default_rng(5) scaled
    to sum |c_k| = 0.58, so phi does not wind on |q| = 1: a numerator of
    degree 2b over q^b."""
    rng = np.random.default_rng(5)
    c = rng.standard_normal(2 * b) + 1j * rng.standard_normal(2 * b)
    c *= 0.58 / np.sum(np.abs(c))
    return symbols.SymbolSpec("rational",
                              tuple(np.concatenate([c[:b], [1.0], c[b:]])),
                              (0.0,) * b + (1.0,))


class TestRootPolish:
    @pytest.mark.parametrize("b", [16, 32, 64])
    def test_high_degree_numerators(self, b):
        # an absolute residual |P(z)| < 1e-12 max|c_k| raised RootFindFailure
        # on each (residuals up to 1e21 at zeros up to |z| = 19); every root
        # holds the backward error, measured <= 8.5e-14 at b = 64, and
        # toeplitz_det, which analyses the symbol, meets the dense LU of its
        # own moments (measured <= 1.2e-15)
        spec = wide_laurent(b)
        zeros = symbols.analyze(spec).zeros
        assert len(zeros) == 2 * b
        size = np.abs(spec.numer)
        for z in zeros:
            assert abs(horner(spec.numer, z)) <= 1e-12 * horner(size, abs(z))
        x = 64
        moments = toeplitz.moment_table(spec, x)
        sign, log_abs = np.linalg.slogdet(moments[np.subtract.outer(
            np.arange(x), np.arange(x)) + x])
        got = toeplitz.toeplitz_det(spec, x)
        assert abs(got / (sign * np.exp(log_abs)) - 1) <= \
            4 * x * np.finfo(float).eps * max(1.0, abs(log_abs))

    @pytest.mark.parametrize("coeffs", [
        (2.0 + 0j,), (1.0 + 0j, -2.0 + 0j, 0.5j),
        np.array([0.3, 1j, -2.0, 4.0 + 1j, -0.0])])
    def test_derivative_is_polyder(self, coeffs):
        # the coefficients the polish's Newton steps and phi' read
        got = symbols.derivative(coeffs)
        assert np.array_equal(got, P.polyder(coeffs))


class TestFourier:
    def test_f2_exact_coefficients(self):
        # log phi = 0.3 q + 0.2 / q, i.e. nu_{+1} = 0.3, nu_{-1} = 0.2 in the
        # normalization nu(q) = sum_j q^j nu_j / (2 pi i)
        split = CauchySuite(symbols.fixture("F2"), unit=True).nu_split
        assert abs(2j * np.pi * split.coefficient(1) - 0.3) < 1e-13
        assert abs(2j * np.pi * split.coefficient(-1) - 0.2) < 1e-13

    def test_f1_moments(self):
        # c_{-4} .. c_4: c_0 at index 4, c_3 at index 7
        moments = toeplitz.moment_table(symbols.fixture("F1"), 4)
        assert abs(moments[4] - 1.5) < 1e-13
        assert abs(moments[7]) < 1e-13


class TestValidation:
    def test_round_trip(self):
        # the one form: numer, denom and log_coeffs, and no kind
        for sp in (symbols.fixture("F4"), times_exponent("F4")):
            data = json.loads(json.dumps(symbols.to_json_dict(sp)))
            assert sorted(data) == ["denom", "log_coeffs", "numer"]
            assert symbols.from_json_dict(data, label=sp.label) == sp

    def test_laurent_phase_round_trip(self):
        sp = symbols.fixture("F2")
        again = symbols.from_json_dict(symbols.to_json_dict(sp), label=sp.label)
        assert again == sp
        assert sp.log_coeffs == ((-1, 0.2 + 0j), (1, 0.3 + 0j))

    def test_equal_specs_hash_equal(self):
        a = symbols.SymbolSpec("laurent_phase", log_coeffs={1: 0.3, -1: 0.2})
        b = symbols.SymbolSpec("laurent_phase", log_coeffs={"-1": 0.2, "1": 0.3})
        assert a == b and hash(a) == hash(b)
        assert hash(symbols.fixture("F4")) == hash(symbols.fixture("F4"))

    def test_analyze_is_memoised(self):
        # a plain function (the benchmark tracer wraps only those) in front
        # of the cache
        assert inspect.isfunction(symbols.analyze)
        spec = symbols.fixture("F4")
        assert symbols.analyze(spec) is symbols.analyze(symbols.fixture("F4"))

    def test_winding_number_is_memoised(self):
        assert inspect.isfunction(symbols.winding_number)
        symbols._winding_cached.cache_clear()
        for name, want in EXPECTED_WINDING.items():
            assert symbols.winding_number(symbols.fixture(name)) == want
            assert symbols.winding_number(symbols.fixture(name)) == want
        info = symbols._winding_cached.cache_info()
        assert (info.misses, info.hits) == (len(EXPECTED_WINDING),
                                            len(EXPECTED_WINDING))

    def test_unknown_kind_rejected(self):
        with pytest.raises(errors.InputError):
            symbols.from_json_dict({"kind": "mystery"})

    def test_legacy_forms_load(self):
        rational = {"kind": "rational", "numer": [[0.5, 0.0], [1.0, 0.0]],
                    "denom": [[1.0, 0.0]]}
        laurent = {"kind": "laurent_phase", "log_coeffs": {"1": [0.3, 0.1]}}
        assert symbols.from_json_dict(rational) == \
            symbols.SymbolSpec(numer=(0.5, 1.0))
        assert symbols.from_json_dict(laurent) == \
            symbols.SymbolSpec(log_coeffs={1: 0.3 + 0.1j})

    def test_missing_parts_are_one(self):
        assert symbols.from_json_dict({}) == symbols.SymbolSpec()
        q = np.array([0.5, 1.5j])
        assert np.all(symbols.eval_phi(symbols.SymbolSpec(), q) == 1.0)

    @pytest.mark.parametrize("data", [[1.0, 2.0], "F2", None,
                                      {"numer": [[1.0, 0.0]], "lgo": {}},
                                      {"log_coeffs": [[1.0, 0.0]]},
                                      {"numer": [1.0, 2.0]},
                                      # a dense list of 10^12 powers
                                      {"log_coeffs": {"1000000000000":
                                                      [1.0, 0.0]}},
                                      # non-finite coefficients, as Python's
                                      # json reads NaN and Infinity
                                      {"numer": [[float("nan"), 0.0]]},
                                      {"numer": [[1.0, 0.0],
                                                 [float("inf"), 0.0]]},
                                      {"denom": [[1.0, float("-inf")]]},
                                      {"log_coeffs": {"1": [float("nan"),
                                                            0.0]}}])
    def test_malformed_data_rejected(self, data):
        with pytest.raises(errors.InputError):
            symbols.from_json_dict(data)

    def test_unknown_fixture_rejected(self):
        with pytest.raises(errors.InputError):
            symbols.fixture("F99")

    def test_parse_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        with pytest.raises(errors.InputError, match="parse error"):
            symbols.load_symbol(str(bad))


@st.composite
def product_symbols(draw):
    """(P/Q) exp(sum_{|j|<=2} t_j q^j) with |t_j| <= 0.2, and its winding w,
    drawn from -2..1: P has two zeros inside the unit circle and three
    outside, moduli in separate bands, and Q = q^(2 - w)."""
    def zero(lo, hi):
        return draw(st.floats(lo, hi)) * np.exp(1j * draw(st.floats(0, 6.3)))

    winding = draw(st.integers(-2, 1))
    inner = [zero(0.2, 0.28), zero(0.45, 0.55)]
    outer = [zero(1.5, 1.7), zero(2.3, 2.6), zero(3.2, 3.6)]
    numer = np.polynomial.polynomial.polyfromroots(inner + outer)
    numer = numer / np.prod([-w for w in outer])
    t = {j: draw(st.complex_numbers(max_magnitude=0.2)) for j in range(-2, 3)}
    spec = symbols.SymbolSpec(numer=tuple(numer),
                              denom=(0.0,) * (2 - winding) + (1.0,),
                              log_coeffs=t)
    return spec, winding


class TestProductForm:
    """phi = (P/Q) exp(sum_j t_j q^j): one form, no kind."""

    def test_constructor_parameters_pinned(self):
        # callers pass kind, numer and denom by position
        assert list(inspect.signature(symbols.SymbolSpec).parameters) == \
            ["kind", "numer", "denom", "log_coeffs", "label"]

    def test_kind_is_checked_not_stored(self):
        tagged = symbols.SymbolSpec("rational", (0.5, 1.0), (1.0,))
        plain = symbols.SymbolSpec(numer=(0.5, 1.0))
        assert tagged == plain and hash(tagged) == hash(plain)
        assert "kind" not in vars(tagged)
        assert [f.name for f in dataclasses.fields(tagged)] == \
            ["numer", "denom", "log_coeffs", "label"]
        with pytest.raises(errors.InputError, match="kind"):
            symbols.SymbolSpec("mystery", (0.5, 1.0))

    def test_factors_multiply(self):
        sp = times_exponent("F4")
        q = np.array([0.9 + 0.3j, -1.2, 0.5j])
        want = (symbols.eval_phi(symbols.fixture("F4"), q) *
                symbols.eval_phi(symbols.SymbolSpec(log_coeffs=EXPONENT), q))
        assert np.allclose(symbols.eval_phi(sp, q), want, rtol=1e-14, atol=0)

    def test_nu_grid_unwraps_the_ratio_only(self):
        nodes = circle_nodes(1.0, 256)
        got = symbols.eval_nu_grid(times_exponent("F5"), nodes)
        want = symbols.eval_nu_grid(symbols.fixture("F5"), nodes) + \
            symbols.eval_nu_grid(symbols.SymbolSpec(log_coeffs=EXPONENT), nodes)
        assert np.allclose(got, want, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("name", sorted(EXPECTED_WINDING))
    def test_zeros_and_winding_from_the_ratio(self, name):
        sp = times_exponent(name)
        assert symbols.winding_number(sp) == EXPECTED_WINDING[name]
        if name != "F2":
            ratio = symbols.analyze(symbols.fixture(name))
            assert symbols.analyze(sp) == ratio

    @pytest.mark.parametrize("x", [6, 32])
    @pytest.mark.parametrize("name", ["F0", "F1", "F3", "F4", "F5", "F6",
                                      "F7"])
    def test_fredholm_s_is_toeplitz(self, name, x):
        sp = times_exponent(name)
        s = fredholm.nystrom_det(fredholm.kernel_S(sp, x),
                                 base_contour(sp)).value
        t = toeplitz.toeplitz_det(sp, x)
        assert abs(s - t) <= 1e-12 * abs(t)

    @settings(max_examples=40, deadline=None)
    @given(drawn=product_symbols(), x=st.integers(1, 32))
    def test_random_products(self, drawn, x):
        sp, winding = drawn
        ratio = symbols.SymbolSpec(numer=sp.numer, denom=sp.denom)
        assert symbols.winding_number(sp) == \
            symbols.winding_number(ratio) == winding
        s = fredholm.nystrom_det(fredholm.kernel_S(sp, x),
                                 base_contour(sp)).value
        t = toeplitz.toeplitz_det(sp, x)
        assert abs(s - t) <= 1e-10 * abs(t)

    def test_no_residue_form_exactly_with_t_j(self):
        # the residue sums see the zeros only, not the exponential factor
        sp = times_exponent("F4")
        with pytest.raises(errors.NoResidueForm):
            asymptotics.slavnov_series(sp, 3)
        with pytest.raises(errors.NoResidueForm):
            asymptotics.tau_ratio_swap(sp, 3, 1.4, 2.2)
        # no t_j: the same residue sum as F4 itself, a separate cache entry
        bare = times_exponent("F4", log_coeffs={})
        assert asymptotics.slavnov_series(bare, 3) == \
            asymptotics.slavnov_series(symbols.fixture("F4"), 3)


def power_sum(log_coeffs, q, derivative=False):
    """sum_j t_j q^j, or its derivative, term by term with complex powers:
    the reference for Horner's rule."""
    acc = np.zeros(q.shape, dtype=complex)
    for j, t in log_coeffs:
        acc = acc + (t * j * q ** (j - 1) if derivative else t * q ** j)
    return acc


@st.composite
def exponent_symbols(draw):
    """(P/Q) exp(sum_j t_j q^j), |j| <= 40, the t_j all of some span
    (dense) or a few (sparse), |t_j| <= 0.3 * 0.5^|j| so that no term passes
    0.3 on radii 0.5 ... 2; the zeros and poles of P/Q lie off that
    annulus."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        span = draw(st.integers(0, 40))
        js = range(-span, span + 1)
    else:
        js = draw(st.lists(st.integers(-40, 40), unique=True, max_size=6))
    t = {j: 0.3 * 0.5 ** abs(j) * rng.uniform(0, 1) *
         np.exp(2j * np.pi * rng.uniform()) for j in js}

    def roots(k):
        return (rng.choice([rng.uniform(0.1, 0.4), rng.uniform(2.5, 4.0)]) *
                np.exp(2j * np.pi * rng.uniform()) for _ in range(k))

    numer = np.polynomial.polynomial.polyfromroots(list(roots(
        draw(st.integers(0, 3)))))
    denom = np.polynomial.polynomial.polyfromroots(list(roots(
        draw(st.integers(0, 2)))))
    return symbols.SymbolSpec(numer=tuple(numer), denom=tuple(denom),
                              log_coeffs=t)


class TestExponent:
    """The exponent sum_j t_j q^j by Horner's rule in q and 1/q."""

    @settings(max_examples=40, deadline=None)
    @given(spec=exponent_symbols(), radius=st.floats(0.5, 2.0),
           n=st.sampled_from([16, 64, 100]))
    def test_agrees_with_the_power_sum(self, spec, radius, n):
        ratio = symbols.SymbolSpec(numer=spec.numer, denom=spec.denom)
        grid = circle_nodes(radius, n)
        # the grid, an off-grid copy rotated off it, and one point of it
        for q in (grid, grid * np.exp(0.1j), np.asarray(grid[n // 3])):
            e, de = power_sum(spec.log_coeffs, q), \
                power_sum(spec.log_coeffs, q, derivative=True)
            # rounding of either sum grows with the sum of its terms' moduli
            size = 1.0 + power_sum([(j, abs(t)) for j, t in spec.log_coeffs],
                                   abs(q)).real
            dsize = 1.0 + power_sum([(j - 1, abs(j * t)) for j, t in
                                     spec.log_coeffs], abs(q)).real
            tol = 1e-13     # ~400 eps: rounding of 81 terms, five times over
            phi = symbols.eval_phi(ratio, q) * np.exp(e)
            dphi = np.exp(e) * (symbols.eval_dphi(ratio, q) +
                                symbols.eval_phi(ratio, q) * de)
            assert np.all(np.abs(symbols.eval_phi(spec, q) - phi) <=
                          tol * size * np.abs(phi))
            assert np.all(np.abs(symbols.eval_dphi(spec, q) - dphi) <=
                          tol * (size * np.abs(dphi) + dsize * np.abs(phi)))
            if q.ndim:
                nu = symbols.eval_nu_grid(ratio, q) + e / (2j * np.pi)
                assert np.all(np.abs(symbols.eval_nu_grid(spec, q) - nu) <=
                              tol * size)

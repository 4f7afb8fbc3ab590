"""Symbol specifications, winding numbers, and zero bookkeeping."""

import inspect
import json

import numpy as np
import pytest

from detlab import errors, symbols, toeplitz
from detlab.cauchy import CauchySuite

EXPECTED_WINDING = {"F0": 0, "F1": 0, "F2": 0, "F3": -1, "F4": -1,
                    "F5": -2, "F6": 0, "F7": 1}


class TestFixtures:
    @pytest.mark.parametrize("name", sorted(EXPECTED_WINDING))
    def test_winding(self, name):
        assert symbols.winding_number(symbols.fixture(name)) == \
            EXPECTED_WINDING[name]

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
        sp = symbols.fixture("F5")
        q, h = 0.7 + 0.4j, 1e-6
        fd = (symbols.eval_phi(sp, q + h) - symbols.eval_phi(sp, q - h)) / (2 * h)
        assert abs(symbols.eval_dphi(sp, q) - fd) < 1e-8

    def test_dnu_is_logarithmic_derivative(self):
        sp = symbols.fixture("F2")
        q = np.array([1.1 + 0.2j])
        expect = symbols.eval_dphi(sp, q) / (2j * np.pi * symbols.eval_phi(sp, q))
        assert abs(symbols.eval_dnu(sp, q)[0] - expect[0]) < 1e-12

    def test_nu_grid_is_continuous(self):
        sp = symbols.fixture("F5")
        from detlab._series import circle_nodes
        nu = symbols.eval_nu_grid(sp, circle_nodes(1.0, 256))
        assert np.max(np.abs(np.diff(nu))) < 0.2


class TestFourier:
    def test_f2_exact_coefficients(self):
        # log phi = 0.3 q + 0.2 / q, i.e. nu_{+1} = 0.3, nu_{-1} = 0.2 in the
        # normalization nu(q) = sum_j q^j nu_j / (2 pi i)
        split = CauchySuite(symbols.fixture("F2"), 2, unit=True).nu_split
        assert abs(2j * np.pi * split.coefficient(1) - 0.3) < 1e-13
        assert abs(2j * np.pi * split.coefficient(-1) - 0.2) < 1e-13

    def test_f1_moments(self):
        moments = toeplitz.moment_table(symbols.fixture("F1"), 4)
        assert abs(moments[0] - 1.5) < 1e-13
        assert abs(moments[3]) < 1e-13


class TestValidation:
    def test_round_trip(self):
        sp = symbols.fixture("F4")
        again = symbols.from_json_dict(symbols.to_json_dict(sp), label=sp.label)
        q = np.array([0.9 + 0.1j])
        assert abs(symbols.eval_phi(sp, q)[0] -
                   symbols.eval_phi(again, q)[0]) < 1e-14

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

    def test_unknown_fixture_rejected(self):
        with pytest.raises(errors.InputError):
            symbols.fixture("F99")

    def test_parse_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        with pytest.raises(errors.InputError, match="parse error"):
            symbols.load_symbol(str(bad))

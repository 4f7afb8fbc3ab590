"""End-to-end command-line behaviour: outputs, formats, exit codes."""

import csv
import io
import json

import numpy as np
import pytest

from detlab import (asymptotics, cli, errors, formfactors, fredholm,
                    symbols, toeplitz)


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


class TestAnalyze:
    def test_report_fields(self, capsys):
        code, out = run(["analyze", "--spec", "F4"], capsys)
        assert code == 0
        rep = json.loads(out)
        assert rep["winding"] == -1
        assert sorted(z["re"] for z in rep["zeros"]) == \
            pytest.approx([0.3, 1.4, 2.2])
        assert [z["re"] for z in rep["z_list"]] == pytest.approx([1.4])
        assert [w["re"] for w in rep["w_list"]] == pytest.approx([2.2])
        assert rep["poles"][0]["multiplicity"] == 2

    def test_contour_selection_reported(self, capsys):
        code, out = run(["analyze", "--spec", "F3"], capsys)
        rep = json.loads(out)
        assert rep["contour"]["components"][0]["radius"] == pytest.approx(2.0)

    def test_spec_file_path(self, tmp_path, capsys):
        path = tmp_path / "sym.json"
        path.write_text(json.dumps(symbols.to_json_dict(symbols.fixture("F6"))))
        code, out = run(["analyze", "--spec", str(path)], capsys)
        assert code == 0
        assert json.loads(out)["winding"] == 0

    def test_conjugate_zero_pair(self, tmp_path, capsys):
        # winding 0 with equal zero moduli: no zero is selected, unit circle
        zeros = [0.5 * np.exp(1j), 0.5 * np.exp(-1j),
                 2 * np.exp(0.7j), 2 * np.exp(-0.7j)]
        spec = symbols.SymbolSpec(
            "rational", tuple(np.polynomial.polynomial.polyfromroots(zeros)),
            (0.0, 0.0, 1.0))
        path = tmp_path / "pair.json"
        path.write_text(json.dumps(symbols.to_json_dict(spec)))
        code, out = run(["analyze", "--spec", str(path)], capsys)
        assert code == 0
        rep = json.loads(out)
        assert rep["winding"] == 0 and rep["z_list"] == []
        assert rep["contour"]["components"] == [
            {"center": [0.0, 0.0], "radius": 1.0, "orientation": 1}]


class TestExitCodes:
    def test_unknown_fixture(self, capsys):
        assert run(["toeplitz", "--spec", "F99", "--x", "2"], capsys)[0] == 2

    def test_malformed_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run(["analyze", "--spec", str(bad)], capsys)[0] == 2

    def test_numerical_failure(self, capsys):
        # impossible tolerance at a hard quadrature cap
        code, _ = run(["fredholm", "--spec", "F4", "--x", "3",
                       "--tol", "1e-15", "--m", "32"], capsys)
        assert code == 3

    def test_bandwidth_past_cap_exits_3(self, capsys):
        code, _ = run(["fredholm", "--spec", "F1", "--x", "1024",
                       "--m", "1024"], capsys)
        assert code == 3

    @pytest.mark.parametrize("method", ["slavnov:abc", "ff:abc", "slavnov:-1"])
    def test_malformed_method_argument_exits_2(self, method, capsys):
        code, _ = run(["compare", "--spec", "F4", "--x", "2",
                       "--methods", "toeplitz," + method], capsys)
        assert code == 2

    @pytest.mark.parametrize("tol", ["nan", "0", "-1e-10", "inf"])
    def test_tol_not_finite_and_positive_exits_2(self, tol, capsys):
        code = cli.main(["fredholm", "--spec", "F2", "--x", "2", f"--tol={tol}"])
        assert code == 2 and "--tol" in capsys.readouterr().err

    @pytest.mark.parametrize("m", ["0", "-5", "15"])
    def test_cap_below_one_grid_exits_2(self, m, capsys):
        code = cli.main(["fredholm", "--spec", "F2", "--x", "2", f"--m={m}"])
        assert code == 2 and "--m" in capsys.readouterr().err

    def test_overflow_exits_3(self, capsys):
        # 1.5^2000 is past double range: szego and the Toeplitz oracle raise
        # a typed failure, not an inf, and the toeplitz command exits 3
        with pytest.raises(errors.OverflowGuard):
            cli.ROUTES["szego"](symbols.fixture("F1"), 2000, None)
        assert run(["toeplitz", "--spec", "F1", "--x", "2000"], capsys)[0] == 3


    def test_toeplitz_overflow_exits_3(self, capsys):
        assert run(["toeplitz", "--spec", "F4", "--x", "1024"], capsys)[0] == 3

    def test_nystrom_past_double_range_exits_3(self, capsys):
        # F4's determinant passes the double range between x = 880 and 899:
        # a typed OverflowGuard, not a bare OverflowError from |det - prev|.
        # The value is pinned on the independent slavnov_series(F4, 880).
        code, out = run(["fredholm", "--spec", "F4", "--x", "880"], capsys)
        row = list(csv.DictReader(io.StringIO(out)))[0]
        assert code == 0 and int(row["m_used"]) == 884
        assert float(row["re"]) == pytest.approx(6.838500724066594e301,
                                                 rel=1e-12)
        assert run(["fredholm", "--spec", "F4", "--x", "899"], capsys)[0] == 3
        code, out = run(["compare", "--spec", "F4", "--x", "899",
                         "--methods", "fredholm_S"], capsys)
        row = list(csv.DictReader(io.StringIO(out)))[0]
        assert code == 0 and row["fredholm_S_re"] == "n/a(OverflowGuard)"

    @pytest.mark.parametrize("argv", [
        ["fredholm", "--spec", "F2", "--kernel", "S", "--x=-3"],
        ["ff", "--spec", "F2", "--x=-3", "--L", "8"],
        ["toeplitz", "--spec", "F2", "--x=-1..2"]])
    def test_negative_x_exits_2(self, argv, capsys):
        assert run(argv, capsys)[0] == 2

    def test_ff_zero_near_circle_exits_3(self, tmp_path, capsys):
        # phi = 1 - q/1.05 at L = 8: the roots are not one per cell of Z
        spec = symbols.SymbolSpec("rational", (1.0, -1.0 / 1.05), (1.0,))
        path = tmp_path / "near.json"
        path.write_text(json.dumps(symbols.to_json_dict(spec)))
        code, _ = run(["ff", "--spec", str(path), "--L", "8"], capsys)
        assert code == 3

    @pytest.mark.parametrize("xs", ["0..1", "0..1" + "0" * 12,
                                    "0..1" + "0" * 30])
    def test_ff_x_range_exits_2(self, xs, capsys):
        # the range is not built: 10^12 or 10^30 values ask for no memory
        code = cli.main(["ff", "--spec", "F1", "--L", "8", "--x", xs])
        assert code == 2
        assert "ff takes a single x value" in capsys.readouterr().err

    @pytest.mark.parametrize("text,code", [
        ('{"numer": [[NaN, 0]]}', 2),
        ('{"numer": [[1, 0], [Infinity, 0]]}', 2),
        ('{"log_coeffs": {"1": [NaN, 0]}}', 2),
        # finite, but exp(t_0) overflows or underflows on the unit circle:
        # OverflowGuard from the winding, which every command reads first
        ('{"log_coeffs": {"0": [1e308, 0]}}', 3),
        ('{"log_coeffs": {"0": [-800, 0]}}', 3)])
    def test_non_finite_symbol_exit_code(self, text, code, tmp_path, capsys):
        path = tmp_path / "s.json"
        path.write_text(text)
        for argv in (["toeplitz", "--x", "2"], ["analyze"]):
            assert run(argv + ["--spec", str(path)], capsys)[0] == code

    def test_ff_N_past_sector_exits_2(self, capsys):
        # F3 has winding -1, so at most L + w = 7 roots at L = 8
        code, _ = run(["ff", "--spec", "F3", "--L", "8", "--N", "8"], capsys)
        assert code == 2


class TestTables:
    def test_toeplitz_csv(self, capsys):
        code, out = run(["toeplitz", "--spec", "F1", "--x", "1..4"], capsys)
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [int(r["x"]) for r in rows] == [1, 2, 3, 4]
        assert float(rows[2]["re"]) == pytest.approx(1.5 ** 3)

    def test_fredholm_matches_toeplitz(self, capsys):
        _, t = run(["toeplitz", "--spec", "F4", "--x", "3"], capsys)
        _, f = run(["fredholm", "--spec", "F4", "--x", "3"], capsys)
        tv = float(list(csv.DictReader(io.StringIO(t)))[0]["re"])
        fv = float(list(csv.DictReader(io.StringIO(f)))[0]["re"])
        assert fv == pytest.approx(tv, rel=1e-9)

    def test_fredholm_default_cap_past_x_448(self, capsys):
        # F1's constant theta has margin 1, and its one grid x + 2 = 482
        # nodes; the cap check still asks for x + 64 <= 1024
        code, out = run(["fredholm", "--spec", "F1", "--x", "480"], capsys)
        assert code == 0
        row = list(csv.DictReader(io.StringIO(out)))[0]
        assert int(row["m_used"]) == 482
        assert float(row["re"]) == pytest.approx(1.5 ** 480, rel=1e-10)

    @pytest.mark.parametrize("spec", ["F1", "F4"])
    def test_fredholm_V_is_tau_eff(self, spec, capsys):
        # F4 (negative winding) takes V's residue form on the zero-winding
        # circle, and F1 at x = 200 a split on >= 4x nodes, as tau_eff does
        code, out = run(["fredholm", "--spec", spec, "--x", "200",
                         "--kernel", "V", "--format", "json"], capsys)
        assert code == 0
        row = json.loads(out)[0]
        assert complex(row["re"], row["im"]) == \
            asymptotics.tau_eff(symbols.fixture(spec), 200)

    def test_fredholm_V_positive_winding_is_the_structural_zero(
            self, monkeypatch, capsys):
        # F7 (winding +1): tau_eff's exact 0, as compare prints it, with no
        # error estimate, no grid and no kernel built
        def no_kernel(spec, x):
            raise AssertionError("a kernel was built")

        monkeypatch.setattr(asymptotics, "tau_eff_kernel", no_kernel)
        code, out = run(["fredholm", "--spec", "F7", "--x", "1..4",
                         "--kernel", "V"], capsys)
        assert code == 0
        zero = "0.0000000000000000e+00"
        assert out.splitlines()[1:] == [f"{x},{zero},{zero},{zero},0"
                                        for x in range(1, 5)]
        code, out = run(["compare", "--spec", "F7", "--x", "1..4",
                         "--methods", "fredholm_V"], capsys)
        rows = list(csv.DictReader(io.StringIO(out)))
        assert code == 0
        assert all(r["fredholm_V_re"] == r["fredholm_V_im"] == zero
                   for r in rows)

    def test_json_format(self, capsys):
        code, out = run(["toeplitz", "--spec", "F1", "--x", "2",
                         "--format", "json"], capsys)
        rep = json.loads(out)
        assert rep[0]["x"] == 2
        assert rep[0]["re"] == pytest.approx(2.25)

    def test_out_file(self, tmp_path, capsys):
        path = tmp_path / "t.csv"
        code, out = run(["toeplitz", "--spec", "F1", "--x", "2",
                         "--out", str(path)], capsys)
        assert code == 0 and out == ""
        assert path.read_text().startswith("x,re,im")

    def test_determinism(self, capsys):
        argv = ["compare", "--spec", "F4", "--x", "2..4",
                "--methods", "fredholm_S,slavnov:1"]
        assert run(argv, capsys)[1] == run(argv, capsys)[1]


class TestAsymAndCompare:
    def test_asym_szego(self, capsys):
        # one rung of the ladder is a one-method compare run
        code, out = run(["compare", "--spec", "F2", "--x", "6",
                         "--methods", "szego"], capsys)
        rows = list(csv.DictReader(io.StringIO(out)))
        assert code == 0 and float(rows[0]["szego_gap"]) < 1e-6

    def test_compare_includes_na_cells(self, capsys):
        # hf needs negative winding; F2 has winding 0
        code, out = run(["compare", "--spec", "F2", "--x", "2..3",
                         "--methods", "szego,hf"], capsys)
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert all(r["hf_re"] == "n/a(WindingNonnegative)" for r in rows)
        assert all(float(r["szego_gap"]) < 1e-5 for r in rows)

    def test_compare_slavnov_needs_a_rational_symbol(self, capsys):
        # F2 is exp(0.3 q + 0.2 / q), with no residue form
        code, out = run(["compare", "--spec", "F2", "--x", "2..3",
                         "--methods", "slavnov"], capsys)
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert all(r["slavnov_re"] == "n/a(NoResidueForm)" for r in rows)

    def test_compare_product_symbol_file(self, tmp_path, capsys):
        # F4's P/Q times exp(...): winding -1 with a smooth non-rational factor
        f4 = symbols.fixture("F4")
        spec = symbols.SymbolSpec(numer=f4.numer, denom=f4.denom,
                                  log_coeffs={1: 0.3, -1: 0.2, 2: 0.05j})
        path = tmp_path / "product.json"
        path.write_text(json.dumps(symbols.to_json_dict(spec)))
        code, out = run(["compare", "--spec", str(path), "--x", "2..6",
                         "--methods", "fredholm_S"], capsys)
        rows = list(csv.DictReader(io.StringIO(out)))
        assert code == 0 and len(rows) == 5
        assert all(float(r["fredholm_S_gap"]) <= 1e-10 for r in rows)

    def test_failing_oracle_fills_only_its_row(self, capsys):
        # the Toeplitz oracle overflows at x = 899 only: the other rows keep
        # their gaps, and that row's gap cells name the failure
        code, out = run(["compare", "--spec", "F4", "--x", "895..899",
                         "--methods", "leading"], capsys)
        rows = list(csv.DictReader(io.StringIO(out)))
        assert code == 0 and [int(r["x"]) for r in rows] == list(
            range(895, 900))
        assert all(float(r["leading_gap"]) < 1e-10 for r in rows[:4])
        assert rows[4]["leading_gap"] == "n/a(OverflowGuard)"

    def test_compare_solves_the_roots_once(self, monkeypatch, capsys):
        # the roots take no x: one solve serves the whole range, and every
        # row is the one a separate single-x run prints
        calls = []
        real = formfactors.solve_shifted

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(formfactors, "solve_shifted", counted)
        argv = ["compare", "--spec", "F2", "--methods", "ff", "--x"]
        code, out = run(argv + ["1..8"], capsys)
        assert code == 0 and len(calls) == 1
        header, *rows = out.splitlines()
        for x, row in zip(range(1, 9), rows, strict=True):
            single = run(argv + [str(x)], capsys)[1].splitlines()
            assert single == [header, row]
        assert len(calls) == 9

    def test_compare_takes_toeplitz_once_per_x(self, monkeypatch, capsys):
        # the toeplitz column is the oracle's value, its gap 0, and where
        # the oracle fails (F4 at x = 899) the column names that failure
        calls = []
        real = toeplitz.toeplitz_det

        def counted(spec, x):
            calls.append(x)
            return real(spec, x)

        monkeypatch.setattr(toeplitz, "toeplitz_det", counted)
        code, out = run(["compare", "--spec", "F4", "--x", "1..8",
                         "--methods", "toeplitz,leading"], capsys)
        assert code == 0 and calls == list(range(1, 9))
        rows = list(csv.DictReader(io.StringIO(out)))
        for x, row in zip(range(1, 9), rows, strict=True):
            value = real(symbols.fixture("F4"), x)
            assert float(row["toeplitz_re"]) == value.real
            assert float(row["toeplitz_gap"]) == 0.0
        code, out = run(["compare", "--spec", "F4", "--x", "899",
                         "--methods", "toeplitz"], capsys)
        row, = csv.DictReader(io.StringIO(out))
        assert set(row.values()) == {"899", "n/a(OverflowGuard)"}

    def test_unknown_method_rejected(self, capsys):
        code, _ = run(["compare", "--spec", "F2", "--x", "2",
                       "--methods", "nosuch"], capsys)
        assert code == 2

    def test_ff_report(self, capsys):
        code, out = run(["ff", "--spec", "F1", "--x", "2", "--L", "8"],
                        capsys)
        rep = json.loads(out)
        assert rep["value"]["re"] == pytest.approx(2.25)
        assert (rep["N"], rep["winding"], rep["terms"]) == (8, 0, 1)
        assert rep["oracle_gap"] < 1e-9

    @pytest.mark.parametrize("spec,N,winding,terms", [("F3", 7, -1, 8),
                                                      ("F7", 9, 1, 0)])
    def test_ff_report_winding_sector(self, spec, N, winding, terms, capsys):
        # N = L + w; no 9-subset of 8 grid points, so F7's value is 0
        code, out = run(["ff", "--spec", spec, "--x", "2", "--L", "8"],
                        capsys)
        rep = json.loads(out)
        assert code == 0
        assert (rep["N"], rep["winding"], rep["terms"]) == (N, winding, terms)
        assert (rep["value"]["re"] == 0.0) == (terms == 0)


class TestVerify:
    def test_filtered_run_passes(self, capsys):
        code, out = run(["verify", "--only", "scalar-jump"], capsys)
        assert code == 0
        rep = json.loads(out)
        assert rep["failed"] == []
        assert len(rep["checks"]) == 7
        assert all(c["duration_ms"] > 0 for c in rep["checks"])

    def test_filter_without_match_exits_2(self, capsys):
        code = cli.main(["verify", "--only", "nosuchcheck"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "nosuchcheck" in captured.err

    def test_negative_seed_exits_2(self, capsys):
        code = cli.main(["verify", "--seed", "-1"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "seed" in captured.err

    def test_rank_one_group(self, capsys):
        code, out = run(["verify", "--only", "rank-one"], capsys)
        assert code == 0 and json.loads(out)["failed"] == []


# each route as a direct library call (spec, x, arg), written apart from
# cli.ROUTES; F2 (winding 0) takes the routes that F3 and F4 reject
DIRECT = {
    "toeplitz": lambda s, x, arg: toeplitz.toeplitz_det(s, x),
    "fredholm_S": lambda s, x, arg: fredholm.nystrom_det(
        fredholm.kernel_S(s, x), asymptotics.base_contour(s)).value,
    "fredholm_V": lambda s, x, arg: asymptotics.tau_eff(s, x),
    "leading": lambda s, x, arg: asymptotics.tau_leading(s, x, route="modes"),
    "szego": lambda s, x, arg: asymptotics.szego(s, x),
    "hf": lambda s, x, arg: asymptotics.hartwig_fisher(s, x),
    "hf-leading": lambda s, x, arg: asymptotics.hf_leading(
        s, x, route="angular"),
    "bo": lambda s, x, arg: asymptotics.borodin_okounkov(s, x),
    "slavnov": lambda s, x, arg: asymptotics.slavnov_series(s, x, arg),
    "ff": lambda s, x, arg: formfactors.tau_eff_finite(
        s, 12 if arg is None else arg,
        (12 if arg is None else arg) + symbols.winding_number(s), x),
}


def direct(name, spec, x, arg=None):
    """The direct call's value, or the type of the DetlabError it raises."""
    try:
        return DIRECT[name](spec, x, arg)
    except errors.DetlabError as exc:
        return type(exc)


class TestRoutes:
    def test_table_names(self):
        assert set(cli.ROUTES) == set(DIRECT)

    @pytest.mark.parametrize("name", sorted(DIRECT))
    @pytest.mark.parametrize("spec", ["F2", "F3", "F4"])
    def test_asym_gives_direct_value(self, name, spec, capsys):
        # one rung of the ladder, a one-method compare run: the direct value
        # and its relative gap to the Toeplitz oracle, or the error's name
        fixture = symbols.fixture(spec)
        want = direct(name, fixture, 2)
        code, out = run(["compare", "--spec", spec, "--x", "2", "--methods",
                         name, "--format", "json"], capsys)
        assert code == 0
        row = json.loads(out)[0]
        if isinstance(want, type):
            assert row[name + "_gap"] == f"n/a({want.__name__})"
        else:
            assert complex(row[name + "_re"], row[name + "_im"]) == want
            oracle = toeplitz.toeplitz_det(fixture, 2)
            assert row[name + "_gap"] == abs(want - oracle) / abs(oracle)

    @pytest.mark.parametrize("x", [-2, 2.5])
    @pytest.mark.parametrize("name", sorted(DIRECT))
    def test_bad_x_is_input_error(self, name, x):
        # on a symbol each route takes at x = 2: F3 has the negative winding
        # that hf and hf-leading need
        spec = symbols.fixture("F3" if name.startswith("hf") else "F1")
        cli.ROUTES[name](spec, 2, None)
        with pytest.raises(errors.InputError, match="nonnegative integer"):
            cli.ROUTES[name](spec, x, None)

    @pytest.mark.parametrize("name", sorted(DIRECT))
    def test_numpy_integer_x(self, name):
        spec = symbols.fixture("F3" if name.startswith("hf") else "F4")
        assert direct(name, spec, np.int64(5)) == direct(name, spec, 5)

    @pytest.mark.parametrize("spec", ["F2", "F3", "F4"])
    def test_compare_gives_direct_value(self, spec, capsys):
        methods = sorted(DIRECT) + ["slavnov:0", "slavnov:1", "ff:8"]
        code, out = run(["compare", "--spec", spec, "--x", "2..3",
                         "--methods", ",".join(methods), "--format", "json"],
                        capsys)
        assert code == 0
        for row in json.loads(out):
            for method in methods:
                name, _, arg = method.partition(":")
                want = direct(name, symbols.fixture(spec), row["x"],
                              int(arg) if arg else None)
                if isinstance(want, type):
                    assert row[method + "_re"] == f"n/a({want.__name__})"
                else:
                    assert complex(row[method + "_re"],
                                   row[method + "_im"]) == want


VERIFY_CHECKS = [
    ("scalar-jump-F1", 1e-10), ("scalar-jump-F2", 1e-10),
    ("scalar-jump-F3", 1e-10), ("scalar-jump-F4", 1e-10),
    ("scalar-jump-F5", 1e-10), ("scalar-jump-F6", 1e-10),
    ("scalar-jump-F7", 1e-10),
    ("oracle-S-F1-x3", 1e-8), ("oracle-S-F3-x5", 1e-8),
    ("oracle-S-F4-x2", 1e-8), ("oracle-S-F6-x4", 1e-8),
    ("kernel-split-F4-x3", 1e-8),
    ("resolvent-inversion-F2-x2", 1e-8), ("resolvent-inversion-F4-x2", 1e-8),
    ("mdual-F2-x2", 1e-8), ("mdual-F4-x3", 1e-8),
    ("rank-one-F2-x2", 1e-8), ("rank-one-F6-x5", 1e-8),
    ("hf-exact-F3-x4", 1e-8), ("hf-exact-F5-x3", 1e-8),
    ("leading-dual-F1-x4", 1e-9), ("leading-dual-F4-x3", 1e-9),
    ("hf-leading-dual-F3-x5", 1e-8), ("hf-leading-dual-F5-x4", 1e-8),
    ("bo-F2-x3", 1e-8), ("bo-F6-x5", 1e-8),
    ("slavnov-sum-F4-x2", 1e-8), ("slavnov-sum-F4-x4", 1e-8),
    ("contour-swap-F4-x3", 1e-6),
    ("variational-F2", 1e-4),
    ("rhp-jump-F3-x2", 1e-8), ("rhp-normalization-F3-x2", 1e-8),
    ("hf-moment-F3-x2", 1e-8),
    ("rhp-jump-F5-x3", 1e-8), ("rhp-normalization-F5-x3", 1e-8),
    ("hf-moment-F5-x3", 1e-8),
    ("christoffel-darboux-F5", 1e-9),
    ("ff-convergence-F2", 2.0 / 3.0),
]


@pytest.mark.parametrize("fmt,text", [
    ("csv", "s,i,n,f,g\na,3,-4,5.0000000000000000e-01,"
            "3.3333333333333331e-01\n"),
    ("json", '[\n  {\n    "f": 0.5,\n    "g": 0.3333333333333333,\n'
             '    "i": 3,\n    "n": -4,\n    "s": "a"\n  }\n]\n')])
def test_table_cells(fmt, text, tmp_path):
    # a str as it is, an int or NumPy integer as an integer, a float with
    # 17 significant digits in CSV and as itself in JSON
    path = tmp_path / "table"
    cli._write(str(path), [["a", 3, np.int64(-4), 0.5, np.float64(1 / 3)]],
               ["s", "i", "n", "f", "g"], fmt)
    assert path.read_text() == text


def test_verify_checks_pinned():
    # names, tolerances and order; the seeded probes are drawn in this order
    assert [(name, tol) for name, tol, _ in cli._verify_checks(0)] == \
        VERIFY_CHECKS

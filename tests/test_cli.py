"""End-to-end command-line behaviour: outputs, formats, exit codes."""

import csv
import io
import json

import pytest

from detlab import cli, symbols


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

    def test_negative_order_exits_2(self, capsys):
        code, _ = run(["asym", "--spec", "F4", "--x", "3",
                       "--method", "slavnov", "--order", "-1"], capsys)
        assert code == 2

    @pytest.mark.parametrize("method", ["slavnov:abc", "ff:abc", "slavnov:-1"])
    def test_malformed_method_argument_exits_2(self, method, capsys):
        code, _ = run(["compare", "--spec", "F4", "--x", "2",
                       "--methods", "toeplitz," + method], capsys)
        assert code == 2

    def test_overflow_exits_3(self, capsys):
        # 1.5^2000 is past double range: a typed failure, not an inf
        code, _ = run(["asym", "--spec", "F1", "--x", "2000",
                       "--method", "szego"], capsys)
        assert code == 3


    def test_toeplitz_overflow_exits_3(self, capsys):
        assert run(["toeplitz", "--spec", "F4", "--x", "1024"], capsys)[0] == 3


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
        # the first grid has x + 32 = 512 nodes, confirmed on x + 64 = 544
        code, out = run(["fredholm", "--spec", "F1", "--x", "480"], capsys)
        assert code == 0
        row = list(csv.DictReader(io.StringIO(out)))[0]
        assert int(row["m_used"]) == 544

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
        code, out = run(["asym", "--spec", "F2", "--x", "6",
                         "--method", "szego"], capsys)
        rows = list(csv.DictReader(io.StringIO(out)))
        assert float(rows[0]["abs_err_vs_oracle"]) < 1e-6

    def test_compare_includes_na_cells(self, capsys):
        # hf needs negative winding; F2 has winding 0
        code, out = run(["compare", "--spec", "F2", "--x", "2..3",
                         "--methods", "szego,hf"], capsys)
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert all(r["hf_re"] == "n/a(WindingNonnegative)" for r in rows)
        assert all(float(r["szego_gap"]) < 1e-5 for r in rows)

    def test_unknown_method_rejected(self, capsys):
        code, _ = run(["compare", "--spec", "F2", "--x", "2",
                       "--methods", "nosuch"], capsys)
        assert code == 2

    def test_ff_report(self, capsys):
        code, out = run(["ff", "--spec", "F1", "--x", "2", "--L", "8"],
                        capsys)
        rep = json.loads(out)
        assert rep["value"]["re"] == pytest.approx(2.25)
        assert rep["terms"] == 1
        assert rep["oracle_gap"] < 1e-9


class TestVerify:
    def test_filtered_run_passes(self, capsys):
        code, out = run(["verify", "--only", "scalar-jump"], capsys)
        assert code == 0
        rep = json.loads(out)
        assert rep["failed"] == []
        assert len(rep["checks"]) == 7

    def test_rank_one_group(self, capsys):
        code, out = run(["verify", "--only", "rank-one"], capsys)
        assert code == 0 and json.loads(out)["failed"] == []

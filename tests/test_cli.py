import json

import pytest

from pballs.cli import CSV_HEADER, main

MC_FLAGS = ["--samples", "40000", "--seed", "11", "--streams", "4"]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_self_dual_cell(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--n", "2", "--p", "2")
        lines = out.strip().splitlines()
        assert code == 0
        assert lines[0] == CSV_HEADER
        fields = lines[1].split(",")
        assert fields[0] == "2"
        assert fields[1] == "2"
        assert float(fields[3]) == pytest.approx(0.125, rel=1e-13)
        assert fields[8] == "0" or abs(float(fields[8])) < 1e-15  # margin ~ 0
        assert fields[9] == "true" and fields[10] == "true"
        assert fields[11] == ""  # no MC requested

    def test_one_dimensional_cell(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--n", "1", "--p", "9")
        assert code == 0
        fields = out.strip().splitlines()[1].split(",")
        assert float(fields[3]) == pytest.approx(1.0 / 9.0, rel=1e-12)

    def test_infinite_exponent_json(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--n", "3", "--p", "inf", "--format", "json")
        assert code == 0
        row = json.loads(out.strip())
        assert row["p"] == "inf"
        assert row["f_gamma"] == pytest.approx(0.1, rel=1e-13)
        assert row["f_mc"] is None
        assert row["mc_agrees"] is None
        assert list(row) == CSV_HEADER.split(",")

    def test_17_digit_roundtrip(self, capsys):
        _, out, _ = run_cli(capsys, "eval", "--n", "3", "--p", "1.7")
        fields = out.strip().splitlines()[1].split(",")
        from pballs.moments import f_gamma

        assert float(fields[3]) == f_gamma(3, 1.7).value

    def test_mc_column(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--n", "2", "--p", "2", *MC_FLAGS)
        assert code == 0
        fields = out.strip().splitlines()[1].split(",")
        assert fields[5] != "" and fields[6] != ""
        assert abs(float(fields[5]) - 0.125) <= 3.0 * float(fields[6])
        assert fields[11] == "true"

    def test_deterministic_bytes(self, capsys):
        _, out1, _ = run_cli(capsys, "eval", "--n", "2", "--p", "1.5", *MC_FLAGS)
        _, out2, _ = run_cli(capsys, "eval", "--n", "2", "--p", "1.5", *MC_FLAGS)
        assert out1 == out2

    @pytest.mark.parametrize("p", ["0.5", "nan", "abc", "-inf", "infinity"])
    def test_bad_exponent_is_usage_error(self, capsys, p):
        code, _, err = run_cli(capsys, "eval", "--n", "2", f"--p={p}")
        assert code == 2
        assert err != ""

    def test_bad_dimension_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--n", "0", "--p", "2")
        assert code == 2


class TestScan:
    def test_grid_shape_and_order(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "--n", "2..5", "--p", "1,1.5,2")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == CSV_HEADER
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 12
        assert [r[0] for r in rows] == ["2"] * 3 + ["3"] * 3 + ["4"] * 3 + ["5"] * 3
        assert [r[1] for r in rows[:3]] == ["1", "1.5", "2"]

    def test_constant_row_for_n1(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "--n", "1", "--p", "1,2,inf")
        assert code == 0
        values = [float(line.split(",")[3]) for line in out.strip().splitlines()[1:]]
        for v in values:
            assert v == pytest.approx(1.0 / 9.0, rel=1e-12)

    def test_monotone_verdicts_on_stderr(self, capsys):
        code, out, err = run_cli(capsys, "scan", "--n", "10", "--p", "2,3,10,inf")
        assert code == 0
        values = [float(line.split(",")[3]) for line in out.strip().splitlines()[1:]]
        assert all(b < a for a, b in zip(values, values[1:]))
        assert "monotone nonincreasing on [2,inf] for n=10" in err
        assert "ok" in err

    def test_increasing_verdict(self, capsys):
        code, _, err = run_cli(capsys, "scan", "--n", "3", "--p", "1,1.25,1.5,2")
        assert code == 0
        assert "monotone nondecreasing on [1,2] for n=3" in err

    def test_comma_n_list(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "--n", "1,4", "--p", "2")
        assert code == 0
        assert len(out.strip().splitlines()) == 3

    def test_json_rows(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "--n", "2", "--p", "1.5,inf", "--format", "json")
        assert code == 0
        rows = [json.loads(line) for line in out.strip().splitlines()]
        assert len(rows) == 2
        assert rows[1]["p"] == "inf"
        assert all(r["bound_ok"] is True for r in rows)

    def test_large_dimensions_agree(self, capsys):
        # both routes certified at n = 10^5..10^6: every row agrees, exit 0
        code, out, _ = run_cli(capsys, "scan", "--n", "100000,1000000", "--p", "1.5,2,3")
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert len(rows) == 6
        assert all(r[9] == "true" and r[10] == "true" for r in rows)

    def test_bad_range(self, capsys):
        code, _, _ = run_cli(capsys, "scan", "--n", "5..2", "--p", "2")
        assert code == 2

    def test_repeated_exponent_is_judged_once(self, capsys):
        code, out, err = run_cli(capsys, "scan", "--n", "3", "--p", "1.5,1.5,2")
        assert code == 0
        assert len(out.strip().splitlines()) == 4
        assert err == "# ok: monotone nondecreasing on [1,2] for n=3\n"

    def test_exponents_that_snap_together(self, capsys):
        # 1.0000000000001 snaps to p = 1, so the side has two distinct exponents
        code, out, err = run_cli(capsys, "scan", "--n", "3", "--p", "1,1.0000000000001,1.5")
        assert code == 0
        assert [line.split(",")[1] for line in out.strip().splitlines()[1:]] == ["1", "1", "1.5"]
        assert err == "# ok: monotone nondecreasing on [1,2] for n=3\n"


class TestVerify:
    def test_named_suite(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "remark-limit")
        assert code == 0
        assert "PASS gamma-ratio-limit" in out
        assert "OVERALL: PASS" in out

    def test_suite_flag_spelling(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "endpoints")
        assert code == 0
        assert "PASS self-dual-value" in out

    def test_missing_suite(self, capsys):
        code, _, err = run_cli(capsys, "verify")
        assert code == 2

    def test_unknown_suite(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "nonsense"])
        assert excinfo.value.code == 2

    def test_mc_suite_small(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "mc", "--samples", "40000", "--seed", "42", "--streams", "4"
        )
        assert code == 0
        assert "mc-estimate" in out
        assert "OVERALL: PASS" in out

    def test_mc_suite_with_zero_standard_error(self, capsys):
        # one pair gives a standard error of 0 and no sample standard
        # deviation: the checks fail, nothing raises or warns
        code, out, _ = run_cli(capsys, "verify", "mc", "--samples", "1", "--streams", "1")
        assert code == 1
        assert "FAIL mc-estimate" in out
        assert "worst |pull| inf" in out
        assert "FAIL mc-sampler-moments" in out
        assert "no pull computed from fewer than 2 samples" in out
        assert "FAIL mc-exchangeability" in out
        assert "OVERALL: FAIL" in out

    def test_policy_flags_accepted(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "corollaries", "--max-terms", "20000", "--rel-tol", "1e-6")
        assert code == 0
        assert "comparator-forward" in out

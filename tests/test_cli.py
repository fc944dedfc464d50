import hashlib
import json

import pytest

from pballs.cli import CSV_HEADER, _parse_p, main

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
        message = {
            "0.5": "exponent must be >= 1, got 0.5",
            "nan": "bad exponent 'nan': not a number",
            "abc": "bad exponent 'abc': expected a decimal literal or 'inf'",
            "-inf": "bad exponent '-inf': use the token 'inf' for infinity",
            "infinity": "bad exponent 'infinity': use the token 'inf' for infinity",
        }[p]
        code, _, err = run_cli(capsys, "eval", "--n", "2", f"--p={p}")
        assert code == 2
        assert err == f"error: {message}\n"

    def test_bad_dimension_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--n", "0", "--p", "2")
        assert code == 2


EVAL_AS_SCAN_ARGS = [
    "--n 2 --p 2",
    "--n 3 --p inf --format json",
    "--n 7 --p 1.3 --samples 99999 --seed 11 --streams 3",
    "--n 100000 --p 2.5 --samples 64 --seed 2 --streams 2 --format json",
    "--n 1 --p 9",
    "--n 0 --p 2",
    "--n 2 --p=0.5",
    "--n 2 --p=nan",
    "--n 2 --p=infinity",
    "--n 2 --p 2 --samples 0",
    "--n 1000000 --p 1.0000001",
    "--n 5 --p 1.5 --samples 8 --streams 3",
]


class TestEvalIsScan:
    @pytest.mark.parametrize("args", EVAL_AS_SCAN_ARGS)
    def test_same_bytes_and_exit_code(self, capsys, args):
        assert run_cli(capsys, "eval", *args.split()) == run_cli(capsys, "scan", *args.split())

    def test_eval_takes_a_grid(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--n", "2..3", "--p", "1.5,2")
        assert code == 0
        header, *rows = out.splitlines()
        assert header == CSV_HEADER
        assert [row.split(",")[:2] for row in rows] == [["2", "1.5"], ["2", "2"], ["3", "1.5"], ["3", "2"]]

    def test_parse_helpers_raise_value_error(self):
        with pytest.raises(ValueError, match="^bad exponent 'nan': not a number$"):
            _parse_p("nan")


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

    @pytest.mark.parametrize(
        "n, message",
        [
            ("1..1000000000000000000", "exceeds the supported cap"),
            ("0..3", "must be >= 1"),
            *(
                (tok, f"bad dimension '{tok}': expected an integer or a range a..b")
                for tok in ("3..", "2..x", "..5", "2.5")
            ),
        ],
    )
    def test_range_ends_are_checked_before_expanding(self, capsys, n, message):
        # a range past the dimension cap is a usage error at once, not an
        # attempt to list every dimension in it
        code, out, err = run_cli(capsys, "scan", "--n", n, "--p", "2")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and message in err

    def test_repeated_exponent_is_judged_once(self, capsys):
        code, out, err = run_cli(capsys, "scan", "--n", "3", "--p", "1.5,1.5,2")
        assert code == 0
        assert len(out.strip().splitlines()) == 4
        assert err == "# ok: monotone nondecreasing on [1,2] for n=3\n"

    def test_one_distinct_exponent_gets_no_verdict(self, capsys):
        # both sides of 2 hold only the one result at p = 2: nothing to order
        code, out, err = run_cli(capsys, "scan", "--n", "3", "--p", "2,2")
        assert code == 0
        assert len(out.strip().splitlines()) == 3
        assert "#" not in err

    def test_repeated_dimension_is_judged_once(self, capsys):
        # every listed cell gets its row; each distinct dimension one verdict
        code, out, err = run_cli(capsys, "scan", "--n", "2..3,3", "--p", "1,2")
        assert code == 0
        assert [line.split(",")[0] for line in out.strip().splitlines()[1:]] == ["2", "2", "3", "3", "3", "3"]
        assert err == (
            "# ok: monotone nondecreasing on [1,2] for n=2\n"
            "# ok: monotone nondecreasing on [1,2] for n=3\n"
        )

    def test_empty_exponent_list_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "scan", "--n", "3", "--p", ",")
        assert code == 2
        assert out == ""
        assert err == "error: no exponents in ','\n"

    def test_exponent_just_above_one_keeps_its_own_p(self, capsys):
        # only p = 1 itself is the endpoint: 1.0000000000001 is its own exponent
        code, out, err = run_cli(capsys, "scan", "--n", "3", "--p", "1,1.0000000000001,1.5")
        assert code == 0
        assert [line.split(",")[1] for line in out.strip().splitlines()[1:]] == ["1", "1.0000000000000999", "1.5"]
        assert err == "# ok: monotone nondecreasing on [1,2] for n=3\n"

    @pytest.mark.parametrize(
        "p,samples",
        [("1.001,2,1000", "200000"), ("1.0000000000001", "40000")],
        ids=["large-p-and-just-above-1", "conjugate-near-1e13"],
    )
    def test_monte_carlo_agrees_at_large_p_and_just_above_1(self, capsys, p, samples):
        # Gamma(1/p) magnitudes underflowed to 0 here, at p or at its
        # conjugate, and biased f_mc low or made it exactly 0
        code, out, _ = run_cli(capsys, "scan", "--n", "3", "--p", p, "--samples", samples, "--seed", "1")
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert code == 0
        assert len(rows) == len(p.split(","))
        assert all(float(row[5]) > 0.0 and row[11] == "true" for row in rows)


class TestVerify:
    def test_named_suite(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "remark-limit")
        assert code == 0
        assert "PASS gamma-ratio-limit" in out
        assert "OVERALL: PASS" in out

    @pytest.mark.parametrize(
        "suite,digest",
        [
            ("routes", "78dd98c90b1d617f9b866b4c775ca1c14c4778caf8277224633de0fe52f0b971"),
            ("endpoints", "a1c7ec860bc0842fa9b5cf8dfca26f82776d299ed605c1d64c2d27180ef154a1"),
            ("monotonicity", "f1170731a07c499d104092e4204ea1061f6003385d8ad64e5be46e4c3a17304f"),
            ("remark-limit", "2bf97996a57be05b9ebafdfba71ea684a979ad6490a5a513d821d387412fbc92"),
            ("corollaries", "d633cf9facd9eb69ac3589ddb87c6ba507d55d3ef5025ad754f2cc656bd2ee1a"),
        ],
    )
    def test_suite_bytes(self, capsys, suite, digest):
        # sha256 of each deterministic suite's stdout: a speed-up keeps every byte
        code, out, err = run_cli(capsys, "verify", suite)
        assert (code, hashlib.sha256(out.encode()).hexdigest(), err) == (0, digest, "")

    def test_ineq3_bytes(self, capsys):
        code, out, err = run_cli(capsys, "verify", "ineq3")
        assert (code, err) == (0, "")
        assert out == (
            "PASS per-term-positivity: printed per-term polynomial on all real k>=1, n>=2, t>=0, "
            "expanded exactly at k=1+j, n=2+u: 89 monomials in (j,u,t), smallest coefficient 1, "
            "constant 329\nOVERALL: PASS (1/1 checks)\n"
        )

    def test_missing_suite(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify"])
        assert excinfo.value.code == 2

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
        assert "bands, worst |pull| nan" in out
        assert "OVERALL: FAIL" in out

    def test_format_is_a_usage_error(self, capsys):
        # verify prints PASS/FAIL text only; it has no --format to ignore
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "remark-limit", "--format", "json"])
        assert excinfo.value.code == 2

    def test_streams_not_dividing_samples_is_a_usage_error(self, capsys):
        # the MC settings are validated whole, also for a suite that does not sample
        code, out, err = run_cli(capsys, "verify", "endpoints", "--streams", "3")
        assert code == 2
        assert out == ""
        assert "must be divisible by streams" in err

    @pytest.mark.parametrize("flag", ["--max-terms=20000", "--rel-tol=1e-6"])
    def test_truncation_flags_are_usage_errors(self, capsys, flag):
        # the driver's limits are fixed constants, not options
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "corollaries", flag])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

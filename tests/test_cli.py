import math

import numpy as np
import pytest

from censlmm.cli import _build_parser, main, read_report
from censlmm.data import read_long_csv


def run(args):
    return main(args)


@pytest.fixture(scope="module")
def simulated_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "bench.csv"
    code = run(["simulate", "--output", str(path), "--target-censoring", "0.152",
                "--seed", "2024"])
    assert code == 0
    return path


@pytest.fixture(scope="module")
def uncensored_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "clean.csv"
    code = run(["simulate", "--output", str(path), "--threshold", "-1e10",
                "--n-subjects", "20", "--seed", "11"])
    assert code == 0
    return path


class TestArgumentParsing:
    REQUIRED = {"simulate": [], "fit": ["--input", "x.csv"], "compare": ["--input", "x.csv"]}

    @pytest.mark.parametrize("command", ["simulate", "fit", "compare"])
    @pytest.mark.parametrize("text,value", [("-1e10", -1e10), ("-1E+3", -1000.0),
                                            ("-2.5e-1", -0.25), ("-7", -7.0),
                                            ("-inf", -math.inf)])
    def test_negative_float_threshold(self, command, text, value):
        args = _build_parser().parse_args([command, *self.REQUIRED[command],
                                           "--threshold", text])
        assert args.threshold == value

    @pytest.mark.parametrize("command", ["simulate", "fit", "compare"])
    @pytest.mark.parametrize("text", ["nan", "NaN", "inf", "+inf"])
    def test_threshold_that_is_no_limit_is_a_usage_error(self, command, text, tmp_path, capsys):
        # neither is a detection limit: NaN would censor no row and +inf every row
        out = tmp_path / "out"
        assert run([command, *self.REQUIRED[command], "--output", str(out), "--threshold", text]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err[-1] == (f"censlmm {command}: error: argument --threshold: "
                           f"must be below inf, not {float(text):g}")
        assert not out.exists()

    def test_unreachable_target_censoring_is_a_one_line_error(self, tmp_path, capsys):
        # no limit within 10 SDs of the schedule's means censors 1e-300 of it
        out = tmp_path / "d.csv"
        assert run(["simulate", "--output", str(out), "--target-censoring", "1e-300"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: target 1e-300 outside") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "fit", "compare"])
    def test_option_after_threshold_is_not_a_value(self, command, capsys):
        code = run([command, *self.REQUIRED[command], "--threshold", "--seed", "1"])
        assert code == 1
        assert "--threshold: expected one argument" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["fit", "--bogus"], ["fit", "--input", "x.csv", "--bogus"],
                                      ["simulate", "--threshold", "low"], ["nosuch"], []])
    def test_usage_error_is_exit_1(self, argv, capsys):
        assert run(argv) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "fit", "compare"])
    def test_negative_seed_is_a_usage_error(self, command, tmp_path, capsys):
        out = tmp_path / "out"
        code = run([command, *self.REQUIRED[command], "--threshold", "2.9", "--output", str(out),
                    "--seed", "-1"])
        assert code == 1
        assert "argument --seed: must be nonnegative" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command,flag,value,message", [
        ("simulate", "--n-subjects", "0", "must be at least 1"),
        ("simulate", "--n-per-subject", "0", "must be at least 1"),
        ("simulate", "--target-censoring", "1.5", "must be strictly between 0 and 1"),
        ("simulate", "--target-censoring", "0", "must be strictly between 0 and 1"),
        ("fit", "--gh-order", "0", "must be at least 1"),
        ("compare", "--gh-order", "0", "must be at least 1"),
        ("fit", "--qtol", "-1", "must be positive"),
        ("compare", "--qtol", "0", "must be positive"),
        ("compare", "--tolerance", "-1", "must be nonnegative"),
        ("compare", "--tolerance", "nan", "must be nonnegative"),
    ])
    def test_value_the_library_rejects_is_a_usage_error(self, command, flag, value, message,
                                                        tmp_path, capsys):
        out = tmp_path / "out"
        argv = [command, *self.REQUIRED[command], "--output", str(out), flag, value]
        if command == "simulate" and flag != "--target-censoring":
            argv += ["--target-censoring", "0.2"]
        assert run(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert err[-1] == f"censlmm {command}: error: argument {flag}: {message}, not {value}"
        assert not out.exists()

    @pytest.mark.parametrize("flag", [["--gh-order", "3"], ["--qtol", "5"]])
    def test_simulate_takes_no_quadrature_settings(self, flag, tmp_path, capsys):
        # nothing in simulate reads them
        out = tmp_path / "d.csv"
        code = run(["simulate", "--threshold", "2.9", "--output", str(out), *flag])
        assert code == 1
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()

    def test_help_is_exit_0(self, capsys):
        assert run(["fit", "--help"]) == 0
        assert "--threshold" in capsys.readouterr().out


class TestSimulateCommand:
    def test_row_count(self, simulated_file):
        d = read_long_csv(simulated_file)
        assert d.n_rows == 250
        assert d.n_subjects == 50

    def test_single_replicate_fraction_plausible(self, simulated_file):
        d = read_long_csv(simulated_file)
        assert 0.05 < d.n_censored / d.n_rows < 0.30

    def test_deterministic_output(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["simulate", "--target-censoring", "0.2", "--seed", "4", "--n-subjects", "12"]
        assert run(args + ["--output", str(p1)]) == 0
        assert run(args + ["--output", str(p2)]) == 0
        assert p1.read_text() == p2.read_text()

    def test_requires_exactly_one_limit(self, tmp_path):
        code = run(["simulate", "--output", str(tmp_path / "x.csv")])
        assert code == 1

    def test_unwritable_output(self):
        code = run(["simulate", "--output", "/nonexistent-dir/x.csv",
                    "--target-censoring", "0.2"])
        assert code == 1


class TestFitCommand:
    def test_missing_input_is_exit_1(self, tmp_path):
        out = tmp_path / "report.txt"
        code = run(["fit", "--input", str(tmp_path / "absent.csv"), "--output", str(out)])
        assert code == 1
        assert not out.exists()

    def test_malformed_row_is_exit_1_naming_the_line(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("id,time,y,obs\n1,0,nan,1\n", encoding="utf-8")
        assert run(["fit", "--input", str(path)]) == 1
        assert capsys.readouterr().err == (
            "error: line 2: subject 1: observed response is not finite\n")

    def test_nonfinite_time_is_exit_1_naming_the_line(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("id,time,y,obs\n1,0,3.1,1\n1,inf,2.9,1\n", encoding="utf-8")
        assert run(["fit", "--input", str(path)]) == 1
        assert capsys.readouterr().err == "error: line 3: subject 1: time is not finite\n"

    def test_report_carries_the_stop_reason(self, simulated_file, tmp_path):
        out = tmp_path / "report.txt"
        assert run(["fit", "--input", str(simulated_file), "--output", str(out),
                    "--method", "naive"]) == 0
        record = read_report(out)[0]
        assert record["stop_reason"] == "function change and gradient norm below tolerance"

    def test_three_method_table(self, simulated_file, tmp_path, capsys):
        out = tmp_path / "report.txt"
        code = run(["fit", "--input", str(simulated_file), "--output", str(out),
                    "--method", "naive", "--method", "marginal", "--method", "agq"])
        assert code == 0
        records = read_report(out)
        assert [r["method"] for r in records] == ["naive", "marginal", "agq"]
        slopes = {r["method"]: float(r["est.slope"]) for r in records}
        assert slopes["naive"] < slopes["marginal"]
        assert slopes["naive"] < slopes["agq"]
        table = capsys.readouterr().out
        assert "naive" in table and "marginal" in table

    def test_uncensored_methods_coincide(self, uncensored_file, tmp_path):
        out = tmp_path / "report.txt"
        code = run(["fit", "--input", str(uncensored_file), "--output", str(out),
                    "--method", "naive", "--method", "marginal", "--method", "agq"])
        assert code == 0
        records = read_report(out)
        keys = [k for k in records[0] if k.startswith("est.")]
        for key in keys:
            vals = [float(r[key]) for r in records]
            assert max(vals) - min(vals) <= 1e-4, key

    def test_report_is_stable_given_seed(self, uncensored_file, tmp_path):
        outs = []
        for name in ("r1.txt", "r2.txt"):
            out = tmp_path / name
            code = run(["fit", "--input", str(uncensored_file), "--output", str(out),
                        "--method", "marginal", "--seed", "3"])
            assert code == 0
            outs.append(out.read_text())
        assert outs[0] == outs[1]

    def test_gh_order_pins_the_order(self, simulated_file, tmp_path):
        # the doubling rule accepts order 20 on this file; the pin is every subject's
        out = tmp_path / "report.txt"
        code = run(["fit", "--input", str(simulated_file), "--output", str(out),
                    "--method", "agq", "--gh-order", "5"])
        assert code == 0
        record = read_report(out)[0]
        assert (record["gh_order"], record["gh_orders"]) == ("5", "5:23")

    def test_agq_record_reports_the_orders(self, simulated_file, uncensored_file, tmp_path):
        # the 23 subjects with censored rows all stop at order 20
        out = tmp_path / "report.txt"
        assert run(["fit", "--input", str(simulated_file), "--output", str(out),
                    "--method", "agq"]) == 0
        record = read_report(out)[0]
        assert (record["gh_order"], record["gh_orders"]) == ("20", "20:23")
        # without censored rows there is no integral, and no order to report
        assert run(["fit", "--input", str(uncensored_file), "--output", str(out),
                    "--method", "agq"]) == 0
        assert not {"gh_order", "gh_orders"} & set(read_report(out)[0])


class TestCompareCommand:
    def test_benchmark_within_default_tolerance(self, simulated_file, tmp_path):
        out = tmp_path / "cmp.txt"
        code = run(["compare", "--input", str(simulated_file), "--output", str(out)])
        assert code == 0
        records = read_report(out)
        cmp_rec = records[-1]
        assert cmp_rec["record"] == "compare"
        assert float(cmp_rec["max_diff"]) <= 0.01
        assert cmp_rec["within_tolerance"] == "1"

    def test_uncensored_tight_agreement(self, uncensored_file, tmp_path):
        out = tmp_path / "cmp.txt"
        code = run(["compare", "--input", str(uncensored_file), "--output", str(out),
                    "--tolerance", "1e-4"])
        assert code == 0
        assert float(read_report(out)[-1]["max_diff"]) <= 1e-4

    def test_tiny_gh_order_flags_discrepancy_without_crash(self, simulated_file, tmp_path):
        out = tmp_path / "cmp.txt"
        code = run(["compare", "--input", str(simulated_file), "--output", str(out),
                    "--gh-order", "1", "--tolerance", "1e-6"])
        assert code in (0, 2)
        records = read_report(out)
        cmp_rec = records[-1]
        assert "max_diff" in cmp_rec
        # order 1 is a Laplace approximation: the report must expose the gap
        assert float(cmp_rec["max_diff"]) > 1e-6
        assert cmp_rec["within_tolerance"] == "0"
        assert code == 2

    def test_impossible_tolerance_exit_2(self, simulated_file, tmp_path):
        # censored data: without censoring both paths evaluate the same
        # Gaussian density and agree exactly, which meets any tolerance
        out = tmp_path / "cmp.txt"
        code = run(["compare", "--input", str(simulated_file), "--output", str(out),
                    "--tolerance", "1e-300"])
        assert code == 2

import argparse
import json
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from adaptive_conformal import election, hmm
from adaptive_conformal.cli import build_parser, main
from adaptive_conformal.core import AciConfig
from adaptive_conformal.election import generate_synthetic_counties
from adaptive_conformal.io import (
    json_text,
    read_trajectory,
    write_counties,
    write_prices,
    write_trajectory,
)
from adaptive_conformal.volatility import GarchParams, simulate_garch_prices


@pytest.fixture
def price_file(tmp_path):
    prices = simulate_garch_prices(260, GarchParams(2e-6, 0.08, 0.9), np.random.default_rng(5))
    path = tmp_path / "prices.csv"
    write_prices(path, [f"2015-{1 + i // 28:02d}-{1 + i % 28:02d}" for i in range(260)], prices)
    return path


def run(argv):
    return main(argv)


class TestExitCodes:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["frobnicate"])
        assert exc.value.code == 2

    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run(["report", "--in", "x.csv", "--frobnicate"])
        assert exc.value.code == 2

    def test_missing_file_is_data_error(self, tmp_path):
        assert run(["report", "--in", str(tmp_path / "missing.csv")]) == 1

    def test_infinite_step_size_is_data_error(self, tmp_path, price_file):
        assert run([
            "volatility", "--prices", str(price_file), "--window", "60",
            "--gamma", "inf", "--out", str(tmp_path / "out"),
        ]) == 1

    @pytest.mark.parametrize("command", [
        ["volatility", "--synthetic", "400", "--window", "100"],
        ["election", "--synthetic", "640", "--covariates", "3", "--warmup", "500"],
    ])
    def test_odd_local_window_fails_before_running(self, tmp_path, command):
        out = tmp_path / "out"
        assert run(command + ["--local-window", "51", "--out", str(out)]) == 1
        assert not out.exists()

    def test_non_finite_level_in_trajectory_is_data_error(self, tmp_path, capsys):
        from test_io import make_report

        path = tmp_path / "t.csv"
        write_trajectory(path, make_report(n=10), local_window=4)
        lines = path.read_text().splitlines()
        row = lines[3].split(",")
        row[2] = "nan"
        lines[3] = ",".join(row)
        path.write_text("\n".join(lines) + "\n")
        assert run(["report", "--in", str(path)]) == 1
        assert "line 4" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value", [
        ("--scales", "nan,1"), ("--means", "nan"), ("--means", "inf"),
        ("--qhat-mean", "nan"), ("--qhat-mean", "inf"), ("--qhat-scale", "inf"),
    ])
    def test_non_finite_simulate_parameter_is_data_error(self, tmp_path, capsys, flag, value):
        assert run(["simulate", "--horizon", "200", "--reps", "100", flag, value,
                    "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "out" / "theory.json").exists()

    @pytest.mark.parametrize("command", [
        ["simulate"],
        ["election", "--synthetic", "620", "--covariates", "3"],
        ["volatility", "--synthetic", "400", "--window", "100"],
    ])
    def test_negative_seed_is_usage_error(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            run(command + ["--seed", "-1", "--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: ")
        assert "argument --seed: must be a nonnegative integer, got -1" in err
        assert not out.exists()

    @pytest.mark.parametrize("flag,value", [
        ("--scales", "1,2"), ("--means", "0,1"), ("--scales", "1,2,3,4"),
    ])
    def test_per_state_list_of_wrong_length_is_data_error(self, tmp_path, capsys, flag, value):
        assert run(["simulate", "--states", "3", "--scales", "1", flag, value,
                    "--horizon", "200", "--reps", "100", "--out", str(tmp_path / "out")]) == 1
        count = len(value.split(","))
        assert capsys.readouterr().err == (
            f"error: {flag} has {count} values; need 1 or --states = 3\n")
        assert not (tmp_path / "out" / "theory.json").exists()

    SIMULATE_REJECTIONS = {
        "--gamma=0": "stationary runs need a positive step size",
        "--reps=99": "need at least 100 replications, got 99",
        "--horizon=0": "horizon must be >= 1, got 0",
        "--horizon=-3000": "horizon must be >= 1, got -3000",
        "--epsilon=inf": "epsilon must be finite and positive, got inf",
        "--lipschitz=inf": "lipschitz must be finite and positive, got inf",
    }

    @pytest.mark.parametrize("flag", SIMULATE_REJECTIONS)
    def test_rejected_simulate_argument_fails_before_simulating(self, tmp_path, capsys,
                                                                monkeypatch, flag):
        def no_simulation(*args):
            raise AssertionError(f"simulated a run with {flag}")

        monkeypatch.setattr(hmm, "_blocks", no_simulation)
        out = tmp_path / "out"
        assert run(["simulate", "--horizon", "200", "--reps", "100", flag,
                    "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {self.SIMULATE_REJECTIONS[flag]}\n"
        assert not out.exists()

    def test_empty_epsilon_list_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            run(["simulate", "--epsilon", "", "--out", str(out)])
        assert exc.value.code == 2
        assert "argument --epsilon: needs at least one number" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags", [
        ["--refit-every", "0"], ["--window", "5"],
        ["--window", "100", "--decay", "7"], ["--window", "100", "--decay", "nan"],
    ])
    def test_rejected_volatility_run_leaves_no_output_directory(self, tmp_path, price_file,
                                                                flags):
        out = tmp_path / "out"
        assert run(["volatility", "--prices", str(price_file), *flags, "--out", str(out)]) == 1
        assert not out.exists()

    @pytest.mark.parametrize("flags", [
        ["--cal-frac", "1.5"], ["--warmup", "700"], ["--sigma", "-1"],
    ])
    def test_rejected_election_run_leaves_no_output_directory(self, tmp_path, flags):
        counties = tmp_path / "counties.csv"
        write_counties(counties, generate_synthetic_counties(640, 3, seed=0))
        out = tmp_path / "out"
        assert run(["election", "--counties", str(counties), *flags, "--out", str(out)]) == 1
        assert not out.exists()

    @pytest.mark.parametrize("flags", [
        ["--p", "1.5"], ["--states", "3"], ["--epsilon", "inf"],
    ])
    def test_rejected_simulate_run_leaves_no_output_directory(self, tmp_path, flags):
        out = tmp_path / "out"
        assert run(["simulate", "--horizon", "200", "--reps", "100", *flags,
                    "--out", str(out)]) == 1
        assert not out.exists()

    @pytest.mark.parametrize("gamma", ["1e-300", "5e-324"])
    def test_tiny_step_size_fails_before_simulating(self, tmp_path, capsys, monkeypatch, gamma):
        def no_simulation(*args):
            raise AssertionError("simulated a run whose burn-in is too long")

        monkeypatch.setattr(hmm, "_blocks", no_simulation)
        assert run(["simulate", "--gamma", gamma, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: a burn-in of 20 / gamma") and err.count("\n") == 1

    def test_overflowing_scores_fail_on_one_line_naming_their_position(self, tmp_path, capsys):
        assert run(["simulate", "--scales", "1e308,1", "--horizon", "50", "--reps", "100",
                    "--gamma", "0.5", "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: scores must be finite; replication ")
        assert err.count("\n") == 1
        rep, step = map(int, re.search(r"replication (\d+), step (\d+) is", err).groups())
        # The step counts the burn-in of 20 / gamma = 40 steps.
        spec = hmm.HmmSpec(hmm.symmetric_chain(2, 0.95), np.zeros(2), np.array([1e308, 1.0]))
        _, scores = hmm.simulate_hmm_batch(spec, 40 + 50, 100, np.random.default_rng(0))
        assert not np.isfinite(scores[rep - 1, step - 1])

    @pytest.mark.parametrize("flags", [["--qhat-scale", "1e-308"],
                                       ["--means", "1e308,0", "--qhat-mean=-1e308"]])
    def test_overflowing_score_levels_run_silently(self, tmp_path, capsys, flags):
        # (score - mean) / scale overflows to +-inf, whose normal CDF is 1 or 0.
        assert run(["simulate", *flags, "--horizon", "50", "--reps", "100", "--gamma", "0.5",
                    "--out", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("command,code", [
        pytest.param(["election", "--synthetic", "620", "--covariates", "3",
                      "--refit-every", "30", "--alpha", "1e-300"], 1, id="election-alpha-1e-300"),
        pytest.param(["election", "--synthetic", "620", "--covariates", "3",
                      "--refit-every", "30", "--alpha", "0.999999999"], 0,
                     id="election-alpha-0.999999999"),
        pytest.param(["volatility", "--synthetic", "300", "--window", "100",
                      "--refit-every", "50", "--gamma", "1e308"], 0, id="volatility-gamma-1e308"),
        pytest.param(["simulate", "--qhat-scale", "1e-320", "--horizon", "200", "--reps", "100"],
                     0, id="simulate-qhat-scale-1e-320"),
    ])
    def test_extreme_valid_flags_print_no_warnings(self, tmp_path, capsys, command, code):
        assert run(command + ["--out", str(tmp_path / "out")]) == code
        err = capsys.readouterr().err
        if code == 0:
            assert err == ""
        else:
            assert err.startswith("error: ") and err.count("\n") == 1

    def test_out_of_memory_is_data_error(self, tmp_path, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 3.58 TiB for an array")

        monkeypatch.setattr(hmm, "theory_suite", exhausted)
        assert run(["simulate", "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory") and err.count("\n") == 1

    @pytest.mark.parametrize("command,name,text", [
        pytest.param(["volatility", "--window", "60"], "prices.csv",
                     b"date,open\n2020-01-01,10\n2020-01-02,1\xff\n", id="prices-not-utf8"),
        pytest.param(["election", "--warmup", "500"], "counties.csv",
                     b"id,population,x1,y_prev,y\nc1,10,0.5,5,6\nc2,inf,0.5,5,6\n",
                     id="counties-infinite-population"),
    ])
    def test_bad_input_file_is_data_error(self, tmp_path, capsys, command, name, text):
        path = tmp_path / name
        path.write_bytes(text)
        source = "--prices" if command[0] == "volatility" else "--counties"
        assert run(command + [source, str(path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith("error: line 3: ")

    @pytest.mark.parametrize("command,text,line", [
        pytest.param(["volatility", "--window", "60", "--prices"],
                     "date,open\n2020-01-01,10\n2020-01-02,{field}\n", 3, id="volatility"),
        pytest.param(["election", "--warmup", "500", "--counties"],
                     "id,population,x1,y_prev,y\nc1,10,0.5,5,6\nc2,{field},0.5,5,6\n", 3,
                     id="election"),
        pytest.param(["report", "--in"],
                     "# aci target_miscoverage=0.1 step_size=0.005 initial_level=0.1 "
                     "update_rule=simple decay=0.95\n# run local_window=4\n"
                     "t,label,alpha_t,err,lower,upper,local_cov\n1,{field},0.1,0,0,1,\n", 4,
                     id="report"),
    ])
    def test_field_over_csv_limit_is_a_one_line_error(self, tmp_path, capsys, command, text,
                                                      line):
        path = tmp_path / "input.csv"
        path.write_text(text.format(field="9" * 131073))
        assert run(command + [str(path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err == f"error: line {line}: field larger than field limit (131072)\n"
        assert "Traceback" not in err

    @pytest.mark.parametrize("flag,value,message", [
        ("--warmup", "-5", "warmup = -5 with cal_frac = 0.25"),
        ("--cal-frac", "0.999", "warmup = 500 with cal_frac = 0.999"),
    ])
    def test_election_split_checked_before_fitting(self, tmp_path, capsys, flag, value,
                                                   message):
        assert run(["election", "--synthetic", "640", "--covariates", "3", flag, value,
                    "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1

    def test_failed_garch_refit_names_its_step_and_writes_nothing(self, tmp_path, capsys):
        # Flat prices from day 100 on make the refit window of step 100 degenerate.
        head = simulate_garch_prices(100, GarchParams(2e-6, 0.08, 0.9), np.random.default_rng(11))
        prices = tmp_path / "prices.csv"
        write_prices(prices, [f"2015-{1 + i // 28:02d}-{1 + i % 28:02d}" for i in range(200)],
                     np.concatenate([head, np.full(100, head[-1])]))
        out = tmp_path / "out"
        assert run(["volatility", "--prices", str(prices), "--window", "60",
                    "--refit-every", "5", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: GARCH refit failed at step 100: ")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_failed_quantile_regression_refit_names_its_step(self, tmp_path, capsys,
                                                             monkeypatch):
        monkeypatch.setattr(election, "MAX_ITERATIONS", 0)
        counties = tmp_path / "counties.csv"
        write_counties(counties, generate_synthetic_counties(560, 3, seed=0))
        out = tmp_path / "out"
        assert run(["election", "--counties", str(counties), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == ("error: quantile-regression refit failed at step 0: "
                       "no convergence in 0 iterations\n")
        assert not out.exists()

    def test_malformed_file_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("date,close\n2020-01-01,5\n")
        assert run([
            "volatility", "--prices", str(bad), "--window", "60",
            "--out", str(tmp_path / "out"),
        ]) == 1


class TestVolatilityCommand:
    def test_runs_and_summary_is_consistent(self, tmp_path, price_file):
        out = tmp_path / "out"
        code = run([
            "volatility", "--prices", str(price_file), "--window", "60",
            "--refit-every", "20", "--local-window", "50", "--seed", "3",
            "--out", str(out),
        ])
        assert code == 0
        report, window = read_trajectory(out / "trajectory.csv")
        assert window == 50
        assert len(report) == 259 - 60
        summary = json.loads((out / "summary.json").read_text())
        assert summary["prop_bound_satisfied"] is True
        assert summary["n_steps"] == len(report)

    def test_synthetic_source(self, tmp_path):
        common = ["volatility", "--window", "100", "--refit-every", "50", "--seed", "9"]
        synthetic, replayed = tmp_path / "synthetic", tmp_path / "replayed"
        assert run(common + ["--synthetic", "400", "--out", str(synthetic)]) == 0
        prices = synthetic / "prices.csv"
        assert run(common + ["--prices", str(prices), "--out", str(replayed)]) == 0
        for name in ("trajectory.csv", "summary.json"):
            assert (synthetic / name).read_bytes() == (replayed / name).read_bytes()

    def test_weighted_update_rule(self, tmp_path, price_file):
        out_s, out_w = tmp_path / "s", tmp_path / "w"
        common = ["volatility", "--prices", str(price_file), "--window", "60",
                  "--refit-every", "20", "--seed", "1"]
        assert run(common + ["--out", str(out_s)]) == 0
        assert run(common + ["--update", "weighted", "--decay", "0.9", "--out", str(out_w)]) == 0
        simple, _ = read_trajectory(out_s / "trajectory.csv")
        weighted, _ = read_trajectory(out_w / "trajectory.csv")
        assert weighted.config_echo.update_rule == "weighted"
        assert weighted.config_echo.decay == 0.9
        assert not np.array_equal(simple.alphas, weighted.alphas)
        summary = json.loads((out_w / "summary.json").read_text())
        assert summary["prop_bound_value"] is None
        assert summary["prop_bound_satisfied"] is None

    def test_huge_step_size_meets_its_bound(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(["volatility", "--synthetic", "300", "--window", "100", "--refit-every", "50",
                    "--gamma", "1e308", "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["prop_bound_value"] == pytest.approx(1 / summary["n_steps"], rel=1e-11)
        assert summary["prop_bound_satisfied"] is True
        assert run(["report", "--in", str(out / "trajectory.csv")]) == 0
        assert json.loads(capsys.readouterr().out) == summary

    @pytest.mark.parametrize("seed", ["0", "2", "5"])
    def test_short_window_refits_converge(self, tmp_path, seed):
        # Each seed has a 100-return window where scoring alone stalls at omega -> 0
        # (seeds 0 and 2) or zigzags along a flat ridge (seed 5).
        assert run(["volatility", "--synthetic", "400", "--window", "100", "--seed", seed,
                    "--out", str(tmp_path / "out")]) == 0


class TestElectionCommand:
    def test_synthetic_run(self, tmp_path):
        out = tmp_path / "out"
        code = run([
            "election", "--synthetic", "640", "--covariates", "3",
            "--warmup", "500", "--refit-every", "40", "--sigma", "inf",
            "--seed", "11", "--out", str(out),
        ])
        assert code == 0
        report, window = read_trajectory(out / "trajectory.csv")
        assert window == 300
        assert len(report) == 140
        assert (out / "counties.csv").exists()

    def test_synthetic_counties_round_trip(self, tmp_path):
        # The synthetic run uses the counties read back from its own file, so
        # feeding that file to --counties reproduces every output byte.
        common = ["election", "--warmup", "500", "--refit-every", "30", "--sigma", "inf",
                  "--seed", "5"]
        synthetic, replayed = tmp_path / "synthetic", tmp_path / "replayed"
        assert run(common + ["--synthetic", "620", "--covariates", "3",
                             "--out", str(synthetic)]) == 0
        counties = synthetic / "counties.csv"
        assert run(common + ["--counties", str(counties), "--out", str(replayed)]) == 0
        for name in ("trajectory.csv", "summary.json"):
            assert (synthetic / name).read_bytes() == (replayed / name).read_bytes()

    def test_labels_with_commas_and_quotes_round_trip(self, tmp_path):
        counties = [replace(c, id=f'county-{i:05d}, "NM"')
                    for i, c in enumerate(generate_synthetic_counties(560, 2, seed=3))]
        path, out = tmp_path / "counties.csv", tmp_path / "out"
        write_counties(path, counties)
        assert run(["election", "--counties", str(path), "--warmup", "500",
                    "--refit-every", "30", "--seed", "3", "--out", str(out)]) == 0
        assert run(["report", "--in", str(out / "trajectory.csv")]) == 0
        report, _ = read_trajectory(out / "trajectory.csv")
        assert len(report) == 60
        assert set(report.step_labels) <= {c.id for c in counties}


class TestSimulateCommand:
    def test_theory_report_fields(self, tmp_path):
        out = tmp_path / "out"
        code = run([
            "simulate", "--states", "2", "--p", "0.9", "--scales", "1,2",
            "--horizon", "400", "--reps", "120", "--epsilon", "0.05",
            "--gamma", "0.02", "--seed", "2", "--out", str(out),
        ])
        assert code == 0
        payload = json.loads((out / "theory.json").read_text())
        assert set(payload) >= {"b_hat", "sigma_b2_hat", "spectral_gap",
                                "alpha_star_by_state", "bound_values"}
        assert payload["sigma_b2_hat"] <= payload["b_hat"] ** 2 + 1e-12
        assert payload["spectral_gap"] == pytest.approx(0.2, abs=1e-9)
        assert "large_deviation_rhs_eps_0.05" in payload["bound_values"]
        assert "empirical_exceedance_eps_0.05" in payload["bound_values"]


    SMALL_RUN = ["simulate", "--horizon", "200", "--reps", "100", "--epsilon", "0.05",
                 "--gamma", "0.05", "--seed", "4"]

    def test_theory_file_is_the_suite_record(self, tmp_path):
        out = tmp_path / "out"
        assert run(self.SMALL_RUN + ["--out", str(out)]) == 0
        spec = hmm.HmmSpec(hmm.symmetric_chain(2, 0.95), np.zeros(2), np.array([1.0, 2.0]))
        record = hmm.theory_suite(spec, hmm.NormalQuantile(), AciConfig(0.1, 0.05), reps=100,
                                  horizon=200, epsilons=[0.05], rng=np.random.default_rng(4))
        assert (out / "theory.json").read_bytes() == json_text(record).encode("utf-8")

    def test_config_echo_names_the_level_rule(self, tmp_path):
        simple, weighted = tmp_path / "simple", tmp_path / "weighted"
        assert run(self.SMALL_RUN + ["--out", str(simple)]) == 0
        assert run(self.SMALL_RUN + ["--update", "weighted", "--decay", "0.9",
                                     "--out", str(weighted)]) == 0
        configs = [json.loads((out / "theory.json").read_text())["config"]
                   for out in (simple, weighted)]
        assert configs[0] == {"alpha": 0.1, "gamma": 0.05, "initial_level": 0.1,
                              "update_rule": "simple", "decay": 0.95, "horizon": 200,
                              "reps": 100}
        assert configs[1] == {**configs[0], "update_rule": "weighted", "decay": 0.9}


class TestReportCommand:
    def test_all_covered_file(self, tmp_path, capsys):
        from test_io import make_report  # reuse the synthetic builder

        report = make_report(n=40, seed=1)
        object.__setattr__(report, "errs", np.zeros(40, dtype=np.int8))
        path = tmp_path / "t.csv"
        write_trajectory(path, report, local_window=20)
        assert run(["report", "--in", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["average_coverage"] == 1.0

    def test_out_file(self, tmp_path):
        from test_io import make_report

        path = tmp_path / "t.csv"
        write_trajectory(path, make_report(n=30, seed=2), local_window=10)
        dest = tmp_path / "summary.json"
        assert run(["report", "--in", str(path), "--out", str(dest)]) == 0
        assert json.loads(dest.read_text())["n_steps"] == 30

    @pytest.mark.parametrize("window", ["1", "-4", "0", "1001"])
    def test_invalid_window_is_data_error(self, tmp_path, capsys, window):
        from test_io import make_report

        path = tmp_path / "t.csv"
        write_trajectory(path, make_report(n=30, seed=2), local_window=10)
        assert run(["report", "--in", str(path), "--window", window]) == 1
        assert "window must be a positive even integer" in capsys.readouterr().err

    def test_file_without_window_falls_back_to_default(self, tmp_path, capsys):
        from test_io import make_report

        path = tmp_path / "t.csv"
        write_trajectory(path, make_report(n=30, seed=2), local_window=10)
        lines = [l for l in path.read_text().splitlines() if not l.startswith("# run")]
        path.write_text("\n".join(lines) + "\n")
        assert run(["report", "--in", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["local_window"] == 500

    @pytest.mark.parametrize("valid", ["true", "false"])
    def test_file_with_a_valid_token_reads_as_without_it(self, tmp_path, capsys, valid):
        # Older writers ended the ``# run`` line with ``valid=true`` or ``valid=false``.
        from test_io import make_report

        path, old = tmp_path / "t.csv", tmp_path / "old.csv"
        write_trajectory(path, make_report(n=30, seed=2), local_window=10)
        text = path.read_text()
        assert "# run local_window=10\n" in text
        old.write_text(text.replace("local_window=10", f"local_window=10 valid={valid}"))
        assert read_trajectory(old) == read_trajectory(path)
        outputs = []
        for trajectory in (path, old):
            assert run(["report", "--in", str(trajectory)]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("flags", [
        pytest.param(["--alpha", "0.9999999999999"], id="alpha"),
        pytest.param(["--update", "weighted", "--decay", "0.9999999999999"], id="decay"),
    ])
    def test_full_precision_config_reads_back(self, tmp_path, flags):
        out = tmp_path / "out"
        assert run(["volatility", "--synthetic", "300", "--window", "100", "--refit-every",
                    "100", "--out", str(out)] + flags) == 0
        assert run(["report", "--in", str(out / "trajectory.csv")]) == 0
        report, _ = read_trajectory(out / "trajectory.csv")
        assert 0.9999999999999 in (report.config_echo.target_miscoverage,
                                   report.config_echo.decay)

    def test_window_override(self, tmp_path):
        from test_io import make_report

        path = tmp_path / "t.csv"
        write_trajectory(path, make_report(n=30, seed=2), local_window=10)
        dest = tmp_path / "summary.json"
        assert run(["report", "--in", str(path), "--window", "20", "--out", str(dest)]) == 0
        assert json.loads(dest.read_text())["local_window"] == 20


class TestDocumentation:
    def test_readme_mentions_every_flag(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        commands = next(a for a in build_parser()._actions
                        if isinstance(a, argparse._SubParsersAction)).choices
        missing = [f"aci {name} {flag}" for name, sub in commands.items()
                   for action in sub._actions for flag in action.option_strings
                   if flag.startswith("--") and flag != "--help"
                   and not re.search(rf"(?<![\w-]){flag}(?![\w-])", readme)]
        assert not missing, f"README.md does not mention {', '.join(missing)}"


class TestLoggingEnv:
    def test_unknown_level_warns(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("ACI_LOG", "chatty")
        run(["report", "--in", str(tmp_path / "missing.csv")])
        assert "unknown ACI_LOG" in capsys.readouterr().err


class TestDeterminism:
    def test_synthetic_volatility_byte_identical(self, tmp_path):
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert run([
                "volatility", "--synthetic", "300", "--window", "80",
                "--refit-every", "40", "--seed", "7", "--out", str(out),
            ]) == 0
            outs.append(out)
        for fname in ("prices.csv", "trajectory.csv", "summary.json"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    def test_election_and_simulate_byte_identical(self, tmp_path):
        for cmd in (
            ["election", "--synthetic", "560", "--covariates", "2", "--warmup", "500",
             "--refit-every", "30", "--sigma", "2e-4", "--seed", "13"],
            ["simulate", "--states", "2", "--p", "0.9", "--horizon", "300",
             "--reps", "100", "--seed", "3"],
        ):
            blobs = []
            for name in ("x", "y"):
                out = tmp_path / (cmd[0] + name)
                assert run(cmd + ["--out", str(out)]) == 0
                blobs.append(b"".join(sorted(p.read_bytes() for p in out.iterdir())))
            assert blobs[0] == blobs[1]

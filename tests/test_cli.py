import json

import numpy as np
import pytest

from adaptive_conformal.cli import main
from adaptive_conformal.io import read_trajectory, write_prices, write_trajectory
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

    def test_fixed_method_aliases_zero_gamma(self, tmp_path, price_file):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        common = ["volatility", "--prices", str(price_file), "--window", "60",
                  "--refit-every", "20", "--seed", "1"]
        assert run(common + ["--gamma", "0", "--out", str(out_a)]) == 0
        assert run(common + ["--method", "fixed", "--out", str(out_b)]) == 0
        assert (out_a / "trajectory.csv").read_bytes() == (out_b / "trajectory.csv").read_bytes()
        assert (out_a / "summary.json").read_bytes() == (out_b / "summary.json").read_bytes()

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

    def test_window_override(self, tmp_path):
        from test_io import make_report

        path = tmp_path / "t.csv"
        write_trajectory(path, make_report(n=30, seed=2), local_window=10)
        dest = tmp_path / "summary.json"
        assert run(["report", "--in", str(path), "--window", "20", "--out", str(dest)]) == 0
        assert json.loads(dest.read_text())["local_window"] == 20


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

import logging
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import approx_fprime

from adaptive_conformal import volatility
from adaptive_conformal.conformal import PredictionInterval
from adaptive_conformal.core import AciConfig
from adaptive_conformal.errors import (
    ConfigurationError,
    ConvergenceError,
    DegenerateDataError,
    DomainError,
    ExperimentAborted,
    NoDataError,
)
from adaptive_conformal.volatility import (
    GarchFit,
    GarchParams,
    _nll_and_grad,
    _pack,
    default_regime_prices,
    fit_garch,
    forecast_next_sigma2,
    forecast_stream,
    garch_neg_loglik,
    garch_sigma2_path,
    replay_forecast_stream,
    returns_from_prices,
    run_volatility_experiment,
    simulate_garch_prices,
    simulate_garch_returns,
)


class TestReturns:
    def test_simple_returns(self):
        np.testing.assert_allclose(
            returns_from_prices([100.0, 110.0, 99.0]), [0.10, -0.10], atol=1e-15
        )

    def test_flat_prices(self):
        np.testing.assert_array_equal(returns_from_prices([50.0, 50.0]), [0.0])

    def test_nonpositive_price(self):
        with pytest.raises(DomainError):
            returns_from_prices([100.0, -1.0])

    def test_too_short(self):
        with pytest.raises(NoDataError):
            returns_from_prices([100.0])


class TestParams:
    @pytest.mark.parametrize(
        "omega,a,b",
        [(0.0, 0.1, 0.1), (-0.1, 0.1, 0.1), (0.1, -0.1, 0.1), (0.1, 0.1, -0.1), (0.1, 0.5, 0.5)],
    )
    def test_invalid(self, omega, a, b):
        with pytest.raises(ConfigurationError):
            GarchParams(omega, a, b)

    def test_unconditional_variance(self):
        assert GarchParams(0.05, 0.10, 0.85).unconditional_variance == pytest.approx(1.0)


class TestVariancePath:
    def test_matches_scalar_recursion(self):
        rng = np.random.default_rng(0)
        p = GarchParams(0.1, 0.2, 0.7)
        rets = rng.normal(size=200)
        path = garch_sigma2_path(p, rets)
        expect = [float(np.var(rets))]
        for t in range(1, 200):
            expect.append(0.1 + 0.2 * rets[t - 1] ** 2 + 0.7 * expect[-1])
        np.testing.assert_allclose(path, expect, rtol=1e-12)

    def test_positive_for_valid_params(self):
        rng = np.random.default_rng(1)
        p = GarchParams(1e-5, 0.05, 0.9)
        path = garch_sigma2_path(p, rng.normal(scale=0.01, size=500))
        assert np.all(path > 0)

    def test_underflow_raises(self):
        p = GarchParams(1e-18, 0.0, 0.0)
        with pytest.raises(DomainError):
            garch_sigma2_path(p, np.array([0.0, 0.0, 0.0]))


class TestNegLoglik:
    def test_single_zero_return_unit_variance(self):
        p = GarchParams(1.0, 0.0, 0.0)
        val = garch_neg_loglik(p, np.array([0.0]), sigma2_init=1.0)
        assert val == pytest.approx(0.5 * math.log(2 * math.pi), abs=1e-12)

    def test_single_unit_return_unit_variance(self):
        p = GarchParams(1.0, 0.0, 0.0)
        val = garch_neg_loglik(p, np.array([1.0]), sigma2_init=1.0)
        assert val == pytest.approx(0.5 * (math.log(2 * math.pi) + 1.0), abs=1e-12)

    def test_three_step_recursion_oracle(self):
        # Frozen from an arbitrary-precision evaluation of the recursion with
        # sigma_1^2 = population variance of the window:
        # sigma^2 = [0.0238888..., 0.1187222..., 0.1911055...],
        # nll = -0.56667360909456645519.
        p = GarchParams(0.1, 0.2, 0.7)
        val = garch_neg_loglik(p, np.array([0.1, -0.2, 0.15]))
        assert val == pytest.approx(-0.5666736090945665, abs=1e-12)


class TestForecast:
    @pytest.mark.parametrize(
        "params,v,s2,expected",
        [
            ((0.1, 0.2, 0.7), 1.0, 2.0, 1.7),
            ((0.05, 0.0, 0.0), 3.0, 9.0, 0.05),
            ((0.1, 0.2, 0.7), 0.0, 0.5, 0.45),
        ],
    )
    def test_values(self, params, v, s2, expected):
        assert forecast_next_sigma2(GarchParams(*params), v, s2) == pytest.approx(expected)


class TestFit:
    def test_recovers_simulation_parameters(self):
        true = GarchParams(0.05, 0.10, 0.85)
        hits = 0
        for seed in (3, 4, 5):
            rets = simulate_garch_returns(5000, true, np.random.default_rng(seed))
            fit = fit_garch(rets)
            hits += (
                abs(fit.params.omega - 0.05) <= 0.05
                and abs(fit.params.arch_coef - 0.10) <= 0.05
                and abs(fit.params.garch_coef - 0.85) <= 0.05
            )
        assert hits >= 2

    def test_iid_returns_fit_stays_honest(self):
        # On i.i.d. data the (arch, garch) pair is only identified through the
        # constant-variance ridge, so assert the stable functionals: no
        # spurious ARCH effect, a variance path near 1, and a likelihood no
        # worse than the true i.i.d. model's.
        rets = np.random.default_rng(5).standard_normal(5000)
        fit = fit_garch(rets)
        assert fit.params.arch_coef <= 0.1
        assert abs(float(np.mean(fit.sigma2_path)) - 1.0) <= 0.1
        v = float(np.var(rets))
        iid_nll = float(0.5 * np.sum(np.log(2 * math.pi * v) + rets**2 / v))
        assert fit.neg_loglik <= iid_nll + 1e-6

    def test_constant_returns_degenerate(self):
        with pytest.raises(DegenerateDataError):
            fit_garch(np.full(100, 0.01))

    def test_short_series_rejected(self):
        with pytest.raises(NoDataError):
            fit_garch(np.random.default_rng(0).normal(size=20))

    def test_deterministic(self):
        rets = simulate_garch_returns(800, GarchParams(0.05, 0.1, 0.85), np.random.default_rng(9))
        f1, f2 = fit_garch(rets), fit_garch(rets)
        assert f1.params == f2.params and f1.neg_loglik == f2.neg_loglik

    def test_reported_loglik_matches_params(self):
        rets = simulate_garch_returns(600, GarchParams(0.05, 0.1, 0.85), np.random.default_rng(2))
        fit = fit_garch(rets)
        assert isinstance(fit, GarchFit)
        assert fit.neg_loglik == pytest.approx(garch_neg_loglik(fit.params, rets), rel=1e-9)
        np.testing.assert_allclose(fit.sigma2_path, garch_sigma2_path(fit.params, rets))

    def test_fit_beats_every_start_point(self):
        rets = simulate_garch_returns(800, GarchParams(0.05, 0.1, 0.85), np.random.default_rng(6))
        fit = fit_garch(rets)
        v = float(np.var(rets))
        for a0, b0 in [(0.05, 0.90), (0.10, 0.80), (0.20, 0.40)]:
            start = GarchParams(v * (1 - a0 - b0), a0, b0)
            assert fit.neg_loglik <= garch_neg_loglik(start, rets) + 1e-9

    @pytest.mark.parametrize("case", range(12))
    def test_gradient_matches_finite_differences(self, case):
        # Cases cycle through interior parameters, a + b within 1e-6..1e-3 of
        # 1, and omega between 1e-25 and 1e-12.
        rng = np.random.default_rng(100 + case)
        rets = simulate_garch_returns(int(rng.integers(30, 400)), GarchParams(1e-5, 0.08, 0.9),
                                      rng)
        s0 = float(np.var(rets))
        a = rng.uniform(0.02, 0.3)
        omega, b = [(s0 * rng.uniform(0.05, 1.0), rng.uniform(0.01, 0.6)),
                    (s0 * 1e-3, 1.0 - a - 10 ** rng.uniform(-6, -3)),
                    (10 ** rng.uniform(-25, -12), rng.uniform(0.5, 0.65))][case % 3]
        x = _pack(omega, a, b)
        _, grad = _nll_and_grad(x, rets, s0)
        ref = approx_fprime(x, lambda y: _nll_and_grad(y, rets, s0)[0], 1e-7)
        assert np.max(np.abs(grad - ref)) <= 1e-5 * np.max(np.abs(ref))
        # d nll / d omega itself, which the boundary test reads, on the data's scale.
        ref_omega = approx_fprime([omega], lambda w: _nll_and_grad(_pack(w[0], a, b), rets,
                                                                   s0)[0], 1e-8 * s0)
        assert grad[0] / omega == pytest.approx(ref_omega[0], rel=1e-5)

    def test_regime_window_fit_keeps_omega_off_zero(self):
        # A refit window of the bundled regime series where a search that
        # tested only the log-omega gradient stopped at omega ~ 5e-23, a + b
        # at 1, several nats worse than the interior optimum.
        rets = returns_from_prices(default_regime_prices(2600, np.random.default_rng(201)))
        fit = fit_garch(rets[210:2210])
        assert fit.params.omega > 1e-9

    def test_search_stalled_at_zero_omega_is_rejected(self, monkeypatch):
        # Every search starts at that stalled point, where BFGS stops at once:
        # its gradient in the search coordinates is ~2e-6, but raising omega
        # gains about 0.85 on the data's scale.
        rets = returns_from_prices(default_regime_prices(2600, np.random.default_rng(201)))
        stalled = _pack(4.8e-23, 0.07199822713703474, 0.9280017727629652)
        search = volatility.minimize
        monkeypatch.setattr(volatility, "minimize", lambda f, x0, **kw: search(f, stalled, **kw))
        with pytest.raises(ConvergenceError, match="raising omega") as err:
            fit_garch(rets[210:2210])
        assert err.value.best.params.omega < 1e-20

    def test_convergence_error_carries_best_fit(self):
        rets = simulate_garch_returns(500, GarchParams(0.05, 0.1, 0.85), np.random.default_rng(3))
        with pytest.raises(ConvergenceError) as err:
            fit_garch(rets, max_iter=1)
        assert isinstance(err.value.best, GarchFit)


class TestSimulation:
    def test_deterministic_given_seed(self):
        p = GarchParams(2e-6, 0.08, 0.9)
        a = simulate_garch_prices(300, p, np.random.default_rng(7))
        b = simulate_garch_prices(300, p, np.random.default_rng(7))
        np.testing.assert_array_equal(a, b)

    def test_regime_switch_changes_scale(self):
        quiet = GarchParams(1e-6, 0.05, 0.9)
        loud = GarchParams(1e-4, 0.05, 0.9)
        rets = simulate_garch_returns(4000, [(0, quiet), (2000, loud)], np.random.default_rng(3))
        assert np.std(rets[2500:]) > 3 * np.std(rets[:1500])


class TestExperiment:
    CONFIG = AciConfig(0.1, 0.005)
    PARAMS = GarchParams(2e-6, 0.08, 0.90)

    def _prices(self, n, seed=11):
        return simulate_garch_prices(n, self.PARAMS, np.random.default_rng(seed))

    def test_step_count_bookkeeping(self):
        window, extra = 60, 25
        prices = self._prices(window + 1 + extra)
        report = run_volatility_experiment(prices, self.CONFIG, window=window, refit_every=10)
        assert len(report) == extra
        assert report.valid

    def test_too_short_series(self):
        with pytest.raises(NoDataError):
            run_volatility_experiment(self._prices(50), self.CONFIG, window=60)

    def test_frozen_level_baseline(self):
        prices = self._prices(200)
        frozen = AciConfig(0.1, 0.0)
        report = run_volatility_experiment(prices, frozen, window=60, refit_every=20)
        assert np.all(report.alphas == 0.1)

    def test_coverage_bound_holds_on_trajectory(self):
        prices = self._prices(400, seed=21)
        report = run_volatility_experiment(prices, self.CONFIG, window=60, refit_every=10)
        n = len(report)
        gap = abs(float(np.mean(report.errs)) - 0.1)
        bound = (max(0.1, 0.9) + 0.005) / (n * 0.005)
        assert gap <= bound

    def test_bit_identical_reruns(self):
        prices = self._prices(250, seed=31)
        r1 = run_volatility_experiment(prices, self.CONFIG, window=60, refit_every=5)
        r2 = run_volatility_experiment(prices, self.CONFIG, window=60, refit_every=5)
        assert r1 == r2

    def test_interval_err_duality(self):
        prices = self._prices(260, seed=41)
        report = run_volatility_experiment(prices, self.CONFIG, window=60, refit_every=5)
        vol = returns_from_prices(prices) ** 2
        realized = vol[60:]
        sets = PredictionInterval(report.lower, report.upper)
        np.testing.assert_array_equal(report.errs == 1, ~sets.contains(realized))

    def test_degenerate_window_aborts_with_partial_report(self):
        # A constant stretch of prices makes the first fit window degenerate.
        prices = np.concatenate([np.full(70, 100.0), self._prices(40)])
        with pytest.raises(ExperimentAborted) as err:
            run_volatility_experiment(prices, self.CONFIG, window=60, refit_every=5)
        partial = err.value.partial_report
        assert partial is not None and not partial.valid
        assert len(partial) == 0  # failed on the very first fit

    def test_late_fit_failure_keeps_the_replayed_prefix(self):
        # Flat prices from day 100 on make the refit windows degenerate.
        head = self._prices(100)
        prices = np.concatenate([head, np.full(100, head[-1])])
        with pytest.raises(ExperimentAborted) as err:
            run_volatility_experiment(prices, self.CONFIG, window=60, refit_every=5)
        partial = err.value.partial_report
        steps = len(partial)
        assert steps > 0 and steps % 5 == 0 and not partial.valid
        clean = run_volatility_experiment(prices[: 61 + steps], self.CONFIG, window=60,
                                          refit_every=5)
        assert replace(partial, valid=True) == clean

    def test_refits_are_logged_at_info(self, caplog):
        rets = returns_from_prices(self._prices(200, seed=47))
        with caplog.at_level(logging.INFO, logger="adaptive_conformal.volatility"):
            forecast_stream(rets, 60, 45)
        lines = [r.getMessage() for r in caplog.records]
        assert [line.split(":")[0] for line in lines] == [
            f"refit at step {k}" for k in (0, 45, 90, 135)]
        assert all("omega=" in line and "nll=" in line and "bfgs_iterations=" in line
                   for line in lines)

    def test_stream_replay_matches_direct_run(self):
        prices = self._prices(260, seed=43)
        stream = forecast_stream(returns_from_prices(prices), 60, 5)
        for config in (self.CONFIG, AciConfig(0.1, 0.0)):
            direct = run_volatility_experiment(prices, config, window=60, refit_every=5)
            assert replay_forecast_stream(*stream, config) == direct

    def test_stream_matches_per_step_forecast_loop(self):
        # Reference: each refit's last in-sample variance rolled forward one
        # forecast_next_sigma2 call per step.
        rets = returns_from_prices(self._prices(200, seed=47))
        window, refit_every = 60, 45
        sigma2, _ = forecast_stream(rets, window, refit_every)
        expected = []
        for step in range(rets.size - window):
            t = window + step
            if step % refit_every == 0:
                fit = fit_garch(rets[t - window : t])
                s = fit.sigma2_path[-1]
            s = forecast_next_sigma2(fit.params, rets[t - 1] ** 2, s)
            expected.append(s)
        np.testing.assert_array_equal(sigma2, expected)

    def test_degenerate_forecast_path_aborts_like_a_failed_fit(self):
        # A price jump by 1e200 overflows the squared return inside the third
        # forecast segment; the fits themselves never see it.
        prices = self._prices(100)
        prices[85:] *= 1e200
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                ExperimentAborted) as err:
            run_volatility_experiment(prices, self.CONFIG, window=60, refit_every=10)
        partial = err.value.partial_report
        assert len(partial) == 20 and not partial.valid
        clean = run_volatility_experiment(prices[:81], self.CONFIG, window=60, refit_every=10)
        assert replace(partial, valid=True) == clean

import logging
import math
import re
from dataclasses import astuple
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import approx_fprime, minimize

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
    AB_MAX,
    COLD_STARTS,
    GRADIENT_TOL,
    SIGMA2_FLOOR,
    WARM_MIN_LENGTH,
    GarchFit,
    GarchParams,
    _derivatives,
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


def _stop_searches(monkeypatch, end, warm_only=False):
    """Make each search (or each from a warm start) stop at once at ``end(y)``.

    ``y`` is the search's start in its coordinates (omega / var(r), a, b); the
    stopped search reports the NLL and gradient there, as a real one would.
    """
    search = volatility._search

    def stopped(y, returns, s0):
        if warm_only and tuple(y[1:]) in COLD_STARTS:
            return search(y, returns, s0)
        point = np.asarray(end(y), dtype=float)
        return (*_derivatives(point, returns, s0)[:2], point, 0)

    monkeypatch.setattr(volatility, "_search", stopped)


def _softmax_nll_and_grad(x, returns, s0):
    """NLL and gradient in the unconstrained coordinates (log omega, softmax of (0, u, v)),
    the reference BFGS's search space."""
    w, u, v = x
    z = np.exp(np.array([0.0, u, v]) - max(0.0, u, v))
    a, b = z[1:] / z.sum()
    omega = math.exp(min(w, 700.0))
    nll, grad, _ = _derivatives(np.array([omega / s0, a, b]), returns, s0)
    jac = np.array([[a * (1.0 - a), -a * b], [-a * b, b * (1.0 - b)]])
    return nll, np.concatenate([[grad[0] * omega / s0], jac @ grad[1:]])


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
        for a0, b0 in COLD_STARTS:
            start = GarchParams(v * (1 - a0 - b0), a0, b0)
            assert fit.neg_loglik <= garch_neg_loglik(start, rets) + 1e-9

    @staticmethod
    def _derivative_case(case):
        # Cases cycle through interior parameters (two of them with a = 0), a + b
        # within 1e-6..1e-3 of 1, and omega within 100x of its floor.
        rng = np.random.default_rng(100 + case)
        rets = simulate_garch_returns(int(rng.integers(30, 400)), GarchParams(1e-5, 0.08, 0.9),
                                      rng)
        s0 = float(np.var(rets))
        a = rng.uniform(0.02, 0.3)
        omega, b = [(s0 * rng.uniform(0.05, 1.0), rng.uniform(0.01, 0.6)),
                    (s0 * 1e-3, 1.0 - a - 10 ** rng.uniform(-6, -3)),
                    (SIGMA2_FLOOR * 10 ** rng.uniform(0, 2), rng.uniform(0.5, 0.65))][case % 3]
        return rets, s0, np.array([omega / s0, 0.0 if case % 6 == 3 else a, b])

    @pytest.mark.parametrize("case", range(12))
    def test_gradient_matches_finite_differences(self, case):
        # Forward differences in y = (omega / var(r), a, b), which stay on the
        # feasible side of a = 0.
        rets, s0, y = self._derivative_case(case)
        nll, grad, _ = _derivatives(y, rets, s0)
        assert nll == garch_neg_loglik(GarchParams(s0 * y[0], y[1], y[2]), rets)
        ref = approx_fprime(y, lambda z: _derivatives(z, rets, s0)[0], 1e-7)
        assert np.max(np.abs(grad - ref)) <= 1e-5 * np.max(np.abs(ref))
        # d nll / d omega itself, which the omega bound's multiplier reads.
        ref_omega = approx_fprime([s0 * y[0]], lambda w: garch_neg_loglik(
            GarchParams(w[0], y[1], y[2]), rets), 1e-8 * s0)
        assert grad[0] / s0 == pytest.approx(ref_omega[0], rel=1e-5)

    @pytest.mark.parametrize("case", range(12))
    def test_information_and_hessian_match_finite_differences(self, case):
        # The Hessian of the NLL, its observed information: symmetric, and
        # central differences of the exact gradient (the recursion is defined
        # just below a = 0 too).
        rets, s0, y = self._derivative_case(case)
        _, _, hess = _derivatives(y, rets, s0)
        assert np.allclose(hess, hess.T, rtol=1e-12, atol=0.0)
        ref = np.array([_derivatives(y + h, rets, s0)[1] - _derivatives(y - h, rets, s0)[1]
                        for h in 1e-6 * np.eye(3)]) / 2e-6
        assert np.max(np.abs(hess - ref)) <= 1e-5 * np.max(np.abs(ref))

    def test_overflowing_derivatives_score_as_degenerate(self):
        # Returns near 1e152 keep the path finite but overflow the derivatives,
        # and a least-squares solve on an infinite matrix never returns.
        rets = np.random.default_rng(0).standard_normal(200) * 1e152
        s0 = float(np.var(rets))
        out = _derivatives(np.array([1.0 / s0, 1e-7, 0.99999]), rets, s0)
        assert out[0] == 1e12 and all(np.all(m == 0.0) for m in out[1:])

    @pytest.mark.parametrize("source", ["regime", "simulated"])
    def test_matches_the_best_of_three_bfgs_runs(self, source):
        # scipy's BFGS on the same objective and from the same three starts is
        # the reference; the windows are those the benchmark refits.
        if source == "regime":
            rets = returns_from_prices(default_regime_prices(2600, np.random.default_rng(201)))
            windows = [rets[t - 2000 : t] for t in range(2000, 2600, 100)] + [rets[590:2590]]
        else:
            windows = [simulate_garch_returns(n, GarchParams(2e-6, 0.08, 0.9),
                                              np.random.default_rng(seed))
                       for n, seed in [(250, 1), (500, 2), (1000, 3), (2000, 4)]]
        for window in windows:
            s0 = float(np.var(window))
            best = min(minimize(_softmax_nll_and_grad, [math.log(s0 * (1.0 - a0 - b0)),
                                                        math.log(a0 / (1.0 - a0 - b0)),
                                                        math.log(b0 / (1.0 - a0 - b0))],
                                args=(window, s0), jac=True, method="BFGS").fun
                       for a0, b0 in COLD_STARTS)
            assert fit_garch(window).neg_loglik <= best + 1e-6

    @staticmethod
    def _regime_returns():
        return returns_from_prices(default_regime_prices(2600, np.random.default_rng(201)))

    def test_warm_chain_matches_cold_fits(self):
        # The windows of test_matches_the_best_of_three_bfgs_runs, each fit
        # started from the one before it.
        rets = self._regime_returns()
        windows = [rets[t - 2000 : t] for t in range(2000, 2600, 100)] + [rets[590:2590]]
        fit = None
        for window in windows:
            fit = fit_garch(window, None if fit is None else fit.params)
            assert fit.neg_loglik <= fit_garch(window).neg_loglik + 1e-6

    # A start on or next to the boundary of the simplex: a = 0, b = 0, or
    # a = 1e-9 with 1 - a - b = 3e-9. A search in softmax coordinates, whose
    # gradient vanishes with the weight, stalled there 262-588 nats worse.
    BOUNDARY_STARTS = [lambda p: (1e-12, p.garch_coef), lambda p: (p.arch_coef, 1e-12),
                       lambda p: (1e-9, 1.0 - 1e-9 - 3e-9), lambda p: (0.0, p.garch_coef)]

    @pytest.mark.parametrize("t", [2300, 2590])
    @pytest.mark.parametrize("start", range(4))
    def test_boundary_start_is_pulled_inside(self, t, start):
        window = self._regime_returns()[t - 2000 : t]
        cold = fit_garch(window)
        ab = self.BOUNDARY_STARTS[start](cold.params)
        fit = fit_garch(window, GarchParams(cold.params.omega, *ab))
        assert fit.warm and fit.neg_loglik <= cold.neg_loglik + 1e-6

    @pytest.mark.parametrize("t", [2300, 2590])
    @pytest.mark.parametrize("start", range(3))
    def test_warm_search_stalled_on_the_boundary_falls_back_to_cold(self, monkeypatch, t,
                                                                     start):
        # A warm search that stops where it starts, on the boundary: hundreds of
        # nats worse, and the KKT test sees the gain from moving inward.
        window = self._regime_returns()[t - 2000 : t]
        cold = fit_garch(window)
        a, b = self.BOUNDARY_STARTS[start](cold.params)
        s0 = float(np.var(window))
        stall = GarchParams(cold.params.omega, a, b)
        assert garch_neg_loglik(stall, window) > cold.neg_loglik + 100
        _stop_searches(monkeypatch, lambda y: y, warm_only=True)
        fit = fit_garch(window, stall)
        assert not fit.warm and fit.params == cold.params
        assert fit.neg_loglik == cold.neg_loglik and fit.iterations == cold.iterations
        assert volatility._kkt(np.array([stall.omega / s0, a, b]),
                               *_derivatives(np.array([stall.omega / s0, a, b]), window, s0)[:2],
                               s0)[1] > GRADIENT_TOL

    def test_short_window_ignores_the_start(self):
        # On 250 returns a warm chain ended up to 5 nats worse than cold fits.
        window = self._regime_returns()[:WARM_MIN_LENGTH - 1]
        cold = fit_garch(window)
        fit = fit_garch(window, GarchParams(cold.params.omega, 0.3, 0.3))
        assert not fit.warm and fit.params == cold.params

    def test_fit_never_calls_scipy_minimize(self, monkeypatch):
        def no_minimize(*args, **kwargs):
            raise AssertionError("fit_garch called volatility.minimize")

        monkeypatch.setattr(volatility, "minimize", no_minimize)
        rets = simulate_garch_returns(800, GarchParams(0.05, 0.1, 0.85), np.random.default_rng(6))
        assert fit_garch(rets).iterations > 0

    def test_regime_window_fit_keeps_omega_off_zero(self):
        # A refit window of the bundled regime series where a search that
        # tested only the log-omega gradient stopped at omega ~ 5e-23, a + b
        # at 1, several nats worse than the interior optimum.
        rets = returns_from_prices(default_regime_prices(2600, np.random.default_rng(201)))
        fit = fit_garch(rets[210:2210])
        assert fit.params.omega > 1e-9

    def test_search_stalled_at_zero_omega_is_rejected(self, monkeypatch):
        # Every search stops at the point where a search in log-omega stalled:
        # its gradient there was ~7e-11, but raising omega gains 0.85 * |nll|
        # per unit of var(r), 85,000x the limit.
        window = self._regime_returns()[210:2210]
        s0 = float(np.var(window))
        stalled = [4.8e-23 / s0, 0.07199822713703474, 0.9280017727629652]
        _stop_searches(monkeypatch, lambda y: stalled)
        with pytest.raises(ConvergenceError, match="KKT gap 0.848") as err:
            fit_garch(window)
        assert err.value.best.params.omega < 1e-20

    def test_search_stalled_at_zero_arch_coef_is_rejected(self, monkeypatch):
        # On a = 0, where raising a lowers the NLL, with b and omega the optimum's.
        window = self._regime_returns()[210:2210]
        cold = fit_garch(window)
        s0 = float(np.var(window))
        _stop_searches(monkeypatch, lambda y: [cold.params.omega / s0, 0.0, cold.params.garch_coef])
        with pytest.raises(ConvergenceError, match="KKT gap") as err:
            fit_garch(window)
        assert err.value.best.params.arch_coef == 0.0

    def test_optimum_on_the_boundary_is_accepted(self, monkeypatch):
        # The likelihood of this short window is highest on a = 0 itself:
        # raising a by 1e-6 there costs 3e-5 nats.
        window = returns_from_prices(default_regime_prices(400, np.random.default_rng(3)))[50:150]
        fit = fit_garch(window)
        omega, a, b = astuple(fit.params)
        assert a == 0.0
        raised = garch_neg_loglik(GarchParams(omega, 1e-6, b), window)
        assert raised - fit.neg_loglik == pytest.approx(3e-5, rel=0.05)
        s0 = float(np.var(window))
        _stop_searches(monkeypatch, lambda y: [omega / s0, a, b])
        stopped = fit_garch(window)
        assert stopped.params == fit.params and stopped.neg_loglik == fit.neg_loglik

    def test_convergence_error_carries_best_fit(self, monkeypatch):
        rets = simulate_garch_returns(500, GarchParams(0.05, 0.1, 0.85), np.random.default_rng(3))
        monkeypatch.setattr(volatility, "MAX_ITER", 1)
        with pytest.raises(ConvergenceError) as err:
            fit_garch(rets)
        assert isinstance(err.value.best, GarchFit)

    @settings(max_examples=100)
    @given(n=st.integers(30, 400), seed=st.integers(0, 2**32 - 1), a=st.floats(0.0, 0.4),
           b=st.floats(0.0, 0.97))
    def test_fit_meets_first_order_kkt(self, n, seed, a, b):
        # Checked on the NLL itself, not the code's gradient: no feasible move of
        # 1e-6 in one of omega / var(r), a, b lowers it by more than the KKT
        # limit allows for that move, plus float noise.
        rets = simulate_garch_returns(n, GarchParams(1e-5, a, min(b, 0.98 - a)),
                                      np.random.default_rng(seed))
        try:
            fit = fit_garch(rets)
        except ConvergenceError:
            return
        s0 = float(np.var(rets))
        y = np.array([fit.params.omega / s0, fit.params.arch_coef, fit.params.garch_coef])
        assert y[0] * s0 >= SIGMA2_FLOOR and min(y[1:]) >= 0.0 and y[1] + y[2] <= AB_MAX
        nll = garch_neg_loglik(fit.params, rets)
        limit = (GRADIENT_TOL * 1e-6 + 1e-12) * max(1.0, abs(nll))
        for i, h in product(range(3), (1e-6, -1e-6)):
            moved = y + h * np.eye(3)[i]
            if moved[0] * s0 >= SIGMA2_FLOOR and min(moved[1:]) >= 0.0 and sum(moved[1:]) <= AB_MAX:
                params = GarchParams(moved[0] * s0, moved[1], moved[2])
                assert garch_neg_loglik(params, rets) >= nll - limit, (i, h)


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

    def test_degenerate_first_window_aborts_at_step_0(self):
        # A constant stretch of prices makes the first fit window degenerate.
        prices = np.concatenate([np.full(70, 100.0), self._prices(40)])
        with pytest.raises(ExperimentAborted, match="^GARCH refit failed at step 0: ") as err:
            run_volatility_experiment(prices, self.CONFIG, window=60, refit_every=5)
        assert isinstance(err.value.__cause__, DegenerateDataError)

    def test_late_fit_failure_names_its_step(self):
        # Flat prices from day 100 on make the refit windows degenerate; the
        # first window that holds only flat returns is that of step 100.
        head = self._prices(100)
        prices = np.concatenate([head, np.full(100, head[-1])])
        with pytest.raises(ExperimentAborted, match="^GARCH refit failed at step 100: ") as err:
            run_volatility_experiment(prices, self.CONFIG, window=60, refit_every=5)
        assert isinstance(err.value.__cause__, DegenerateDataError)
        assert len(run_volatility_experiment(prices[:161], self.CONFIG, window=60,
                                             refit_every=5)) == 100

    def test_refits_are_logged_at_info(self, caplog):
        rets = returns_from_prices(self._prices(200, seed=47))
        with caplog.at_level(logging.INFO, logger="adaptive_conformal.volatility"):
            forecast_stream(rets, 60, 45)
        lines = [r.getMessage() for r in caplog.records]
        assert [line.split(":")[0] for line in lines] == [
            f"refit at step {k}" for k in (0, 45, 90, 135)]
        assert all("omega=" in line and "nll=" in line and " iterations=" in line
                   for line in lines)
        # Windows shorter than WARM_MIN_LENGTH are always fit cold.
        assert [line.split()[4] for line in lines] == ["start=cold"] * 4

    @pytest.mark.parametrize("rejected", [False, True])
    def test_warm_refits_are_logged_and_rejected_ones_give_the_cold_stream(
            self, monkeypatch, caplog, rejected):
        rets = returns_from_prices(default_regime_prices(2600, np.random.default_rng(201)))
        window, refit_every = 2000, 250
        if rejected:  # each warm search stops where it starts, with a = 0
            _stop_searches(monkeypatch, lambda y: [y[0], 0.0, y[2]], warm_only=True)
        with caplog.at_level(logging.INFO, logger="adaptive_conformal.volatility"):
            sigma2, _ = forecast_stream(rets, window, refit_every)
        starts = [r.getMessage().split()[4] for r in caplog.records]
        assert starts == ["start=cold"] + ["start=cold" if rejected else "start=warm"] * 2
        # Reference: cold fits, or each fit started from the one before it.
        fits = []
        for t in range(window, rets.size, refit_every):
            start = None if rejected or not fits else fits[-1].params
            fits.append(fit_garch(rets[t - window : t], start))
        expected = [garch_sigma2_path(fit.params, rets[t - 1 : t + refit_every],
                                      fit.sigma2_path[-1])[1:]
                    for fit, t in zip(fits, range(window, rets.size, refit_every))]
        np.testing.assert_array_equal(sigma2, np.concatenate(expected)[: sigma2.size])

    def test_stream_replay_matches_direct_run(self):
        prices = self._prices(260, seed=43)
        stream = forecast_stream(returns_from_prices(prices), 60, 5)
        for config in (self.CONFIG, AciConfig(0.1, 0.0)):
            direct = run_volatility_experiment(prices, config, window=60, refit_every=5)
            assert replay_forecast_stream(*stream, config) == direct

    def test_stream_matches_per_step_forecast_loop(self):
        # Reference: each refit, started from the one before it, has its last
        # in-sample variance rolled forward one forecast_next_sigma2 call per step.
        rets = returns_from_prices(self._prices(200, seed=47))
        window, refit_every = 60, 45
        sigma2, _ = forecast_stream(rets, window, refit_every)
        expected, fit = [], None
        for step in range(rets.size - window):
            t = window + step
            if step % refit_every == 0:
                fit = fit_garch(rets[t - window : t], None if fit is None else fit.params)
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
                ExperimentAborted, match="^GARCH refit failed at step 20: ") as err:
            run_volatility_experiment(prices, self.CONFIG, window=60, refit_every=10)
        assert isinstance(err.value.__cause__, DomainError)


PARAMS = GarchParams(2e-6, 0.08, 0.9)


def _rng():
    return np.random.default_rng(0)


class TestInputChecks:
    @pytest.mark.parametrize("call,error,message", [
        pytest.param(lambda: garch_sigma2_path(PARAMS, []), NoDataError,
                     "empty return series", id="empty-variance-path"),
        pytest.param(lambda: simulate_garch_returns(0, PARAMS, _rng()), ConfigurationError,
                     "need at least one return", id="no-returns"),
        pytest.param(lambda: simulate_garch_returns(10, [(5, PARAMS)], _rng()),
                     ConfigurationError, "the first regime must start at index 0",
                     id="late-first-regime"),
        pytest.param(lambda: simulate_garch_returns(10, [], _rng()), ConfigurationError,
                     "the first regime must start at index 0", id="no-regimes"),
        pytest.param(lambda: simulate_garch_prices(1, PARAMS, _rng()), ConfigurationError,
                     "need at least two days of prices", id="one-day"),
        # A return variance of 10 gives returns below -1 within 100 days.
        pytest.param(lambda: simulate_garch_prices(100, GarchParams(10.0, 0.0, 0.0), _rng()),
                     DomainError, "simulated returns drove the price nonpositive; shrink omega",
                     id="nonpositive-price"),
        pytest.param(lambda: default_regime_prices(99, _rng()), ConfigurationError,
                     "the demo series needs at least 100 days", id="short-demo-series"),
        pytest.param(lambda: run_volatility_experiment(simulate_garch_prices(50, PARAMS, _rng()),
                                                       AciConfig(0.1), labels=["a"]),
                     ConfigurationError, "labels must have one entry per return",
                     id="label-count"),
    ])
    def test_rejects_bad_arguments(self, call, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            call()

import itertools
import logging
import math
import re

import numpy as np
import pytest
from scipy.optimize import linprog
from scipy.stats import chi2

from adaptive_conformal import election
from adaptive_conformal.conformal import CqrScore, PredictionInterval
from adaptive_conformal.core import AciConfig
from adaptive_conformal.election import (
    CountyRecord,
    QrModel,
    cqr_prediction_stream,
    fit_quantile_regression,
    generate_synthetic_counties,
    pinball_loss,
    replay_prediction_stream,
    sample_ordering,
)
from adaptive_conformal.errors import (
    ConfigurationError,
    ConvergenceError,
    DomainError,
    NoDataError,
)


def mean_pinball(responses, design, model):
    resid = responses - model.predict(design)
    return float(np.mean(pinball_loss(resid, model.level)))


class TestPinball:
    @pytest.mark.parametrize("u,p,expected", [(1.0, 0.9, 0.9), (-1.0, 0.9, 0.1), (0.0, 0.5, 0.0)])
    def test_values(self, u, p, expected):
        assert pinball_loss(u, p) == pytest.approx(expected)

    def test_level_domain(self):
        with pytest.raises(DomainError):
            pinball_loss(1.0, 0.0)


class TestQuantileRegression:
    def test_constant_responses(self):
        X = np.random.default_rng(0).normal(size=(40, 2))
        model = fit_quantile_regression(X, np.full(40, 5.0), 0.5)
        assert model.intercept == pytest.approx(5.0, abs=1e-9)
        np.testing.assert_allclose(model.coefficients, 0.0, atol=1e-9)

    @pytest.mark.parametrize("level,lo,hi", [(0.5, 50.0, 51.0), (0.9, 90.0, 91.0)])
    def test_intercept_only_matches_grid_scan(self, level, lo, hi):
        responses = np.arange(1.0, 101.0)
        model = fit_quantile_regression(np.empty((100, 0)), responses, level)
        assert lo <= model.intercept <= hi
        # Grid-scan oracle at resolution 1e-3 over the candidates' range.
        grid = np.arange(0.0, 102.0, 1e-3)
        losses = [float(np.mean(pinball_loss(responses - g, level))) for g in grid]
        best = min(losses)
        fitted = float(np.mean(pinball_loss(responses - model.intercept, level)))
        assert fitted <= best + 1e-5

    def test_local_optimality_probe(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(120, 3))
        y = 1.5 + X @ np.array([2.0, -1.0, 0.5]) + rng.standard_t(df=4, size=120)
        model = fit_quantile_regression(X, y, 0.3)
        base = mean_pinball(y, X, model)
        beta = np.concatenate([[model.intercept], model.coefficients])
        for _ in range(100):
            pert = beta + rng.normal(scale=1e-2, size=beta.size)
            resid = y - (pert[0] + X @ pert[1:])
            assert base <= float(np.mean(pinball_loss(resid, 0.3))) + 1e-12

    def test_rank_deficient_design_gets_flagged_fallback(self):
        rng = np.random.default_rng(5)
        col = rng.normal(size=60)
        X = np.column_stack([col, 2.0 * col])  # collinear
        y = 0.5 + col + rng.normal(scale=0.1, size=60)
        model = fit_quantile_regression(X, y, 0.5)
        assert model.regularized
        # Still close to the optimum of the (degenerate) problem.
        direct = fit_quantile_regression(col[:, None], y, 0.5)
        assert mean_pinball(y, X, model) <= mean_pinball(y, col[:, None], direct) + 1e-4

    def test_underdetermined_rejected(self):
        with pytest.raises(NoDataError):
            fit_quantile_regression(np.random.default_rng(0).normal(size=(3, 5)), np.zeros(3), 0.5)

    def test_deterministic(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(200, 4))
        y = X @ np.ones(4) + rng.normal(size=200)
        m1 = fit_quantile_regression(X, y, 0.05)
        m2 = fit_quantile_regression(X, y, 0.05)
        assert m1.intercept == m2.intercept
        np.testing.assert_array_equal(m1.coefficients, m2.coefficients)


def qr_corpus(count=1000, seed=0):
    """Seeded designs: d in 0..5, n in d+1..200, extreme and random levels,
    tied integer responses, duplicated columns, a 1e4 offset, Cauchy noise."""
    rng = np.random.default_rng(seed)
    levels = [0.001, 0.05, 0.5, 0.95, 0.999]
    for k in range(count):
        d = int(rng.integers(0, 6))
        n = int(rng.integers(d + 1, 201))
        level = levels[k % 5] if k % 10 < 5 else float(rng.uniform(0.01, 0.99))
        X = rng.normal(size=(n, d))
        kind = k % 4
        if kind == 0:
            y = X @ rng.normal(size=d) + rng.normal(size=n)
        elif kind == 1:
            X = np.round(X)
            y = rng.integers(0, 4, size=n).astype(float)
        elif kind == 2:
            y = 1e4 + X @ rng.normal(size=d) + rng.normal(size=n)
        else:
            y = X @ rng.normal(size=d) + rng.standard_cauchy(size=n)
        if d >= 2 and k % 7 == 0:
            X[:, 1] = X[:, 0]
        yield X, y, level


def linprog_pinball(design, responses, level):
    """Mean pinball loss at the optimum of the dual LP, solved by HiGHS."""
    n, d = design.shape
    design1 = np.column_stack([np.ones(n), design])
    res = linprog(-responses, A_eq=design1.T, b_eq=np.zeros(d + 1),
                  bounds=[(level - 1.0, level)] * n, method="highs")
    assert res.success, res.message
    beta = -res.eqlin.marginals
    return float(np.mean(pinball_loss(responses - design1 @ beta, level)))


class TestInteriorPoint:
    @pytest.mark.filterwarnings("error")
    def test_matches_linprog_on_corpus(self):
        worst = -math.inf
        for X, y, level in qr_corpus():
            model = fit_quantile_regression(X, y, level)
            excess = (mean_pinball(y, X, model) - linprog_pinball(X, y, level)) / np.mean(np.abs(y))
            worst = max(worst, excess)
        assert worst <= 1e-9

    def test_iteration_cap_raises(self, monkeypatch):
        monkeypatch.setattr(election, "MAX_ITERATIONS", 1)
        rng = np.random.default_rng(4)
        X = rng.normal(size=(120, 3))
        y = X @ np.array([2.0, -1.0, 0.5]) + rng.standard_t(df=4, size=120)
        with pytest.raises(ConvergenceError):
            fit_quantile_regression(X, y, 0.3)

    def test_exact_fit_needs_no_iterations(self):
        X = np.random.default_rng(1).normal(size=(30, 2))
        model = fit_quantile_regression(X, np.zeros(30), 0.9)
        assert model.iterations == 0
        np.testing.assert_array_equal(model.coefficients, 0.0)


class TestOrdering:
    def test_infinite_sigma_sorts_by_population(self):
        order = sample_ordering([5.0, 9.0, 1.0], math.inf, np.random.default_rng(0))
        np.testing.assert_array_equal(order, [1, 0, 2])

    @pytest.mark.parametrize("sigma", [1e303, 1e308])
    def test_overflowing_sigma_sorts_by_population(self, sigma):
        # sigma * pop overflows, and the Gumbel noise is far below the keys' resolution.
        pops = np.random.default_rng(6).lognormal(10.0, 1.5, size=300)
        expected = sample_ordering(pops, math.inf, np.random.default_rng(0))
        np.testing.assert_array_equal(sample_ordering(pops, sigma, np.random.default_rng(0)),
                                      expected)

    def test_single_county(self):
        np.testing.assert_array_equal(sample_ordering([7.0], 3.0, np.random.default_rng(0)), [0])

    def test_negative_sigma_rejected(self):
        with pytest.raises(DomainError):
            sample_ordering([1.0, 2.0], -0.1, np.random.default_rng(0))

    def test_sigma_zero_is_uniform(self):
        # Chi-square over all 24 permutations of 4 counties, 1e5 draws.
        rng = np.random.default_rng(123)
        pops = np.array([1.0, 2.0, 3.0, 4.0])
        perms = {p: i for i, p in enumerate(itertools.permutations(range(4)))}
        counts = np.zeros(24)
        draws = 100_000
        for _ in range(draws):
            counts[perms[tuple(sample_ordering(pops, 0.0, rng))]] += 1
        expected = draws / 24
        stat = float(np.sum((counts - expected) ** 2 / expected))
        assert 1.0 - chi2.cdf(stat, df=23) > 0.001

    def test_matches_sequential_sampling_distribution(self):
        # Exact permutation probabilities of sequential weighted sampling
        # without replacement: prod_i w_{pi_i} / (remaining weight).
        rng = np.random.default_rng(77)
        pops = np.array([0.2, 0.9, 1.7, 0.5])
        sigma = 1.3
        w = np.exp(sigma * pops)
        exact = {}
        for perm in itertools.permutations(range(4)):
            prob, rest = 1.0, list(range(4))
            for i in perm:
                prob *= w[i] / w[rest].sum()
                rest.remove(i)
            exact[perm] = prob
        draws = 100_000
        counts = {p: 0 for p in exact}
        for _ in range(draws):
            counts[tuple(sample_ordering(pops, sigma, rng))] += 1
        tv = 0.5 * sum(abs(counts[p] / draws - exact[p]) for p in exact)
        assert tv <= 0.02


class TestSyntheticCounties:
    def test_empty(self):
        assert generate_synthetic_counties(0, 3, seed=0) == []

    def test_deterministic(self):
        a = generate_synthetic_counties(50, 5, seed=9)
        b = generate_synthetic_counties(50, 5, seed=9)
        assert a == b

    def test_shape_matches_study_scale(self):
        counties = generate_synthetic_counties(3000, 11, seed=1)
        assert len(counties) == 3000
        assert all(len(c.covariates) == 11 for c in counties[:10])
        assert all(c.population > 0 and c.y_prev > 0 and c.y >= 0 for c in counties)

    def test_record_validation(self):
        with pytest.raises(ConfigurationError):
            CountyRecord("x", 0.0, np.zeros(2), 10.0, 5.0)
        with pytest.raises(ConfigurationError):
            CountyRecord("x", 10.0, np.zeros(2), 0.0, 5.0)


class TestExperiment:
    CONFIG = AciConfig(0.1, 0.005)

    def _setup(self, n=680, seed=3):
        counties = generate_synthetic_counties(n, 4, seed=seed)
        pops = np.array([c.population for c in counties])
        order = sample_ordering(pops, 0.0, np.random.default_rng(seed))
        return counties, order

    def _run(self, counties, order, seed, **kwargs):
        """The CQR stream replayed under ``CONFIG``, as ``aci election`` runs it."""
        stream = cqr_prediction_stream(counties, order, self.CONFIG.target_miscoverage,
                                       rng=np.random.default_rng(seed), **kwargs)
        return replay_prediction_stream(stream, self.CONFIG)

    def test_warmup_produces_no_predictions(self):
        counties, order = self._setup()
        report = self._run(counties, order, 0, warmup=500, refit_every=30)
        assert len(report) == len(counties) - 500
        assert report.step_labels[0] == counties[order[500]].id

    def test_coverage_bound_on_trajectory(self):
        counties, order = self._setup(seed=5)
        report = self._run(counties, order, 1, warmup=500, refit_every=30)
        n = len(report)
        gap = abs(float(np.mean(report.errs)) - 0.1)
        assert gap <= (0.9 + 0.005) / (n * 0.005)

    def test_vote_interval_is_affine_image_and_dual_to_err(self):
        counties, order = self._setup(seed=7)
        report = self._run(counties, order, 2, warmup=500, refit_every=30)
        seq = [counties[i] for i in order][500:]
        sets = PredictionInterval(report.lower, report.upper)
        y = np.array([county.y for county in seq])
        y_prev = np.array([county.y_prev for county in seq])
        finite = np.isfinite(report.lower) & np.isfinite(report.upper)
        assert np.all(report.lower[finite] / y_prev[finite] - 1.0
                      <= report.upper[finite] / y_prev[finite] - 1.0)
        np.testing.assert_array_equal(report.errs == 1, ~sets.contains(y))

    def test_calibration_scores_swap_crossing_pairs(self, monkeypatch):
        # Constant models whose lower quantile lies above the upper one: the
        # calibration set must be scored as CqrScore scores test points.
        def crossing_fit(design, responses, level):
            return QrModel(level, 0.05 if level < 0.5 else -0.05, np.zeros(design.shape[1]))

        monkeypatch.setattr(election, "fit_quantile_regression", crossing_fit)
        counties, order = self._setup(n=520)
        stream = cqr_prediction_stream(counties, order, 0.1, warmup=500, refit_every=30,
                                       rng=np.random.default_rng(4))
        residuals = np.array([counties[i].residual for i in order])
        perm = np.random.default_rng(4).permutation(500)
        cal = residuals[perm[int(500 * 0.75):]]
        expected = CqrScore(np.full(cal.size, 0.05), np.full(cal.size, -0.05)).score(cal)
        np.testing.assert_array_equal(stream.cal_scores[0], expected)
        np.testing.assert_array_equal(expected, np.abs(cal) - 0.05)

    def test_info_log_has_one_line_per_refit(self, caplog, monkeypatch):
        models = []

        def recording_fit(*args):
            models.append(fit_quantile_regression(*args))
            return models[-1]

        monkeypatch.setattr(election, "fit_quantile_regression", recording_fit)
        counties, order = self._setup(n=560)
        with caplog.at_level(logging.INFO, logger="adaptive_conformal.election"):
            cqr_prediction_stream(counties, order, 0.1, warmup=500, refit_every=30,
                                  rng=np.random.default_rng(6))
        lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("refit")]
        assert len(models) == 4 and all(m.iterations > 0 for m in models)
        assert lines == [f"refit at step {step}: lower_iterations={lo.iterations} "
                         f"upper_iterations={hi.iterations} rank_deficient=False"
                         for step, lo, hi in zip((0, 30), models[::2], models[1::2])]

    def test_too_few_counties(self):
        counties, order = self._setup(n=100)
        with pytest.raises(NoDataError):
            self._run(counties, order, 0, warmup=500)


def _small_stream(ordering=tuple(range(12)), alpha=0.1, **kwargs):
    """A CQR stream over 12 counties, 8 of them warm-up; the checks run before any fit."""
    counties = generate_synthetic_counties(12, 2, seed=0)
    return cqr_prediction_stream(counties, list(ordering), alpha, warmup=8,
                                 rng=np.random.default_rng(0), **kwargs)


class TestInputChecks:
    @pytest.mark.parametrize("call,error,message", [
        pytest.param(lambda: fit_quantile_regression(np.zeros((5, 1)), np.zeros(4), 0.5),
                     ConfigurationError, "responses must be one value per design row",
                     id="response-count"),
        pytest.param(lambda: fit_quantile_regression(np.zeros((5, 1)), np.zeros(5), 1.0),
                     DomainError, "level must lie in (0, 1), got 1.0", id="qr-level"),
        pytest.param(lambda: sample_ordering([], 1.0, np.random.default_rng(0)), NoDataError,
                     "empty population vector", id="no-populations"),
        pytest.param(lambda: generate_synthetic_counties(5, 0), ConfigurationError,
                     "need n >= 0 counties and d >= 1 covariates", id="no-covariates"),
        pytest.param(lambda: _small_stream(refit_every=0), ConfigurationError,
                     "refit_every must be >= 1", id="refit-every"),
        pytest.param(lambda: _small_stream(alpha=1.0), ConfigurationError,
                     "alpha must lie in (0, 1), got 1.0", id="stream-alpha"),
        pytest.param(lambda: _small_stream(ordering=[0] * 12), ConfigurationError,
                     "ordering must be a permutation of the county indices", id="ordering"),
    ])
    def test_rejects_bad_arguments(self, call, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            call()

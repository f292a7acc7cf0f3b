import math

import numpy as np
import pytest

from adaptive_conformal.core import AciConfig, prop_bound
from adaptive_conformal.errors import ConfigurationError, NoDataError
from adaptive_conformal.metrics import (
    CoverageSummary,
    TrajectoryReport,
    average_coverage,
    bernoulli_band,
    local_coverage,
    summarize,
)


def make_report(errs, alpha=0.1, gamma=0.005, update_rule="simple"):
    errs = np.asarray(errs, dtype=np.int8)
    n = len(errs)
    return TrajectoryReport(
        errs=errs,
        alphas=np.full(n, alpha),
        lower=np.zeros(n),
        upper=np.ones(n),
        step_labels=tuple(str(i) for i in range(n)),
        config_echo=AciConfig(alpha, gamma, update_rule=update_rule),
    )


class TestLocalCoverage:
    def test_all_covered(self):
        out = local_coverage(np.zeros(600), 500)
        assert out.shape == (101,)
        np.testing.assert_array_equal(out, 1.0)

    def test_alternating(self):
        errs = np.tile([0, 1], 400)
        np.testing.assert_allclose(local_coverage(errs, 500), 0.5)

    def test_all_missed(self):
        np.testing.assert_array_equal(local_coverage(np.ones(500), 500), 0.0)

    def test_output_length(self):
        out = local_coverage(np.zeros(57), 10)
        assert out.shape == (48,)

    def test_window_validation(self):
        with pytest.raises(NoDataError):
            local_coverage(np.zeros(10), 20)
        with pytest.raises(ConfigurationError):
            local_coverage(np.zeros(10), 5)  # odd window

    def test_matches_direct_windowed_mean(self):
        rng = np.random.default_rng(0)
        errs = (rng.random(300) < 0.2).astype(float)
        out = local_coverage(errs, 40)
        for i in (0, 100, 260):
            assert out[i] == pytest.approx(1.0 - errs[i : i + 40].mean(), abs=1e-12)


class TestAverageCoverage:
    def test_values(self):
        assert average_coverage([0, 0, 1, 0]) == 0.75
        assert average_coverage([0, 0]) == 1.0
        assert average_coverage([1, 1, 1]) == 0.0

    def test_empty(self):
        with pytest.raises(NoDataError):
            average_coverage([])


class TestBernoulliBand:
    def test_matches_normal_approximation(self):
        # 99% band at window 500 ~ 0.9 +- 2.576 * sqrt(0.09/500) = [0.8654, 0.9346].
        lower, upper = bernoulli_band(
            horizon=520, alpha=0.1, window=500, reps=4000, band_quantile=0.99,
            rng=np.random.default_rng(1),
        )
        assert np.mean(lower) == pytest.approx(0.86544, abs=5e-3)
        assert np.mean(upper) == pytest.approx(0.93456, abs=5e-3)

    def test_band_tightens_with_window(self):
        rng = np.random.default_rng(2)
        lo_small, hi_small = bernoulli_band(2000, 0.1, 100, 500, 0.99, rng)
        rng = np.random.default_rng(2)
        lo_big, hi_big = bernoulli_band(2000, 0.1, 2000, 500, 0.99, rng)
        assert (hi_big - lo_big).mean() < (hi_small - lo_small).mean()

    def test_deterministic_given_seed(self):
        a = bernoulli_band(600, 0.1, 500, 200, 0.95, np.random.default_rng(7))
        b = bernoulli_band(600, 0.1, 500, 200, 0.95, np.random.default_rng(7))
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_too_few_reps(self):
        with pytest.raises(ConfigurationError):
            bernoulli_band(600, 0.1, 500, 50, 0.99, np.random.default_rng(0))


class TestSummarize:
    def test_perfect_coverage(self):
        # errs == 0 gives |0 - alpha| = 0.1 on the left side; satisfied once
        # the bound has shrunk below that, i.e. for large enough horizons the
        # check would fail for a genuinely frozen trajectory, but at n = 500
        # the bound 0.905/2.5 = 0.362 still dominates.
        summary = summarize(make_report(np.zeros(500)), window=100)
        assert summary.average_coverage == 1.0
        assert summary.prop_bound_value == pytest.approx(0.362)
        assert summary.prop_bound_satisfied

    def test_constructed_violation_is_flagged(self):
        # An all-miss sequence long enough to shrink the bound below 0.9
        # cannot come from a genuine adaptive run; summarize must flag it.
        n = 5000
        summary = summarize(make_report(np.ones(n)), window=100)
        assert summary.prop_bound_value < abs(1.0 - 0.1)
        assert not summary.prop_bound_satisfied

    def test_bernoulli_like_sequence_satisfied(self):
        rng = np.random.default_rng(3)
        errs = (rng.random(2000) < 0.1).astype(int)
        summary = summarize(make_report(errs), window=500)
        assert summary.prop_bound_satisfied
        assert summary.max_local_deviation >= 0.0

    def test_frozen_level_bound_is_vacuous(self):
        summary = summarize(make_report(np.ones(100), gamma=0.0), window=50)
        assert summary.prop_bound_value == math.inf
        assert summary.prop_bound_satisfied

    def test_weighted_rule_claims_no_bound(self):
        # The gap 0.9 is far above the simple-rule bound, which does not
        # cover the weighted rule; the summary must make no claim either way.
        report = make_report(np.ones(100), gamma=0.5, update_rule="weighted")
        assert 0.9 > prop_bound(report.config_echo, 100)
        summary = summarize(report, window=50)
        assert summary.prop_bound_value is None
        assert summary.prop_bound_satisfied is None

    def test_short_trajectory_has_no_local_series(self):
        summary = summarize(make_report(np.zeros(30)), window=100)
        assert math.isnan(summary.max_local_deviation)

    def test_empty_report_rejected(self):
        with pytest.raises(NoDataError):
            summarize(make_report(np.array([], dtype=int)), window=10)

    def test_max_local_deviation_value(self):
        errs = np.zeros(40)
        errs[:10] = 1  # early cluster of misses
        summary = summarize(make_report(errs), window=20)
        local = local_coverage(errs, 20)
        assert summary.max_local_deviation == pytest.approx(np.max(np.abs(local - 0.9)))
        assert isinstance(summary, CoverageSummary)

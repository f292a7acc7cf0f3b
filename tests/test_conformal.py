import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaptive_conformal.conformal import (
    AbsoluteScore,
    CqrScore,
    NormalizedScore,
    PredictionInterval,
    empirical_quantile,
    err_indicator,
)
from adaptive_conformal.errors import DomainError, NoDataError


def quantile_by_scan(scores, p):
    """Literal inf{s : #{scores <= s}/n >= p} over the candidate score values."""
    n = len(scores)
    for s in sorted(scores):
        if sum(1 for x in scores if x <= s) / n >= p:
            return s
    return math.inf


class TestEmpiricalQuantile:
    def test_median_of_five(self):
        assert empirical_quantile([1, 2, 3, 4, 5], 0.5) == 3

    def test_out_of_range_levels(self):
        assert empirical_quantile([1.0, 2.0], 1.2) == math.inf
        assert empirical_quantile([1.0, 2.0], -0.1) == -math.inf
        assert empirical_quantile([1.0, 2.0], 0.0) == -math.inf

    def test_single_score_at_level_one(self):
        assert empirical_quantile([2.5], 1.0) == 2.5

    def test_empty_calibration_set(self):
        with pytest.raises(NoDataError):
            empirical_quantile([], 0.5)

    def test_non_finite_scores_rejected(self):
        with pytest.raises(DomainError):
            empirical_quantile([1.0, math.nan], 0.5)

    def test_matches_linear_scan_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(800):
            n = rng.integers(1, 51)
            scores = rng.normal(size=n)
            p = float(rng.uniform(0.0, 1.0))
            if p == 0.0:
                p = 1.0
            assert empirical_quantile(scores, p) == quantile_by_scan(list(scores), p)

    def test_matches_scan_on_awkward_levels(self):
        # Levels like 0.07 whose product with n rounds the wrong way under IEEE.
        scores = list(range(1, 101))
        for p in [0.07, 0.29, 0.58, 0.815, 1.0, 0.01, 0.99]:
            assert empirical_quantile(scores, p) == quantile_by_scan(scores, p)

    def test_nondecreasing_in_level(self):
        rng = np.random.default_rng(5)
        scores = rng.normal(size=37)
        ps = np.sort(rng.uniform(0.001, 1.0, size=50))
        qs = [empirical_quantile(scores, p) for p in ps]
        assert all(a <= b for a, b in zip(qs, qs[1:]))

    def test_exchangeable_coverage_rate(self):
        # With n calibration scores and an exchangeable tie-free test score,
        # P(S <= q(1-alpha)) = ceil(n(1-alpha)) / (n+1). Monte Carlo over
        # permutations, 3 standard errors.
        rng = np.random.default_rng(42)
        n, alpha, reps = 40, 0.1, 20000
        target = math.ceil(n * (1 - alpha)) / (n + 1)
        hits = 0
        for _ in range(reps):
            block = rng.normal(size=n + 1)
            q = empirical_quantile(block[:n], 1 - alpha)
            hits += block[n] <= q
        rate = hits / reps
        se = math.sqrt(target * (1 - target) / reps)
        assert abs(rate - target) <= 3 * se


class TestScores:
    def test_absolute(self):
        assert AbsoluteScore(2.0).score(3.5) == 1.5

    def test_cqr_sign_convention(self):
        ctx = CqrScore(2.0, 5.0)
        assert ctx.score(6.0) == 1.0
        assert ctx.score(3.0) == -1.0

    def test_normalized(self):
        assert NormalizedScore(2.0).score(3.0) == 0.5

    def test_normalized_requires_positive_variance(self):
        with pytest.raises(DomainError):
            NormalizedScore(0.0)
        with pytest.raises(DomainError):
            NormalizedScore(-1.0)

    def test_crossing_cqr_pair_is_sorted(self):
        ctx = CqrScore(5.0, 2.0)
        assert (ctx.q_lo, ctx.q_hi) == (2.0, 5.0)


class TestIntervals:
    def test_absolute_interval(self):
        assert AbsoluteScore(2.0).interval(1.5) == PredictionInterval(0.5, 3.5)

    def test_normalized_interval(self):
        assert NormalizedScore(2.0).interval(0.5) == PredictionInterval(1.0, 3.0)

    def test_normalized_interval_clips_at_zero(self):
        iv = NormalizedScore(2.0).interval(1.5)
        assert iv == PredictionInterval(0.0, 5.0)

    def test_cqr_interval(self):
        assert CqrScore(2.0, 5.0).interval(1.0) == PredictionInterval(1.0, 6.0)

    def test_infinite_threshold_covers_everything(self):
        for ctx in (AbsoluteScore(0.0), NormalizedScore(1.0), CqrScore(0.0, 1.0)):
            assert ctx.interval(math.inf) == PredictionInterval(-math.inf, math.inf)

    def test_unreachable_thresholds_give_empty_sets(self):
        assert AbsoluteScore(1.0).interval(-0.5).is_empty
        assert NormalizedScore(1.0).interval(-0.01).is_empty
        assert CqrScore(2.0, 5.0).interval(-1.6).is_empty  # below -(q_hi-q_lo)/2
        assert not CqrScore(2.0, 5.0).interval(-1.4).is_empty
        for ctx in (AbsoluteScore(0.0), NormalizedScore(1.0), CqrScore(0.0, 1.0)):
            assert ctx.interval(-math.inf).is_empty

    def test_empty_interval_contains_nothing(self):
        empty = PredictionInterval(math.inf, -math.inf)
        assert empty.is_empty and not empty.contains(0.0)


class TestErrIndicator:
    def test_strict_exceedance(self):
        assert err_indicator(1.2, 1.0) == 1
        assert err_indicator(1.0, 1.0) == 0

    def test_infinite_thresholds(self):
        assert err_indicator(1e300, math.inf) == 0
        assert err_indicator(-1e300, -math.inf) == 1


class TestScoreIntervalDuality:
    """y in interval(Q) iff score(y) <= Q, for every score family."""

    def _random_context(self, rng):
        kind = rng.integers(3)
        if kind == 0:
            return AbsoluteScore(float(rng.normal(scale=5)))
        if kind == 1:
            return NormalizedScore(float(rng.uniform(0.1, 5.0)))
        lo = float(rng.normal(scale=3))
        return CqrScore(lo, lo + float(rng.uniform(0.0, 4.0)))

    def test_round_trip(self):
        rng = np.random.default_rng(2024)
        for _ in range(4000):
            ctx = self._random_context(rng)
            threshold = float(rng.normal(scale=2))
            iv = ctx.interval(threshold)
            y = float(rng.normal(scale=6))
            if isinstance(ctx, NormalizedScore):
                y = abs(y)  # the clip at 0 removes negative labels by design
            assert iv.contains(y) == (ctx.score(y) <= threshold)

    def test_boundary_points_are_covered(self):
        ctx = CqrScore(1.0, 2.0)
        iv = ctx.interval(0.75)
        assert iv.contains(iv.lower) and iv.contains(iv.upper)
        assert ctx.score(iv.upper) == pytest.approx(0.75)


# Multiples of 1/8 with small magnitude: sums, products and the quotients
# compared against them are exact or far from rounding, so the duality must
# hold bit for bit rather than up to a tolerance.
GRID = st.integers(-800, 800).map(lambda k: k / 8)
POSITIVE = st.integers(1, 800).map(lambda k: k / 8)
THRESHOLD = GRID | st.sampled_from([math.inf, -math.inf])


def family_rows(prediction):
    """Rows of (prediction, label, threshold) for one score family."""
    label = st.integers(0, 800).map(lambda k: k / 8) if prediction is POSITIVE else GRID
    return st.lists(st.tuples(prediction, label, THRESHOLD), min_size=1, max_size=30)


FAMILIES = {
    "absolute": (AbsoluteScore, family_rows(GRID)),
    "normalized": (NormalizedScore, family_rows(POSITIVE)),
    "cqr": (lambda pair: CqrScore(*pair), family_rows(st.tuples(GRID, GRID))),
}


class TestArrayNativeFamilies:
    """Each family on arrays equals the family on floats, entry by entry."""

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    @settings(max_examples=150)
    @given(data=st.data())
    def test_columns_match_scalars_and_duality(self, name, data):
        make, rows = FAMILIES[name]
        rows = data.draw(rows)
        predictions, labels, thresholds = (np.array(col) for col in zip(*rows))
        ctx = make(predictions.T)  # a CQR column of pairs transposes into (q_lo, q_hi)
        scores = ctx.score(labels)
        columns = ctx.interval(thresholds)
        for i, (prediction, y, threshold) in enumerate(rows):
            one = make(prediction)
            assert scores[i] == one.score(y)
            iv = one.interval(threshold)
            assert (columns.lower[i], columns.upper[i]) == (iv.lower, iv.upper)
            assert isinstance(iv.lower, float) and isinstance(iv.upper, float)
        np.testing.assert_array_equal(columns.contains(labels), scores <= thresholds)
        empty = columns.lower > columns.upper
        np.testing.assert_array_equal(columns.lower[empty], math.inf)
        np.testing.assert_array_equal(columns.upper[empty], -math.inf)
        whole = (columns.lower == -math.inf) & (columns.upper == math.inf)
        np.testing.assert_array_equal(whole, thresholds == math.inf)

    def test_crossing_pairs_are_swapped_elementwise(self):
        ctx = CqrScore(np.array([5.0, 1.0]), np.array([2.0, 3.0]))
        np.testing.assert_array_equal(ctx.q_lo, [2.0, 1.0])
        np.testing.assert_array_equal(ctx.q_hi, [5.0, 3.0])

    def test_any_nonpositive_variance_rejected(self):
        with pytest.raises(DomainError):
            NormalizedScore(np.array([1.0, 0.0]))

"""The replay against the literal per-step threshold loop that defines it.

``reference_replay`` is the definition step by step: the threshold is
``empirical_quantile(cal, 1 - alpha_t)``, ``+inf`` when ``alpha_t < 0`` and
``-inf`` when ``alpha_t >= 1``, the miss bit is ``err_indicator(score,
threshold)`` and ``core.update`` moves the level. The production replay reads
each threshold off a sorted set at ``quantile_rank`` and runs ``core.next_level``,
so these tests pin it to that definition bit for bit.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaptive_conformal.conformal import (
    AbsoluteScore,
    CqrScore,
    NormalizedScore,
    empirical_quantile,
    err_indicator,
    quantile_rank,
)
from adaptive_conformal.core import AciConfig, init, run_level_batch, update
from adaptive_conformal.election import CqrStream, replay_prediction_stream
from adaptive_conformal.errors import DomainError, NoDataError
from adaptive_conformal.metrics import TrajectoryReport, replay
from adaptive_conformal.volatility import replay_forecast_stream


def reference_replay(config, scores, calibration_sets):
    """(alphas, errs, thresholds) of the per-step threshold loop."""
    state = init(config)
    alphas, errs, thresholds = [], [], []
    for score, cal in zip(scores, calibration_sets):
        a = state.current_level
        threshold = math.inf if a < 0.0 else -math.inf if a >= 1.0 else empirical_quantile(
            cal, 1.0 - a)
        err = err_indicator(score, threshold)
        alphas.append(a)
        errs.append(err)
        thresholds.append(threshold)
        state = update(state, err)
    return np.array(alphas), np.array(errs), np.array(thresholds)


def eighths(lo, hi):
    """Scores on a grid of 1/8, so calibration sets hold ties and scores hit them."""
    return st.integers(lo, hi).map(lambda k: k / 8)


@st.composite
def configs(draw):
    """Coarse levels and large steps, so trajectories cross 0 and 1."""
    return AciConfig(
        draw(st.sampled_from([0.05, 0.1, 0.2, 0.25, 0.5, 0.9])),
        draw(st.sampled_from([0.0, 0.05, 0.1, 0.3, 0.5, 1.0])),
        initial_level=draw(st.sampled_from([0.0, 0.03, 0.5, 0.97, 1.0])),
        update_rule=draw(st.sampled_from(["simple", "weighted"])),
        decay=draw(st.sampled_from([0.5, 0.9])),
    )


@st.composite
def volatility_streams(draw):
    window = draw(st.integers(1, 12))
    steps = draw(st.integers(0, 40))
    history = np.array(draw(st.lists(eighths(0, 24), min_size=window + steps,
                                     max_size=window + steps)))
    sigma2 = np.array(draw(st.lists(eighths(1, 16), min_size=steps, max_size=steps)))
    return sigma2, history


@st.composite
def cqr_streams(draw):
    """CQR streams whose last refit segment may be shorter than the others."""
    steps, refit_every = draw(st.integers(0, 40)), draw(st.integers(1, 7))
    column = st.lists(eighths(-16, 16), min_size=steps, max_size=steps)
    cal_sets = [np.array(draw(st.lists(eighths(-8, 16), min_size=1, max_size=9)))
                for _ in range(-(-steps // refit_every))]
    y_prev = draw(st.lists(eighths(1, 80), min_size=steps, max_size=steps))
    return CqrStream(tuple(f"c{k}" for k in range(steps)), np.array(y_prev),
                     np.array(draw(column)), np.array(draw(column)), np.array(draw(column)),
                     cal_sets, refit_every)


class TestReplayMatchesThresholdLoop:
    @settings(max_examples=300)
    @given(config=configs(), stream=volatility_streams())
    def test_volatility_stream(self, config, stream):
        sigma2, history = stream
        window = history.size - sigma2.size
        scores = history[window:]
        alphas, errs, thresholds = reference_replay(
            config, scores, [history[k : k + window] for k in range(sigma2.size)])
        sets = NormalizedScore(sigma2).interval(thresholds)
        labels = [str(t) for t in range(1, history.size + 1)]
        expected = TrajectoryReport(errs, alphas, sets.lower, sets.upper,
                                    tuple(labels[window:]), config)
        assert replay_forecast_stream(sigma2, history, config) == expected

    @settings(max_examples=300)
    @given(config=configs(), stream=cqr_streams())
    def test_cqr_stream(self, config, stream):
        residual_sets = CqrScore(stream.q_lo, stream.q_hi)
        scores = residual_sets.score(stream.residual)
        alphas, errs, thresholds = reference_replay(
            config, scores,
            [stream.cal_scores[k // stream.refit_every] for k in range(len(stream.labels))])
        sets = residual_sets.interval(thresholds)
        expected = TrajectoryReport(errs, alphas, stream.y_prev * (1.0 + sets.lower),
                                    stream.y_prev * (1.0 + sets.upper), stream.labels, config)
        assert replay_prediction_stream(stream, config) == expected

    def test_level_just_below_zero_covers_the_whole_line(self):
        # 0.04 - 0.04 = -6.9e-18, for which 1 - alpha_t rounds to 1.
        config = AciConfig(0.2, 0.05, initial_level=0.03)
        history = np.array([0.0, 1.0, 2.0, 0.0, 5.0, 9.0])  # 9 lies above its window
        report = replay_forecast_stream(np.ones(3), history, config)
        assert report.alphas[2] < 0.0 and report.errs[2] == 0
        assert report.upper[2] == math.inf


class TestOnePass:
    def test_calibration_is_read_once_one_set_per_step(self):
        pulled = []

        def sets():  # one-shot and endless: replay must take one set per step
            while True:
                pulled.append(len(pulled))
                yield [0.0, 1.0, 2.0]

        scores = [0.5, 2.5, 0.5, 1.5]
        report = replay(AciConfig(0.5, 0.1), scores, sets(), AbsoluteScore(np.zeros(4)).interval,
                        "abcd")
        assert len(report) == len(pulled) == 4
        np.testing.assert_array_equal(report.errs, [0, 1, 0, 1])


class TestCalibrationChecks:
    def test_non_finite_volatility_history_is_rejected(self):
        history = np.array([0.0, math.nan, 1.0, 2.0])
        with pytest.raises(DomainError):
            replay_forecast_stream(np.ones(2), history, AciConfig(0.1, 0.0))

    @pytest.mark.parametrize("cal,error", [
        (np.array([0.0, math.nan]), DomainError),
        (np.array([0.0, math.inf]), DomainError),
        (np.array([]), NoDataError),
    ])
    def test_bad_cqr_calibration_set_is_rejected(self, cal, error):
        stream = CqrStream(("a", "b"), np.ones(2), np.zeros(2), -np.ones(2), np.ones(2),
                           [np.array([0.5]), cal], 1)
        with pytest.raises(error):
            replay_prediction_stream(stream, AciConfig(0.1, 0.0))

    @pytest.mark.parametrize("bad", [math.nan, -math.inf])
    def test_non_finite_realized_score_is_rejected(self, bad):
        with pytest.raises(DomainError, match="step 2"):
            replay(AciConfig(0.1, 0.05), [0.5, bad, 0.5], iter([[0.0, 1.0, 2.0]] * 3),
                   AbsoluteScore(np.zeros(3)).interval, "abc")


def while_loop_rank(n, p):
    """The rank rule as ``empirical_quantile`` computed it before it had a name."""
    k = math.ceil(p * n)
    while k > 1 and (k - 1) / n >= p:
        k -= 1
    while k / n < p:
        k += 1
    return k


class TestQuantileRank:
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 10, 49, 100, 125, 300, 1000, 1250, 2000])
    def test_every_grid_level(self, n):
        for j in range(n):
            p = 1.0 - j / n
            assert quantile_rank(n, p) == while_loop_rank(n, p)
            # the defining property, checked literally
            k = quantile_rank(n, p)
            assert k / n >= p and (k == 1 or (k - 1) / n < p)

    def test_random_levels(self):
        rng = np.random.default_rng(8)
        for n, p in zip(rng.integers(1, 3000, size=20_000), rng.random(20_000)):
            p = float(p) or 1.0
            assert quantile_rank(int(n), p) == while_loop_rank(int(n), p)


class TestLevelCarriers:
    @given(levels=st.lists(st.sampled_from([0.0, 0.5, 1.0, 0.25]), min_size=1, max_size=60),
           config=configs(), strict=st.booleans())
    def test_row_equals_one_row_batch(self, levels, config, strict):
        row = np.array(levels)
        alphas, errs = run_level_batch(config, row, strict)
        batch_alphas, batch_errs = run_level_batch(config, row[None, :], strict)
        assert alphas.shape == errs.shape == row.shape
        np.testing.assert_array_equal(alphas, batch_alphas[0])
        np.testing.assert_array_equal(errs, batch_errs[0])

import itertools
import logging
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.special import ndtr, ndtri
from scipy.stats import kstest, norm

from adaptive_conformal import bounds
from adaptive_conformal.conformal import PredictionInterval
from adaptive_conformal.core import AciConfig, init, update
from adaptive_conformal.errors import (
    ConfigurationError,
    DomainError,
    ErgodicityError,
    NonReversibleChainError,
)
from adaptive_conformal.hmm import (
    BLOCK,
    BiasEstimate,
    HmmSpec,
    NormalQuantile,
    estimate_bias_terms,
    exceedance_levels,
    per_state_alpha_star,
    run_level_batch,
    simulate_hmm_batch,
    spectral_gap,
    stationary_distribution,
    symmetric_chain,
)
from adaptive_conformal.metrics import replay


def two_state_spec(p=0.95, scales=(1.0, 2.0), means=(0.0, 0.0)):
    return HmmSpec(symmetric_chain(2, p), np.array(means), np.array(scales))


class TestSymmetricChain:
    def test_two_states(self):
        np.testing.assert_allclose(symmetric_chain(2, 0.9), [[0.9, 0.1], [0.1, 0.9]])

    def test_three_states(self):
        m = symmetric_chain(3, 0.7)
        np.testing.assert_allclose(np.diag(m), 0.7)
        np.testing.assert_allclose(m[0, 1], 0.15)
        np.testing.assert_allclose(m.sum(axis=1), 1.0)

    def test_diagonal_must_dominate(self):
        with pytest.raises(DomainError):
            symmetric_chain(2, 0.3)


class TestStationaryAndGap:
    def test_uniform_for_symmetric_chain(self):
        np.testing.assert_allclose(stationary_distribution(symmetric_chain(3, 0.8)), 1 / 3)

    def test_identity_chain_not_ergodic(self):
        with pytest.raises(ErgodicityError):
            stationary_distribution(np.eye(2))

    def test_periodic_chain_not_ergodic(self):
        with pytest.raises(ErgodicityError):
            stationary_distribution(np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_chain_within_tolerance_of_the_circle_names_the_tolerance(self):
        # Ergodic, but its second eigenvalue 2p - 1 lies within 1e-8 of the unit circle.
        with pytest.raises(ErgodicityError, match=r"^chain has 2 eigenvalues within 1e-8 of "
                           r"the unit circle; at that precision it has no unique stationary"):
            stationary_distribution(symmetric_chain(2, 1.0 - 1e-9))

    def test_transient_state_gets_no_mass(self):
        # State 0 leaves at rate 0.01 and never returns: pi = (0, 2/3, 1/3).
        p = np.array([[0.99, 0.01, 0.0], [0.0, 0.9, 0.1], [0.0, 0.2, 0.8]])
        pi = stationary_distribution(p)
        assert np.all(pi >= 0.0) and pi[0] <= 1e-15
        np.testing.assert_allclose(pi[1:], [2 / 3, 1 / 3], rtol=1e-12)
        spec = HmmSpec(p, np.zeros(3), np.ones(3))
        states, _ = simulate_hmm_batch(spec, 50, 200, np.random.default_rng(0))
        assert not np.any(states == 0)

    def test_gap_two_state(self):
        # Eigenvalues {1, 0.8} so the gap is exactly 0.2.
        assert spectral_gap(symmetric_chain(2, 0.9)) == pytest.approx(0.2, abs=1e-12)

    def test_gap_three_state(self):
        # Second eigenvalue p - (1-p)/(n-1) = 0.55.
        assert spectral_gap(symmetric_chain(3, 0.7)) == pytest.approx(0.45, abs=1e-12)

    def test_gap_iid_rows(self):
        iid = np.tile([[0.3, 0.7]], (2, 1))
        assert spectral_gap(iid) == pytest.approx(1.0, abs=1e-12)

    def test_non_reversible_rejected(self):
        p = np.array([[0.8, 0.15, 0.05], [0.05, 0.8, 0.15], [0.15, 0.05, 0.8]])
        with pytest.raises(NonReversibleChainError):
            spectral_gap(p)


class TestSimulation:
    def test_deterministic_given_seed(self):
        spec = two_state_spec()
        s1 = simulate_hmm_batch(spec, 500, 1, np.random.default_rng(3))
        s2 = simulate_hmm_batch(spec, 500, 1, np.random.default_rng(3))
        np.testing.assert_array_equal(s1[0], s2[0])
        np.testing.assert_array_equal(s1[1], s2[1])

    def test_single_state_scores_are_iid_normal(self):
        spec = HmmSpec(np.array([[1.0]]), np.array([0.5]), np.array([2.0]))
        _, scores = simulate_hmm_batch(spec, 10_000, 1, np.random.default_rng(4))
        assert kstest(scores[0], norm(loc=0.5, scale=2.0).cdf).pvalue > 0.001

    @pytest.mark.parametrize("means,scales", [
        pytest.param((math.nan, 0.0), (1.0, 2.0), id="nan-mean"),
        pytest.param((0.0, math.inf), (1.0, 2.0), id="infinite-mean"),
        pytest.param((0.0, 0.0), (math.nan, 2.0), id="nan-scale"),
        pytest.param((0.0, 0.0), (1.0, math.inf), id="infinite-scale"),
    ])
    def test_spec_rejects_non_finite_parameters(self, means, scales):
        with pytest.raises(ConfigurationError):
            two_state_spec(means=means, scales=scales)

    @pytest.mark.parametrize("transition,means,scales,message", [
        pytest.param(np.full((2, 3), 1 / 3), (0.0, 0.0), (1.0, 1.0),
                     "transition must be a square matrix", id="not-square"),
        pytest.param([[1.5, -0.5], [0.5, 0.5]], (0.0, 0.0), (1.0, 1.0),
                     "transition entries must be nonnegative", id="negative-entry"),
        pytest.param([[0.5, 0.4], [0.5, 0.5]], (0.0, 0.0), (1.0, 1.0),
                     "transition rows must sum to 1", id="row-sum"),
        pytest.param(symmetric_chain(2, 0.9), (0.0, 0.0, 0.0), (1.0, 1.0),
                     "need one score mean and scale per state", id="mean-count"),
        pytest.param(symmetric_chain(2, 0.9), (0.0, 0.0), (1.0, 0.0),
                     "score scales must be positive", id="zero-scale"),
    ])
    def test_spec_rejects_bad_parameters(self, transition, means, scales, message):
        with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
            HmmSpec(np.asarray(transition), np.array(means), np.array(scales))

    def test_batch_marginals_match_stationary(self):
        spec = two_state_spec(p=0.8)
        states, _ = simulate_hmm_batch(spec, 400, 300, np.random.default_rng(5))
        freq = states.mean()
        assert abs(freq - 0.5) < 0.02


class TestQuantileFunctions:
    @pytest.mark.parametrize("mean,scale", [
        (math.nan, 1.0), (math.inf, 1.0), (0.0, math.nan), (0.0, math.inf), (0.0, 0.0),
    ])
    def test_normal_quantile_rejects_non_finite(self, mean, scale):
        with pytest.raises(ConfigurationError):
            NormalQuantile(mean, scale)

    def test_exceedance_levels_leave_the_scores_unchanged(self):
        scores = np.array([[-1.0, 0.0, 2.5], [0.3, -40.0, 40.0]])
        levels, strict = exceedance_levels(NormalQuantile(0.5, 2.0), scores)
        np.testing.assert_array_equal(scores, [[-1.0, 0.0, 2.5], [0.3, -40.0, 40.0]])
        np.testing.assert_array_equal(levels, ndtr((scores - 0.5) / 2.0))
        assert strict

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_exceedance_levels_reject_a_non_finite_score(self, bad):
        # The run would otherwise count a NaN level as covered (nan > 1 - alpha_t is false).
        scores = np.zeros((3, 4))
        scores[1, 2] = scores[2, 0] = bad
        with pytest.raises(DomainError, match=f"replication 2, step 3 is {bad}$"):
            exceedance_levels(NormalQuantile(), scores)
        with pytest.raises(DomainError, match="replication 1, step 2 is nan$"):
            exceedance_levels(NormalQuantile(), [0.5, math.nan, 0.5])


def normal_threshold_loop(scores, qhat, config):
    """(alphas, errs) of the literal per-step loop over the thresholds ``qhat(1 - alpha_t)``.

    The set is the whole line when alpha_t < 0 and empty from alpha_t = 1 on.
    """
    state = init(config)
    alphas, errs = [], []
    for score in scores:
        a = state.current_level
        threshold = (math.inf if a < 0.0 else -math.inf if a >= 1.0
                     else qhat.mean + qhat.scale * float(ndtri(1.0 - a)))
        alphas.append(a)
        errs.append(int(score > threshold))
        state = update(state, errs[-1])
    return np.array(alphas), np.array(errs)


def snapshot_runner(scores, snapshot, config):
    """The fixed empirical-quantile runner: ``metrics.replay`` over one constant sorted set."""
    cal = sorted(snapshot)
    return replay(config, scores, itertools.repeat(cal),
                  lambda t: PredictionInterval(np.full(t.shape, -math.inf), t),
                  [str(t + 1) for t in range(len(scores))])


class TestFixedQuantileRunner:
    def test_forced_errors_outside_unit_interval(self):
        qhat = NormalQuantile()
        # A covered step pushes the level above 1; the next error is forced to
        # 1 even though the score itself would have been covered.
        up = AciConfig(0.9, 0.2, initial_level=0.95)
        alphas, errs = run_level_batch(up, *exceedance_levels(qhat, np.array([-10.0, -10.0])))
        assert errs[0] == 0 and alphas[1] > 1.0 and errs[1] == 1
        # A missed step pushes the level below 0; the next error is forced to
        # 0 even though the score itself would have been missed.
        down = AciConfig(0.1, 0.05, initial_level=0.04)
        alphas, errs = run_level_batch(down, *exceedance_levels(qhat, np.array([10.0, 10.0])))
        assert errs[0] == 1 and alphas[1] < 0.0 and errs[1] == 0

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_score_is_rejected(self, bad):
        with pytest.raises(DomainError, match="step 2"):
            snapshot_runner([0.5, bad, 0.5], [0.0, 1.0, 2.0], AciConfig(0.1, 0.05))

    def test_trajectory_satisfies_bounds(self):
        rng = np.random.default_rng(8)
        cfg = AciConfig(0.1, 0.01, initial_level=0.4)
        scores = rng.normal(size=4000)
        alphas, errs = run_level_batch(cfg, *exceedance_levels(NormalQuantile(), scores))
        assert np.all(alphas >= -0.01 - 1e-15) and np.all(alphas <= 1.01 + 1e-15)
        n = len(errs)
        assert abs(float(np.mean(errs)) - 0.1) <= (0.6 + 0.01) / (n * 0.01)

    RANDOM_CFG = AciConfig(0.1, 0.02, initial_level=0.35)
    RANDOM_SCORES = np.random.default_rng(17).normal(size=(4, 600))

    @pytest.mark.parametrize("qhat,cfg,scores", [
        pytest.param(NormalQuantile(0.3, 1.4), RANDOM_CFG, RANDOM_SCORES, id="qhat0"),
        pytest.param(np.linspace(-2, 2, 157), RANDOM_CFG, RANDOM_SCORES, id="qhat1"),
        # The third level is 0.04 - 0.04 = -6.9e-18, for which 1 - alpha_t rounds
        # to 1: the set must still be the whole line, not (-inf, max score].
        pytest.param(np.array([0.0, 1.0, 2.0]), AciConfig(0.2, 0.05, initial_level=0.03),
                     np.array([[-5.0, 5.0, 5.0]]), id="level-just-below-zero"),
    ])
    def test_batch_runner_matches_scalar_runner(self, qhat, cfg, scores):
        if isinstance(qhat, NormalQuantile):
            levels, strict = exceedance_levels(qhat, scores)
            rows = [normal_threshold_loop(row, qhat, cfg) for row in scores]
        else:  # a snapshot's level is the fraction strictly below, compared non-strictly
            levels, strict = np.searchsorted(qhat, scores) / qhat.size, False
            reports = [snapshot_runner(row, qhat, cfg) for row in scores]
            for rep in reports:
                np.testing.assert_array_equal(rep.upper == math.inf, rep.alphas < 0.0)
            rows = [(rep.alphas, rep.errs) for rep in reports]
        alphas, errs = run_level_batch(cfg, levels, strict)
        for r, (row_alphas, row_errs) in enumerate(rows):
            np.testing.assert_array_equal(errs[r], row_errs)
            np.testing.assert_array_equal(alphas[r], row_alphas)

    def test_batch_runner_weighted_rule_matches_updates(self):
        cfg = AciConfig(0.2, 0.01, update_rule="weighted", decay=0.9)
        rng = np.random.default_rng(23)
        levels = rng.random((1, 300))
        alphas, errs = run_level_batch(cfg, levels, True)
        state = init(cfg)
        for t in range(300):
            assert alphas[0, t] == state.current_level
            err = 1 if (0.0 <= state.current_level <= 1.0 and levels[0, t] > 1 - state.current_level) else (
                1 if state.current_level > 1 else 0
            )
            assert errs[0, t] == err
            state = update(state, err)


def hundredths(lo, hi):
    return st.integers(lo, hi).map(lambda k: k / 100)


@st.composite
def level_batches(draw):
    """A config, a (reps, horizon) exceedance-level array and a comparison.

    Coarse targets and step sizes, and exceedance levels of exactly 0, 1/2
    and 1, make sums that round to just below 0 or just above 1 common.
    """
    config = AciConfig(
        draw(st.sampled_from([0.05, 0.1, 0.2, 0.25, 0.5, 0.9])),
        draw(st.sampled_from([0.01, 0.05, 0.1, 0.2, 0.3, 0.0])),
        initial_level=draw(hundredths(0, 100)),
        update_rule=draw(st.sampled_from(["simple", "weighted"])),
        decay=draw(hundredths(1, 99)),
    )
    reps, horizon = draw(st.integers(1, 3)), draw(st.integers(20, 60))
    row = st.lists(st.sampled_from([1.0, 0.0, 0.5]), min_size=horizon, max_size=horizon)
    levels = draw(st.lists(row, min_size=reps, max_size=reps))
    return config, np.array(levels), draw(st.booleans())


class TestLevelBatchProperties:
    # The third level is 0.04 - 0.04 = -6.9e-18, for which 1 - alpha_t rounds to 1.
    @example(batch=(AciConfig(0.2, 0.05, initial_level=0.03), np.array([[0.0, 1.0, 1.0]]),
                    False))
    @given(batch=level_batches())
    def test_rows_equal_literal_update_loop(self, batch):
        config, levels, strict = batch
        alphas, errs = run_level_batch(config, levels, strict)
        for r, row in enumerate(levels):
            state = init(config)
            expected_alphas, expected_errs = [], []
            for u in row:
                a = state.current_level
                following = update(state, int(u > 1.0 - a if strict else u >= 1.0 - a))
                expected_alphas.append(a)
                expected_errs.append(following.cumulative_err_count - state.cumulative_err_count)
                state = following
            np.testing.assert_array_equal(alphas[r], expected_alphas)
            np.testing.assert_array_equal(errs[r], expected_errs)


def bisected_alpha_star(spec, qhat, alpha):
    """Per-state oracle levels by bisection of the miscoverage function.

    Miscoverage ``P(score > qhat(1 - level))`` is nondecreasing in the level,
    0 at level 0 (``qhat(1) = inf``) and 1 at level 1 (``qhat(0) = -inf``); the
    oracle level is where it passes ``alpha``.
    """
    out = []
    for mean, scale in zip(spec.score_means, spec.score_scales):
        def misses(level):
            threshold = qhat.mean + qhat.scale * ndtri(1.0 - level)
            return ndtr((mean - threshold) / scale) > alpha

        lo, hi = 0.0, 1.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            lo, hi = (lo, mid) if misses(mid) else (mid, hi)
        out.append(hi)
    return np.array(out)


@st.composite
def alpha_star_cases(draw):
    """An HMM spec, a normal quantile function and a target level."""
    n = draw(st.integers(1, 5))
    unit = st.floats(0.2, 5.0)
    means = np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n)))
    scales = np.array(draw(st.lists(unit, min_size=n, max_size=n)))
    spec = HmmSpec(np.full((n, n), 1.0 / n), means, scales)
    qhat = NormalQuantile(draw(st.floats(-2.0, 2.0)), draw(unit))
    return spec, qhat, draw(st.floats(0.01, 0.99))


class TestAlphaStar:
    def test_self_calibrated_case(self):
        spec = HmmSpec(np.array([[1.0]]), np.array([0.0]), np.array([1.0]))
        stars = per_state_alpha_star(spec, NormalQuantile(), 0.1)
        assert stars[0] == pytest.approx(0.1, abs=1e-15)

    def test_wide_state_closed_form(self):
        # Scores N(0, 2^2) against a standard-normal quantile: the oracle level
        # is 1 - Phi(2 * z_0.9) = 0.005187061403669973 (16 significant digits).
        spec = HmmSpec(np.array([[1.0]]), np.array([0.0]), np.array([2.0]))
        stars = per_state_alpha_star(spec, NormalQuantile(), 0.1)
        assert stars[0] == pytest.approx(0.005187061403669973, abs=1e-15)

    @given(case=alpha_star_cases())
    def test_matches_bisection_of_miscoverage(self, case):
        spec, qhat, alpha = case
        np.testing.assert_allclose(per_state_alpha_star(spec, qhat, alpha),
                                   bisected_alpha_star(spec, qhat, alpha), rtol=0, atol=1e-9)

    def test_monotone_in_scale(self):
        prev = None
        for s in (0.5, 1.0, 1.5, 2.5):
            spec = HmmSpec(np.array([[1.0]]), np.array([0.0]), np.array([s]))
            star = per_state_alpha_star(spec, NormalQuantile(), 0.1)[0]
            if prev is not None:
                assert star < prev
            prev = star


class TestBiasEstimation:
    def test_ideal_single_state_bias_is_small(self):
        spec = HmmSpec(np.array([[1.0]]), np.array([0.0]), np.array([1.0]))
        cfg = AciConfig(0.1, 0.005)
        est = estimate_bias_terms(
            spec, NormalQuantile(), cfg, reps=100, rng=np.random.default_rng(31), horizon=1000
        )
        assert isinstance(est, BiasEstimate)
        assert est.b_hat <= 0.01
        # One state: the mean of the per-replication means is the state's mean.
        assert est.per_rep_err_mean.shape == (100,)
        assert np.mean(est.per_rep_err_mean) == pytest.approx(est.per_state_err_mean[0],
                                                              abs=1e-12)

    def test_sigma_b2_below_b_squared(self):
        spec = two_state_spec()
        cfg = AciConfig(0.1, 0.01)
        est = estimate_bias_terms(
            spec, NormalQuantile(), cfg, reps=120, rng=np.random.default_rng(32), horizon=500
        )
        assert est.sigma_b2_hat <= est.b_hat**2 + 1e-15

    def test_deterministic_given_seed(self):
        spec = two_state_spec()
        cfg = AciConfig(0.1, 0.01)
        kw = dict(reps=100, horizon=300)
        a = estimate_bias_terms(spec, NormalQuantile(), cfg, rng=np.random.default_rng(9), **kw)
        b = estimate_bias_terms(spec, NormalQuantile(), cfg, rng=np.random.default_rng(9), **kw)
        assert a.b_hat == b.b_hat and a.sigma_b2_hat == b.sigma_b2_hat

    def test_logs_its_start_each_block_and_its_end(self, caplog):
        cfg, kw = AciConfig(0.1, 0.02), dict(reps=100, horizon=700)  # burn-in 1000: 4 blocks
        quiet = estimate_bias_terms(two_state_spec(), NormalQuantile(), cfg,
                                    rng=np.random.default_rng(9), **kw)
        with caplog.at_level(logging.DEBUG, logger="adaptive_conformal.hmm"):
            est = estimate_bias_terms(two_state_spec(), NormalQuantile(), cfg,
                                      rng=np.random.default_rng(9), **kw)
        assert est.b_hat == quiet.b_hat and est.sigma_b2_hat == quiet.sigma_b2_hat
        assert [(r.levelno, r.getMessage()) for r in caplog.records] == [
            (logging.INFO, "bias terms: reps=100 burn_in=1000 horizon=700 blocks=4"),
            *((logging.DEBUG, f"block {k + 1} of 4: from step {k * BLOCK + 1}")
              for k in range(4)),
            (logging.INFO, f"bias terms: b_hat={est.b_hat:.6g} "
                           f"sigma_b2_hat={est.sigma_b2_hat:.6g}"),
        ]

    @pytest.mark.parametrize("spec,cfg,horizon", [
        pytest.param(two_state_spec(), AciConfig(0.1, 0.03), 700, id="unaligned-blocks"),
        pytest.param(two_state_spec(), AciConfig(0.1, 0.05), 100, id="horizon-below-block"),
        pytest.param(HmmSpec(np.array([[1.0]]), np.array([0.3]), np.array([1.5])),
                     AciConfig(0.2, 0.04), 777, id="one-state"),
        pytest.param(HmmSpec(symmetric_chain(3, 0.9), np.array([0.0, 0.3, -0.2]),
                             np.array([1.0, 2.0, 0.5])),
                     AciConfig(0.1, 0.03, update_rule="weighted", decay=0.9), 700,
                     id="weighted-three-state"),
    ])
    def test_equals_the_whole_run_composition(self, spec, cfg, horizon):
        # The block stream must reproduce, bit for bit, whole-run arrays from the
        # same draws run through the public batch API and averaged under tail masks.
        burn = math.ceil(20.0 / cfg.step_size)
        assert burn % BLOCK and (burn + horizon) % BLOCK
        reps, qhat = 100, NormalQuantile(0.1, 1.2)
        est = estimate_bias_terms(spec, qhat, cfg, reps, np.random.default_rng(17), horizon)
        states, scores = simulate_hmm_batch(spec, burn + horizon, reps, np.random.default_rng(17))
        levels, strict = exceedance_levels(qhat, scores)
        _, errs = run_level_batch(cfg, levels, strict)
        tail_states, tail_errs = states[:, burn:], errs[:, burn:]
        means = np.array([tail_errs[tail_states == a].mean() for a in range(spec.n_states)])
        dev = means - cfg.target_miscoverage
        assert np.array_equal(est.per_state_err_mean, means)
        assert np.array_equal(est.per_rep_err_mean, tail_errs.mean(axis=1))
        assert est.b_hat == float(np.max(np.abs(dev)))
        assert est.sigma_b2_hat == float(np.sum(stationary_distribution(spec.transition)
                                                * dev**2))

    def test_peak_memory_is_below_half_of_one_whole_run_array(self):
        reps, cfg, horizon = 200, AciConfig(0.1, 0.005), 6000  # burn-in 4000: 10,000 steps
        whole_run = 8 * reps * (math.ceil(20.0 / cfg.step_size) + horizon)  # 15.3 MiB
        tracemalloc.start()
        try:
            estimate_bias_terms(two_state_spec(), NormalQuantile(), cfg, reps,
                                np.random.default_rng(1), horizon)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < whole_run / 2

    def test_overflowing_score_names_its_absolute_position(self):
        # State 0 is rare and its scores overflow. With seed 0 the first one falls
        # past the first time block, so a block-relative step would be caught.
        spec = HmmSpec(np.array([[0.5, 0.5], [2e-6, 1.0 - 2e-6]]), np.array([1.7e308, 0.0]),
                       np.array([1e308, 1.0]))
        cfg = AciConfig(0.1, 0.02)
        with pytest.raises(DomainError, match="is inf$") as err:
            estimate_bias_terms(spec, NormalQuantile(), cfg, 100, np.random.default_rng(0), 3000)
        rep, step = map(int, re.search(r"replication (\d+), step (\d+)", str(err.value)).groups())
        assert step > BLOCK
        _, scores = simulate_hmm_batch(spec, 1000 + 3000, 100, np.random.default_rng(0))
        assert not np.isfinite(scores[rep - 1, step - 1])


class TestInputChecks:
    @pytest.mark.parametrize("call,error,message", [
        pytest.param(lambda: symmetric_chain(1, 0.9), DomainError,
                     "need at least 2 states, got 1", id="one-state-chain"),
        pytest.param(lambda: simulate_hmm_batch(two_state_spec(), 0, 1, np.random.default_rng(0)),
                     ConfigurationError, "horizon and reps must be >= 1", id="empty-batch"),
        pytest.param(lambda: per_state_alpha_star(two_state_spec(), NormalQuantile(), 1.0),
                     DomainError, "alpha must lie in (0, 1), got 1.0", id="alpha-star-level"),
        # State 0 is transient: the stationary start never puts a path there.
        pytest.param(lambda: estimate_bias_terms(
            HmmSpec(np.array([[0.99, 0.01, 0.0], [0.0, 0.9, 0.1], [0.0, 0.2, 0.8]]),
                    np.zeros(3), np.ones(3)),
            NormalQuantile(), AciConfig(0.1, 0.05), 100, np.random.default_rng(0), 50),
                     DomainError, "state 0 was never visited; increase reps or horizon",
                     id="unvisited-state"),
        pytest.param(lambda: bounds.large_deviation_rhs(0, 0.05, 0.8, 0.01, 0.1), DomainError,
                     "horizon must be >= 1, got 0", id="ld-horizon"),
        pytest.param(lambda: bounds.large_deviation_rhs(1000, 0.05, 1.0, 0.01, 0.1), DomainError,
                     "eta must lie in [0, 1), got 1.0", id="ld-eta"),
        pytest.param(lambda: bounds.large_deviation_rhs(1000, 0.05, 0.8, -0.01, 0.1),
                     DomainError, "bias moments must be nonnegative", id="ld-moments"),
        pytest.param(lambda: bounds.regret_rhs(1.0, 0.005, -0.001), DomainError,
                     "delta_mean must be nonnegative, got -0.001", id="regret-delta"),
        pytest.param(lambda: bounds.gamma_star(-0.001), DomainError,
                     "delta_mean must be nonnegative, got -0.001", id="gamma-star-delta"),
        pytest.param(lambda: bounds.ideal_expectation(0, 0.5, 0.005, 0.1), DomainError,
                     "t must be >= 1, got 0", id="ideal-t"),
        pytest.param(lambda: bounds.lattice_check([0.1], 1.0, 0.005), DomainError,
                     "alpha must lie in (0, 1), got 1.0", id="lattice-alpha"),
        pytest.param(lambda: bounds.lattice_check([0.1], 0.1, 0.0), DomainError,
                     "gamma must be positive, got 0.0", id="lattice-gamma"),
    ])
    def test_rejects_bad_arguments(self, call, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            call()


class TestBoundEvaluators:
    def test_large_deviation_value(self):
        # Frozen from an arbitrary-precision evaluation:
        # 1.46323125789 + 0.467506890403 = 1.9307381483.
        val = bounds.large_deviation_rhs(1000, 0.05, 0.8, 0.01, 0.1)
        assert val == pytest.approx(1.9307381483, abs=1e-9)
        assert val == pytest.approx(1.9306, abs=2e-4)  # matches the coarser quoted figure

    def test_large_deviation_limits(self):
        assert bounds.large_deviation_rhs(1000, 1e-12, 0.8, 0.01, 0.1) == pytest.approx(4.0, abs=1e-6)
        assert bounds.large_deviation_rhs(10**6, 0.05, 0.8, 0.01, 0.1) < 1e-100
        # An infinite epsilon would make the second exponent -inf / inf = nan.
        with pytest.raises(DomainError, match="epsilon must be finite and positive"):
            bounds.large_deviation_rhs(1000, math.inf, 0.8, 0.01, 0.1)

    def test_large_deviation_without_bias_keeps_only_the_first_term(self):
        # b = sigma_b2 = 0 zeroes the second term's denominator; that term is then 0.
        value = bounds.large_deviation_rhs(1000, 0.05, 0.8, 0.0, 0.0)
        assert value == 2.0 * math.exp(-1000 * 0.05**2 / 8.0)

    def test_regret_values(self):
        assert bounds.regret_rhs(1.0, 0.005, 0.001) == pytest.approx(0.2035, abs=1e-12)
        assert bounds.regret_rhs(1.0, 0.005, 0.0) == pytest.approx(0.0025, abs=1e-15)
        with pytest.raises(DomainError):
            bounds.regret_rhs(1.0, 0.0, 0.001)
        with pytest.raises(DomainError, match="lipschitz must be finite and positive"):
            bounds.regret_rhs(math.inf, 0.005, 0.001)

    def test_gamma_star(self):
        assert bounds.gamma_star(0.00125) == pytest.approx(0.05, abs=1e-15)
        assert bounds.gamma_star(0.0) == 0.0

    def test_ideal_expectation(self):
        assert bounds.ideal_expectation(1, 0.5, 0.005, 0.1) == 0.5
        assert bounds.ideal_expectation(2, 0.5, 0.005, 0.1) == pytest.approx(0.498, abs=1e-12)
        assert bounds.ideal_expectation(10**6, 0.5, 0.005, 0.1) == pytest.approx(0.1, abs=1e-12)

    def test_lattice_check(self):
        assert bounds.lattice_check([0.1], 0.1, 0.005)
        assert bounds.lattice_check([0.1005], 0.1, 0.005)
        assert not bounds.lattice_check([0.1003], 0.1, 0.005)


class TestLevelStationarity:
    def test_level_distribution_stabilizes_on_the_lattice(self):
        # Long-run histogram of the level in the integer-ratio setting: the
        # first and second halves must agree to total variation 0.02.
        cfg = AciConfig(0.1, 0.005)
        rng = np.random.default_rng(12)
        levels = rng.random((1, 2_020_000))
        alphas, _ = run_level_batch(cfg, levels, True)
        a = alphas[0, 20_000:]
        half = len(a) // 2
        spacing = cfg.step_size * cfg.target_miscoverage
        k = np.round((a - 0.1) / spacing).astype(int)
        lo = k.min()
        width = k.max() - lo + 1
        h1 = np.bincount(k[:half] - lo, minlength=width) / half
        h2 = np.bincount(k[half:] - lo, minlength=width) / (len(a) - half)
        assert 0.5 * float(np.abs(h1 - h2).sum()) <= 0.02

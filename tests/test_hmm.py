import math

import numpy as np
import pytest
from scipy.stats import kstest, norm

from adaptive_conformal import bounds
from adaptive_conformal.core import AciConfig, init, update
from adaptive_conformal.errors import (
    ConfigurationError,
    DomainError,
    ErgodicityError,
    NonReversibleChainError,
    RootFindingError,
)
from adaptive_conformal.hmm import (
    BiasEstimate,
    EmpiricalQuantile,
    HmmSpec,
    NormalQuantile,
    TheoryReport,
    estimate_bias_terms,
    exceedance_levels,
    per_state_alpha_star,
    run_fixed_quantile_aci,
    run_level_batch,
    simulate_hmm,
    simulate_hmm_batch,
    spectral_gap,
    stationary_distribution,
    symmetric_chain,
)


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
        s1 = simulate_hmm(spec, 500, np.random.default_rng(3))
        s2 = simulate_hmm(spec, 500, np.random.default_rng(3))
        np.testing.assert_array_equal(s1[0], s2[0])
        np.testing.assert_array_equal(s1[1], s2[1])

    def test_single_state_scores_are_iid_normal(self):
        spec = HmmSpec(np.array([[1.0]]), np.array([0.5]), np.array([2.0]))
        _, scores = simulate_hmm(spec, 10_000, np.random.default_rng(4))
        assert kstest(scores, norm(loc=0.5, scale=2.0).cdf).pvalue > 0.001

    def test_batch_marginals_match_stationary(self):
        spec = two_state_spec(p=0.8)
        states, _ = simulate_hmm_batch(spec, 400, 300, np.random.default_rng(5))
        freq = states.mean()
        assert abs(freq - 0.5) < 0.02


class TestQuantileFunctions:
    def test_normal_quantile_conventions(self):
        q = NormalQuantile(0.0, 1.0)
        assert q(-0.1) == -math.inf and q(1.1) == math.inf
        assert q(0.5) == pytest.approx(0.0, abs=1e-12)
        assert q(0.0) == -math.inf and q(1.0) == math.inf

    def test_empirical_quantile_wrapper(self):
        q = EmpiricalQuantile(np.array([3.0, 1.0, 2.0]))
        assert q(0.5) == 2.0
        assert q(-0.5) == -math.inf and q(1.5) == math.inf


class TestFixedQuantileRunner:
    def test_forced_errors_outside_unit_interval(self):
        qhat = NormalQuantile()
        # A covered step pushes the level above 1; the next error is forced to
        # 1 even though the score itself would have been covered.
        up = AciConfig(0.9, 0.2, initial_level=0.95)
        rep = run_fixed_quantile_aci(np.array([-10.0, -10.0]), qhat, up)
        assert rep.errs[0] == 0 and rep.alphas[1] > 1.0 and rep.errs[1] == 1
        # A missed step pushes the level below 0; the next error is forced to
        # 0 even though the score itself would have been missed.
        down = AciConfig(0.1, 0.05, initial_level=0.04)
        rep = run_fixed_quantile_aci(np.array([10.0, 10.0]), qhat, down)
        assert rep.errs[0] == 1 and rep.alphas[1] < 0.0 and rep.errs[1] == 0

    def test_trajectory_satisfies_bounds(self):
        rng = np.random.default_rng(8)
        cfg = AciConfig(0.1, 0.01, initial_level=0.4)
        scores = rng.normal(size=4000)
        rep = run_fixed_quantile_aci(scores, NormalQuantile(), cfg)
        assert np.all(rep.alphas >= -0.01 - 1e-15) and np.all(rep.alphas <= 1.01 + 1e-15)
        n = len(rep)
        assert abs(float(np.mean(rep.errs)) - 0.1) <= (0.6 + 0.01) / (n * 0.01)

    RANDOM_CFG = AciConfig(0.1, 0.02, initial_level=0.35)
    RANDOM_SCORES = np.random.default_rng(17).normal(size=(4, 600))

    @pytest.mark.parametrize("qhat,cfg,scores", [
        pytest.param(NormalQuantile(0.3, 1.4), RANDOM_CFG, RANDOM_SCORES, id="qhat0"),
        pytest.param(EmpiricalQuantile(np.linspace(-2, 2, 157)), RANDOM_CFG, RANDOM_SCORES,
                     id="qhat1"),
        # The third level is 0.04 - 0.04 = -6.9e-18, for which 1 - alpha_t rounds
        # to 1: the set must still be the whole line, not (-inf, max score].
        pytest.param(EmpiricalQuantile(np.array([0.0, 1.0, 2.0])),
                     AciConfig(0.2, 0.05, initial_level=0.03), np.array([[-5.0, 5.0, 5.0]]),
                     id="level-just-below-zero"),
    ])
    def test_batch_runner_matches_scalar_runner(self, qhat, cfg, scores):
        levels, strict = exceedance_levels(qhat, scores)
        alphas, errs = run_level_batch(cfg, levels, strict)
        for r in range(len(scores)):
            rep = run_fixed_quantile_aci(scores[r], qhat, cfg)
            np.testing.assert_array_equal(errs[r], rep.errs)
            np.testing.assert_array_equal(alphas[r], rep.alphas)
            for a, iv in zip(rep.alphas, rep.intervals):
                assert iv.is_whole_line == (a < 0.0)

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


class TestAlphaStar:
    def test_self_calibrated_case(self):
        spec = HmmSpec(np.array([[1.0]]), np.array([0.0]), np.array([1.0]))
        stars = per_state_alpha_star(spec, NormalQuantile(), 0.1)
        assert stars[0] == pytest.approx(0.1, abs=1e-9)

    def test_wide_state_closed_form(self):
        # Scores N(0, 2^2) against a standard-normal quantile: the oracle level
        # is 1 - Phi(2 * z_0.9) = 0.00518706...
        spec = HmmSpec(np.array([[1.0]]), np.array([0.0]), np.array([2.0]))
        stars = per_state_alpha_star(spec, NormalQuantile(), 0.1)
        assert stars[0] == pytest.approx(0.005187061403669524, abs=1e-9)

    def test_monotone_in_scale(self):
        prev = None
        for s in (0.5, 1.0, 1.5, 2.5):
            spec = HmmSpec(np.array([[1.0]]), np.array([0.0]), np.array([s]))
            star = per_state_alpha_star(spec, NormalQuantile(), 0.1)[0]
            if prev is not None:
                assert star < prev
            prev = star

    def test_degenerate_qhat_has_no_root(self):
        spec = HmmSpec(np.array([[1.0]]), np.array([10.0]), np.array([0.1]))
        qhat = EmpiricalQuantile(np.array([0.0, 1.0]))  # max far below the scores
        with pytest.raises(RootFindingError):
            per_state_alpha_star(spec, qhat, 0.1)


class TestBiasEstimation:
    def test_ideal_single_state_bias_is_small(self):
        spec = HmmSpec(np.array([[1.0]]), np.array([0.0]), np.array([1.0]))
        cfg = AciConfig(0.1, 0.005)
        est = estimate_bias_terms(
            spec, NormalQuantile(), cfg, reps=100, rng=np.random.default_rng(31), horizon=1000
        )
        assert isinstance(est, BiasEstimate)
        assert est.b_hat <= 0.01
        assert est.n_samples == 100 * 1000

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

    def test_regret_values(self):
        assert bounds.regret_rhs(1.0, 0.005, 0.001) == pytest.approx(0.2035, abs=1e-12)
        assert bounds.regret_rhs(1.0, 0.005, 0.0) == pytest.approx(0.0025, abs=1e-15)
        with pytest.raises(DomainError):
            bounds.regret_rhs(1.0, 0.0, 0.001)

    def test_gamma_star(self):
        assert bounds.gamma_star(0.00125) == pytest.approx(0.05, abs=1e-15)
        assert bounds.gamma_star(0.0) == 0.0

    def test_ideal_expectation(self):
        assert bounds.ideal_expectation(1, 0.5, 0.005, 0.1) == 0.5
        assert bounds.ideal_expectation(2, 0.5, 0.005, 0.1) == pytest.approx(0.498, abs=1e-12)
        assert bounds.ideal_expectation(10**6, 0.5, 0.005, 0.1) == pytest.approx(0.1, abs=1e-12)

    def test_bias_upper_bound(self):
        assert bounds.bias_upper_bound(2.0, 0.05, 0.001, 0.001) == pytest.approx(0.18, abs=1e-12)
        assert bounds.bias_upper_bound(2.0, 0.03, 0.0, 0.0) == pytest.approx(0.06, abs=1e-12)
        with pytest.raises(DomainError):
            bounds.bias_upper_bound(2.0, 0.0, 0.001, 0.001)

    def test_bias_bound_minimized_at_sqrt_eps(self):
        eps = 0.0016
        best = math.sqrt(eps)
        grid = np.linspace(0.005, 0.2, 400)
        vals = [bounds.bias_upper_bound(1.0, g, eps, 0.0) for g in grid]
        assert bounds.bias_upper_bound(1.0, best, eps, 0.0) <= min(vals) + 1e-12

    def test_lattice_check(self):
        assert bounds.lattice_check([0.1], 0.1, 0.005)
        assert bounds.lattice_check([0.1005], 0.1, 0.005)
        assert not bounds.lattice_check([0.1003], 0.1, 0.005)


class TestTheoryReport:
    def test_invariant_enforced(self):
        with pytest.raises(ConfigurationError):
            TheoryReport(
                b_hat=0.1, sigma_b2_hat=0.02, spectral_gap=0.5,
                alpha_star_by_state=np.array([0.1]),
            )


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

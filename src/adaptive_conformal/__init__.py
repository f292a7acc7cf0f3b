"""Adaptive conformal inference: online prediction sets under distribution shift.

The core object is a single adaptive miscoverage level moved after every
prediction by ``level += step_size * (target - err)``; everything else is
score machinery around it (conformity scores, calibration quantiles,
interval inversion) plus two end-to-end pipelines (rolling volatility
forecasting, sequential county prediction) and a Markov-chain harness that
validates the method's coverage guarantees numerically.
"""

from . import bounds
from .conformal import (
    AbsoluteScore,
    CqrScore,
    NormalizedScore,
    PredictionInterval,
    empirical_quantile,
    err_indicator,
)
from .core import (
    AciConfig,
    AciState,
    empirical_miscoverage,
    init,
    prop_bound,
    update,
)
from .election import (
    CountyRecord,
    QrModel,
    fit_quantile_regression,
    generate_synthetic_counties,
    pinball_loss,
    run_election_experiment,
    sample_ordering,
)
from .hmm import (
    EmpiricalQuantile,
    HmmSpec,
    NormalQuantile,
    TheoryReport,
    estimate_bias_terms,
    per_state_alpha_star,
    run_fixed_quantile_aci,
    simulate_hmm,
    spectral_gap,
    symmetric_chain,
    theory_suite,
)
from .metrics import (
    CoverageSummary,
    TrajectoryReport,
    average_coverage,
    bernoulli_band,
    local_coverage,
    summarize,
)
from .volatility import (
    GarchFit,
    GarchParams,
    fit_garch,
    forecast_next_sigma2,
    garch_neg_loglik,
    returns_from_prices,
    run_volatility_experiment,
    simulate_garch_prices,
    simulate_garch_returns,
)

__all__ = [
    "AbsoluteScore",
    "AciConfig",
    "AciState",
    "CountyRecord",
    "CoverageSummary",
    "CqrScore",
    "EmpiricalQuantile",
    "GarchFit",
    "GarchParams",
    "HmmSpec",
    "NormalQuantile",
    "NormalizedScore",
    "PredictionInterval",
    "QrModel",
    "TheoryReport",
    "TrajectoryReport",
    "average_coverage",
    "bernoulli_band",
    "bounds",
    "empirical_miscoverage",
    "empirical_quantile",
    "err_indicator",
    "estimate_bias_terms",
    "fit_garch",
    "fit_quantile_regression",
    "forecast_next_sigma2",
    "garch_neg_loglik",
    "generate_synthetic_counties",
    "init",
    "local_coverage",
    "per_state_alpha_star",
    "pinball_loss",
    "prop_bound",
    "returns_from_prices",
    "run_election_experiment",
    "run_fixed_quantile_aci",
    "run_volatility_experiment",
    "sample_ordering",
    "simulate_garch_prices",
    "simulate_garch_returns",
    "simulate_hmm",
    "spectral_gap",
    "summarize",
    "symmetric_chain",
    "theory_suite",
    "update",
]

__version__ = "0.1.0"

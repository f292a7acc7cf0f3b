"""Adaptive conformal inference: online prediction sets under distribution shift.

The package root is the online wrapper around any forecaster and needs only
numpy: the adaptive level, moved after every prediction by ``level +=
step_size * (target - err)`` (``core``), and the score machinery around it
(``conformal``). Everything else is imported from its own module, for example
``from adaptive_conformal.volatility import fit_garch``.
"""

from .conformal import (AbsoluteScore, CqrScore, NormalizedScore, PredictionInterval,
                        empirical_quantile, err_indicator)
from .core import AciConfig, AciState, empirical_miscoverage, init, prop_bound, update

__all__ = [
    "AbsoluteScore", "AciConfig", "AciState", "CqrScore", "NormalizedScore",
    "PredictionInterval", "empirical_miscoverage", "empirical_quantile", "err_indicator",
    "init", "prop_bound", "update",
]

__version__ = "0.1.0"

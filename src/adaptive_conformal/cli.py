"""Command-line entry point.

Four commands: ``volatility`` and ``election`` run the two experiment
pipelines (on user files or bundled synthetic data), ``simulate`` runs the
Markov-chain theory suite, and ``report`` summarizes a trajectory file.
Every command is deterministic given ``--seed``. Exit codes: 0 success,
2 usage error, 1 data or convergence error.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import os
import sys
from datetime import date, timedelta
from pathlib import Path

import numpy as np

from . import core, election, hmm, io, metrics, volatility
from .errors import AdaptiveConformalError, ConfigurationError

LOG_LEVELS = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}


def _configure_logging() -> None:
    name = os.environ.get("ACI_LOG", "error").lower()
    if name not in LOG_LEVELS:
        print(f"warning: unknown ACI_LOG value {name!r}; using 'error'", file=sys.stderr)
        name = "error"
    logging.basicConfig(stream=sys.stderr, level=LOG_LEVELS[name])


def _add_aci_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--alpha", type=float, default=0.1, help="target miscoverage")
    parser.add_argument("--gamma", type=float, default=core.DEFAULT_STEP_SIZE,
                        help="adaptation step size")
    parser.add_argument("--alpha1", type=float, default=None,
                        help="initial level (defaults to --alpha)")
    parser.add_argument("--update", choices=[core.SIMPLE, core.WEIGHTED],
                        default=core.SIMPLE, help="level update rule")
    parser.add_argument("--decay", type=float, default=0.95,
                        help="geometric weight for the weighted rule")
    parser.add_argument("--seed", type=_seed, default=0, help="random seed (nonnegative)")
    parser.add_argument("--out", required=True, help="output directory")


def _config_from_args(args) -> core.AciConfig:
    return core.AciConfig(
        target_miscoverage=args.alpha,
        step_size=args.gamma,
        initial_level=args.alpha1,
        update_rule=args.update,
        decay=args.decay,
    )


def _float_list(text: str) -> list[float]:
    if not (values := [float(tok) for tok in text.split(",") if tok]):
        raise argparse.ArgumentTypeError("needs at least one number")
    return values


def _seed(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {seed}")
    return seed


def _per_state(values: list[float], flag: str, n: int) -> np.ndarray:
    """One value per state: a single value is repeated, any other count must be ``n``."""
    if len(values) not in (1, n):
        raise ConfigurationError(f"{flag} has {len(values)} values; need 1 or --states = {n}")
    return np.resize(np.array(values, dtype=float), n)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aci",
        description="Online recalibration of conformal prediction sets under distribution shift",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    vol = sub.add_parser("volatility", help="rolling variance-forecast pipeline")
    src = vol.add_mutually_exclusive_group(required=True)
    src.add_argument("--prices", help="CSV of date,open rows")
    src.add_argument("--synthetic", type=int, metavar="N",
                     help="generate an N-day regime-switching price series")
    vol.add_argument("--window", type=int, default=1250, help="trailing fit/score window")
    vol.add_argument("--refit-every", type=int, default=1, help="steps between refits")
    vol.add_argument("--local-window", type=int, default=metrics.VOLATILITY_WINDOW,
                     help="centered window for the local coverage column")
    _add_aci_flags(vol)

    ele = sub.add_parser("election", help="sequential county CQR pipeline")
    src = ele.add_mutually_exclusive_group(required=True)
    src.add_argument("--counties", help="CSV of id,population,x1..xd,y_prev,y rows")
    src.add_argument("--synthetic", type=int, metavar="N", help="generate N synthetic counties")
    ele.add_argument("--covariates", type=int, default=11,
                     help="covariate count for synthetic counties")
    ele.add_argument("--sigma", type=float, default=0.0,
                     help="population-ordering bias (number or 'inf')")
    ele.add_argument("--warmup", type=int, default=500, help="counties observed before predicting")
    ele.add_argument("--cal-frac", type=float, default=0.25, help="calibration split fraction")
    ele.add_argument("--refit-every", type=int, default=1, help="steps between refits")
    ele.add_argument("--local-window", type=int, default=metrics.ELECTION_WINDOW,
                     help="centered window for the local coverage column")
    _add_aci_flags(ele)

    sim = sub.add_parser("simulate", help="Markov-chain theory suite")
    sim.add_argument("--states", type=int, default=2, help="number of environment states")
    sim.add_argument("--p", type=float, default=0.95, help="stay probability of the chain")
    sim.add_argument("--scales", type=_float_list, default=[1.0, 2.0],
                     help="per-state score scales (comma separated)")
    sim.add_argument("--means", type=_float_list, default=[0.0],
                     help="per-state score means (comma separated)")
    sim.add_argument("--qhat-mean", type=float, default=0.0, help="quantile-function mean")
    sim.add_argument("--qhat-scale", type=float, default=1.0, help="quantile-function scale")
    sim.add_argument("--horizon", type=int, default=5000, help="steps per replication")
    sim.add_argument("--reps", type=int, default=500, help="replications")
    sim.add_argument("--epsilon", type=_float_list, default=[0.02, 0.05],
                     help="deviation thresholds (comma separated)")
    sim.add_argument("--lipschitz", type=float, default=1.0,
                     help="Lipschitz constant used in the regret bound")
    _add_aci_flags(sim)

    rep = sub.add_parser("report", help="coverage summary of a trajectory file")
    rep.add_argument("--in", dest="infile", required=True, help="trajectory CSV")
    rep.add_argument("--window", type=int, default=None,
                     help="override the local-coverage window recorded in the file")
    rep.add_argument("--out", default=None, help="write the JSON here instead of stdout")
    return parser


def _outfile(args, name: str) -> Path:
    """``--out``/``name``: the directory is made only when a file is about to be written."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out / name


def _write_experiment_outputs(args, report) -> None:
    window = args.local_window
    io.write_trajectory(_outfile(args, "trajectory.csv"), report, window)
    io.write_json(_outfile(args, "summary.json"), metrics.summarize(report, window))


def _run_volatility(args) -> int:
    config = _config_from_args(args)
    metrics.check_local_window(args.local_window)
    prices_path = args.prices
    if args.synthetic is not None:
        rng = np.random.default_rng(args.seed)
        prices = volatility.default_regime_prices(args.synthetic, rng)
        first = date(2000, 1, 1)
        dates = [(first + timedelta(days=i)).isoformat() for i in range(len(prices))]
        prices_path = _outfile(args, "prices.csv")
        io.write_prices(prices_path, dates, prices)
    # Synthetic prices are read back so the run sees exactly what the file holds.
    dates, prices = io.read_prices(prices_path)
    labels = dates[1:]
    report = volatility.run_volatility_experiment(
        prices, config, window=args.window, refit_every=args.refit_every, labels=labels
    )
    _write_experiment_outputs(args, report)
    return 0


def _run_election(args) -> int:
    config = _config_from_args(args)
    metrics.check_local_window(args.local_window)
    rng = np.random.default_rng(args.seed)
    counties_path = args.counties
    if args.synthetic is not None:
        counties_path = _outfile(args, "counties.csv")
        io.write_counties(counties_path, election.generate_synthetic_counties(
            args.synthetic, args.covariates, seed=args.seed))
    # Synthetic counties are read back so the run sees exactly what the file holds.
    counties = io.read_counties(counties_path)
    populations = np.array([c.population for c in counties])
    ordering = election.sample_ordering(populations, args.sigma, rng)
    stream = election.cqr_prediction_stream(
        counties,
        ordering,
        config.target_miscoverage,
        warmup=args.warmup,
        cal_frac=args.cal_frac,
        refit_every=args.refit_every,
        rng=rng,
    )
    _write_experiment_outputs(args, election.replay_prediction_stream(stream, config))
    return 0


def _run_simulate(args) -> int:
    config = _config_from_args(args)
    n = args.states
    spec = hmm.HmmSpec(hmm.symmetric_chain(n, args.p), _per_state(args.means, "--means", n),
                       _per_state(args.scales, "--scales", n))
    qhat = hmm.NormalQuantile(args.qhat_mean, args.qhat_scale)
    report = hmm.theory_suite(
        spec,
        qhat,
        config,
        reps=args.reps,
        horizon=args.horizon,
        epsilons=args.epsilon,
        rng=np.random.default_rng(args.seed),
        lipschitz=args.lipschitz,
    )
    config_echo = {"alpha": config.target_miscoverage, "gamma": config.step_size,
                   "horizon": args.horizon, "reps": args.reps}
    io.write_json(_outfile(args, "theory.json"),
                  {**dataclasses.asdict(report), "config": config_echo})
    return 0


def _run_report(args) -> int:
    report, recorded_window = io.read_trajectory(args.infile)
    window = args.window
    if window is None:  # a file that records no window reads back as window 0
        window = recorded_window or metrics.VOLATILITY_WINDOW
    metrics.check_local_window(window)
    payload = metrics.summarize(report, window)
    if args.out is not None:
        io.write_json(args.out, payload)
    else:
        print(io.json_text(payload), end="")
    return 0


COMMANDS = {
    "volatility": _run_volatility,
    "election": _run_election,
    "simulate": _run_simulate,
    "report": _run_report,
}


def main(argv=None) -> int:
    _configure_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except (AdaptiveConformalError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory; reduce the problem size", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Span tracing of the package's layers from outside the package.

``Tracer.install`` replaces functions on the module attribute their caller
looks them up through (for example ``volatility.empirical_quantile`` as well
as ``conformal.empirical_quantile``) with wrappers that record a span (name,
start, end, parent) and layer counts. Spans stay in memory until the run
ends; ``write_spans`` then saves them and ``layer_metrics`` reduces them to
the per-layer metrics. Two scipy entry points, ``volatility.minimize`` and
``election.linprog``, are wrapped for counts only, so the solver time stays
inside the self time of the fit that calls it.
"""

from __future__ import annotations

import functools
import math
import os
import time
from collections import defaultdict

ROOT = "cli.main"

#: (module, attribute, span name). A span name shared by several entries
#: merges call sites that reach the same function through different modules.
SPANS = [
    ("volatility", "run_volatility_experiment", "volatility.run_volatility_experiment"),
    ("volatility", "fit_garch", "volatility.fit_garch"),
    ("volatility", "empirical_quantile", "conformal.empirical_quantile"),
    ("election", "empirical_quantile", "conformal.empirical_quantile"),
    ("conformal", "empirical_quantile", "conformal.empirical_quantile"),
    ("election", "cqr_prediction_stream", "election.cqr_prediction_stream"),
    ("election", "replay_prediction_stream", "election.replay_prediction_stream"),
    ("election", "fit_quantile_regression", "election.fit_quantile_regression"),
    ("core", "update", "core.update"),
    ("hmm", "theory_suite", "hmm.theory_suite"),
    ("hmm", "simulate_hmm_batch", "hmm.simulate_hmm_batch"),
    ("hmm", "exceedance_levels", "hmm.exceedance_levels"),
    ("hmm", "run_level_batch", "hmm.run_level_batch"),
    ("hmm", "per_state_alpha_star", "hmm.per_state_alpha_star"),
    ("bounds", "large_deviation_rhs", "bounds"),
    ("bounds", "regret_rhs", "bounds"),
    ("bounds", "gamma_star", "bounds"),
    ("metrics", "summarize", "metrics.summarize"),
    ("metrics", "local_coverage", "metrics.local_coverage"),
    ("io", "local_coverage", "metrics.local_coverage"),
    ("io", "write_trajectory", "io.write_trajectory"),
    ("io", "read_prices", "io.read_prices"),
    ("io", "read_counties", "io.read_counties"),
    ("io", "read_trajectory", "io.read_trajectory"),
]

#: Per-layer metrics in report order: name -> unit.
LAYER_METRICS = {
    "volatility.fit_garch.calls": "count",
    "volatility.fit_garch.self_s": "s",
    "volatility.fit_garch.p50_ms": "ms",
    "volatility.fit_garch.tail_ms": "ms",
    "volatility.fit_garch.tail_pct": "%",
    "volatility.fit_garch.fails": "count",
    "volatility.garch_nfev": "count",
    "volatility.run_volatility_experiment.self_s": "s",
    "election.fit_quantile_regression.calls": "count",
    "election.fit_quantile_regression.self_s": "s",
    "election.fit_quantile_regression.p50_ms": "ms",
    "election.fit_quantile_regression.tail_ms": "ms",
    "election.fit_quantile_regression.tail_pct": "%",
    "election.lp_iterations": "count",
    "election.ridge_fallbacks": "count",
    "election.cqr_prediction_stream.self_s": "s",
    "election.replay_prediction_stream.self_s": "s",
    "conformal.empirical_quantile.calls": "count",
    "conformal.empirical_quantile.self_s": "s",
    "conformal.empirical_quantile.mean_us": "us",
    "conformal.quantile_bytes": "bytes",
    "core.update.calls": "count",
    "core.update.self_s": "s",
    "hmm.theory_suite.self_s": "s",
    "hmm.simulate_hmm_batch.self_s": "s",
    "hmm.exceedance_levels.self_s": "s",
    "hmm.run_level_batch.self_s": "s",
    "hmm.per_state_alpha_star.self_s": "s",
    "hmm.level_updates": "count",
    "hmm.batch_bytes": "bytes",
    "bounds.self_s": "s",
    "metrics.summarize.self_s": "s",
    "metrics.local_coverage.self_s": "s",
    "io.write_trajectory.self_s": "s",
    "io.write_trajectory.bytes": "bytes",
    "io.read_prices.self_s": "s",
    "io.read_counties.self_s": "s",
    "io.read_trajectory.self_s": "s",
    "io.bytes_read": "bytes",
    "cli.self_s": "s",
}

#: Percentiles a tail may be reported at, lowest first.
TAIL_LADDER = (50.0, 75.0, 80.0, 90.0, 95.0, 99.0, 99.9)


def _array_bytes(result) -> int:
    items = result if isinstance(result, tuple) else (result,)
    return sum(int(getattr(a, "nbytes", 0)) for a in items)


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def _hooks(self):
        c = self.counts

        def quantile(args, result):
            c["conformal.quantile_bytes"] += 8 * len(args[0])

        def qr_fit(args, result):
            c["election.ridge_fallbacks"] += int(result.regularized)

        def hmm_arrays(args, result):
            c["hmm.batch_bytes"] += _array_bytes(result)

        def level_batch(args, result):
            c["hmm.level_updates"] += int(args[1].size)
            c["hmm.batch_bytes"] += _array_bytes(result)

        def wrote(args, result):
            c["io.write_trajectory.bytes"] += os.path.getsize(args[0])

        def read(args, result):
            c["io.bytes_read"] += os.path.getsize(args[0])

        return {
            "conformal.empirical_quantile": quantile,
            "election.fit_quantile_regression": qr_fit,
            "hmm.simulate_hmm_batch": hmm_arrays,
            "hmm.exceedance_levels": hmm_arrays,
            "hmm.run_level_batch": level_batch,
            "io.write_trajectory": wrote,
            "io.read_prices": read,
            "io.read_counties": read,
            "io.read_trajectory": read,
        }

    def wrap(self, name: str, fn, hook=None):
        names, starts, ends, parents, stack = (self.names, self.starts, self.ends,
                                               self.parents, self._stack)
        counts = self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(math.nan)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception:
                counts[name + ".fails"] += 1
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(args, result)
            return result

        return traced

    def install(self, package) -> None:
        """Wrap every function in ``SPANS`` plus the two counted solver calls."""
        hooks = self._hooks()
        for module_name, attr, name in SPANS:
            module = getattr(package, module_name)
            setattr(module, attr, self.wrap(name, getattr(module, attr), hooks.get(name)))
        counts = self.counts

        def count_solver(fn, key, field):
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                counts[key] += int(getattr(result, field))
                return result

            return counted

        package.volatility.minimize = count_solver(package.volatility.minimize,
                                                   "volatility.garch_nfev", "nfev")
        package.election.linprog = count_solver(package.election.linprog,
                                                "election.lp_iterations", "nit")

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("name,start,end,parent\n")
            for row in zip(self.names, self.starts, self.ends, self.parents):
                handle.write("%s,%.9f,%.9f,%d\n" % row)

    def layer_metrics(self) -> dict[str, float]:
        """Self time, call counts, latency percentiles and counts per layer."""
        durations = [e - s for s, e in zip(self.starts, self.ends)]
        child = [0.0] * len(durations)
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += durations[idx]
        self_s: dict[str, float] = defaultdict(float)
        per_call: dict[str, list[float]] = defaultdict(list)
        for idx, name in enumerate(self.names):
            self_s[name] += durations[idx] - child[idx]
            per_call[name].append(durations[idx])

        out = {name: 0.0 for name in LAYER_METRICS}
        for name, total in self_s.items():
            key = "cli" if name == ROOT else name
            if key + ".self_s" in out:
                out[key + ".self_s"] = total
            if key + ".calls" in out:
                out[key + ".calls"] = len(per_call[name])
        for name in ("volatility.fit_garch", "election.fit_quantile_regression"):
            p50, tail, pct = latency_summary(per_call.get(name, []))
            out[name + ".p50_ms"] = 1e3 * p50
            out[name + ".tail_ms"] = 1e3 * tail
            out[name + ".tail_pct"] = pct
        calls = per_call.get("conformal.empirical_quantile", [])
        if calls:
            out["conformal.empirical_quantile.mean_us"] = 1e6 * sum(calls) / len(calls)
        for key, value in self.counts.items():
            if key in out:
                out[key] = value
        return out


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with at least ten samples beyond it (p50 floor)."""
    best = TAIL_LADDER[0]
    for pct in TAIL_LADDER:
        if n * (100.0 - pct) >= 1000.0 - 1e-9:
            best = pct
    return best


def nearest_rank(sorted_values: list[float], pct: float) -> float:
    k = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[k - 1]


def latency_summary(values: list[float]) -> tuple[float, float, float]:
    """(median, tail, tail percentile) of ``values``; zeros when empty."""
    if not values:
        return 0.0, 0.0, 0.0
    ordered = sorted(values)
    pct = tail_percentile(len(ordered))
    return nearest_rank(ordered, 50.0), nearest_rank(ordered, pct), pct

"""Benchmark of the ``aci`` command line, one workload per invocation.

Run from the root of a checkout:

    python3 perfbench/run.py --workload vol-garch --seed 1 --seconds 20 --trace 0

The runner writes the workload's inputs from ``--seed`` (cached per seed
under ``.perfbench/inputs``), then repeats the workload's commands, each
repetition in a fresh interpreter (``worker.py``), until ``--seconds`` of
repetitions have run. Every repetition's outputs are checked against the
inputs. With ``--trace 0`` it reports the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced repetitions and reports the
per-layer metrics and the tracing overhead. The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--smoke`` shrinks every workload to a few seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads
from tracer import LAYER_METRICS, latency_summary

HERE = Path(__file__).resolve().parent
#: Hard ceiling on one invocation, below the 180 s any run must finish in.
HARD_LIMIT_S = 165.0
#: Set-up-only interpreters started before the timed repetitions.
SETUP_SAMPLES = 1
MIN_REPS = 2

END_TO_END = {
    "run_s": "s",
    "steps_per_s": "steps/s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "coverage_err": "ratio",
}
TRACE_METRICS = {
    "trace.run_s": "s",
    "trace.untraced_run_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_pct": "%",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for testing")
    return parser.parse_args(argv)


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    # One process, no extra threads; fixed log level so outputs do not vary.
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               ACI_LOG="error")
    return env


class Runner:
    """Launches worker repetitions and checks their outputs."""

    def __init__(self, root: Path, w: workloads.Workload, seed: int, work: Path,
                 inputs: dict[str, Path], hard_deadline: float):
        self.root, self.w, self.seed, self.work, self.inputs = root, w, seed, work, inputs
        self.hard_deadline = hard_deadline
        self.reports = root / ".perfbench" / "reports"
        self.reports.mkdir(parents=True, exist_ok=True)
        self.env = worker_env()
        self.outcomes = {}
        if w.kind == "volatility":
            self.outcomes = checks.realized_volatility(inputs["prices"])
        elif w.kind == "election":
            self.outcomes = checks.county_votes(inputs["counties"])
        self.quality: dict = {}
        self.count = 0
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def _folder(self) -> Path:
        folder = self.work / f"rep{self.count}"
        self.count += 1
        (folder / "out").mkdir(parents=True)
        return folder

    def launch(self, folder: Path, commands: list[list[str]], traced: bool) -> dict | None:
        """Run one worker; None when it crashed or ran out of time."""
        spans = self.reports / f"{self.w.name}-seed{self.seed}-{folder.name}-spans.csv"
        job = {"root": str(self.root), "commands": commands, "trace": traced,
               "result": str(folder / "result.json"), "spans": str(spans)}
        (folder / "job.json").write_text(json.dumps(job), encoding="utf-8")
        timeout = max(1.0, self.hard_deadline - time.monotonic())
        wall = time.monotonic()
        try:
            proc = subprocess.run([sys.executable, str(HERE / "worker.py"),
                                   str(folder / "job.json")],
                                  cwd=self.root, env=self.env, stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            self.messages.append(f"{folder.name}: timed out after {timeout:.0f} s")
            return None
        if proc.returncode != 0:
            self.messages.append(f"{folder.name}: worker exited {proc.returncode}: "
                                 + proc.stderr.strip()[-400:])
            return None
        result = json.loads((folder / "result.json").read_text(encoding="utf-8"))
        result["wall_s"] = time.monotonic() - wall
        return result

    def setup_sample(self) -> float | None:
        result = self.launch(self._folder(), [], traced=False)
        return None if result is None else result["setup_s"]

    def repetition(self, traced: bool) -> dict | None:
        folder = self._folder()
        out = folder / "out"
        commands = self.w.commands(self.inputs, out, self.seed)
        self.attempted += len(commands)
        result = self.launch(folder, commands, traced)
        if result is None:
            self.failed += len(commands)
            return None
        failed = [code != 0 for code in result["exit_codes"]]
        if any(failed):
            self.messages.append(f"{folder.name}: exit codes {result['exit_codes']}")
        else:
            for index, problems in self.check(out).items():
                failed[index] = bool(problems)
                self.messages.extend(problems)
        self.failed += sum(failed)
        result["digest"] = checks.digest(out)
        return result

    def check(self, out: Path) -> dict[int, list[str]]:
        """Failure messages keyed by the index of the command they blame."""
        s = self.w.sizes
        if self.w.kind == "simulate":
            problems, self.quality = checks.check_theory(out, s.horizon, s.reps)
            return {0: problems}
        problems, self.quality = checks.check_trajectory(out, self.outcomes, self.w.steps)
        result = {0: problems}
        if self.w.with_report:
            result[1] = checks.check_report(out)
        return result


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def run_workload(args, root: Path) -> dict:
    w = workloads.workload(args.workload, args.smoke)
    start = time.monotonic()
    state = root / ".perfbench"
    inputs = workloads.ensure_inputs(w, args.seed, state / "inputs")
    work = state / "work" / f"{w.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    runner = Runner(root, w, args.seed, work, inputs, start + HARD_LIMIT_S)
    try:
        setup = [s for s in (runner.setup_sample() for _ in range(SETUP_SAMPLES))
                 if s is not None]
        plain, traced = [], []
        begin = time.monotonic()
        while time.monotonic() < start + HARD_LIMIT_S:
            want_trace = bool(args.trace) and len(traced) < len(plain)
            rep = runner.repetition(want_trace)
            if rep is None:
                break
            (traced if want_trace else plain).append(rep)
            setup.append(rep["setup_s"])
            enough = len(plain) >= MIN_REPS if not args.trace else (plain and traced)
            elapsed = time.monotonic() - begin
            if enough and elapsed + rep["wall_s"] > args.seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return summarize(args, w, runner, setup, plain, traced, state)


def summarize(args, w, runner, setup, plain, traced, state: Path) -> dict:
    run_s = [r["run_s"] for r in plain]
    report = {
        "workload": w.name,
        "seed": args.seed,
        "smoke": args.smoke,
        "trace": args.trace,
        "steps": w.steps,
        "commands": w.commands(runner.inputs, Path("OUT"), args.seed),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "failures": runner.messages[:20],
        "setup_s_samples": setup,
        "run_s_samples": run_s,
        "quality": runner.quality,
    }
    metrics = {}
    if run_s and setup:
        med = statistics.median(run_s)
        _, tail, pct = latency_summary(run_s)
        q1, q3 = quartiles(run_s)
        report["run_s_stats"] = {"median": med, "q1": q1, "q3": q3, "tail": tail,
                                 "tail_pct": pct, "n": len(run_s)}
        coverage = runner.quality.get("b_hat", runner.quality.get("miss_rate"))
        metrics = {
            "run_s": med,
            "steps_per_s": w.steps / med,
            "setup_s": statistics.median(setup),
            "peak_rss_mib": statistics.median(r["peak_rss_kib"] for r in plain) / 1024.0,
            "coverage_err": coverage,
        }
    digests = [r["digest"] for r in plain + traced]
    report["digests"] = digest_record(state, w.name, args, digests)
    if args.trace:
        layers = {}
        if traced and run_s:
            for name in LAYER_METRICS:
                layers[name] = statistics.median(r["layers"][name] for r in traced)
            t_run = statistics.median(r["run_s"] for r in traced)
            u_run = statistics.median(run_s)
            layers.update({"trace.run_s": t_run, "trace.untraced_run_s": u_run,
                           "trace.overhead_s": t_run - u_run,
                           "trace.overhead_pct": 100.0 * (t_run - u_run) / u_run})
        report["layers"] = layers
        units = {**LAYER_METRICS, **TRACE_METRICS}
        values = layers
    else:
        units, values = END_TO_END, metrics
    report["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in values.items()
                         if v is not None}
    report["complete"] = len(report["metrics"]) == len(units)
    return report


def digest_record(state: Path, name: str, args, digests: list[str]) -> dict:
    """Output digests, compared across repetitions and with earlier runs of the seed.

    Information only: a legitimate change to the outputs is not a failure.
    """
    record = {"identical_across_reps": len(set(digests)) <= 1,
              "digest": digests[0] if digests else None, "matches_earlier_run": None}
    if not digests:
        return record
    folder = state / "digests"
    folder.mkdir(parents=True, exist_ok=True)
    path = folder / f"{name}-seed{args.seed}{'-smoke' if args.smoke else ''}.txt"
    if path.exists():
        record["matches_earlier_run"] = path.read_text(encoding="utf-8").strip() == digests[0]
    else:
        path.write_text(digests[0] + "\n", encoding="utf-8")
    return record


def print_report(report: dict) -> None:
    print(f"workload {report['workload']} seed {report['seed']} trace {report['trace']}"
          f"{' smoke' if report['smoke'] else ''}: {len(report['run_s_samples'])} untraced "
          f"repetitions, {report['steps']} steps each")
    stats = report.get("run_s_stats")
    if stats:
        print(f"  run_s median {stats['median']:.4f} s, quartiles {stats['q1']:.4f}"
              f"..{stats['q3']:.4f}, p{stats['tail_pct']:g} {stats['tail']:.4f} "
              f"(n={stats['n']})")
    for name, m in report["metrics"].items():
        print(f"  {name:<48} {m['value']:.6g} {m['unit']}")
    print(f"  failed_ratio {report['failed']}/{report['attempted']} commands")
    d = report["digests"]
    print(f"  output digest {str(d['digest'])[:16]} identical across repetitions: "
          f"{d['identical_across_reps']}, matches earlier run of this seed: "
          f"{d['matches_earlier_run']}")
    for line in report["failures"]:
        print(f"  FAILED: {line}")


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "adaptive_conformal" / "cli.py").is_file():
        print(f"error: no adaptive_conformal package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    report = run_workload(args, root)
    if not report["complete"] or report["attempted"] == 0:
        print_report(report)
        print("error: the benchmark could not measure every metric", file=sys.stderr)
        return 1
    name = f"{report['workload']}-seed{report['seed']}-trace{report['trace']}.json"
    (root / ".perfbench" / "reports" / name).write_text(json.dumps(report, indent=2, default=str), encoding="utf-8")
    print_report(report)
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

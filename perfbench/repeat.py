"""Repeat ``run.py`` over several seeds and report each metric's spread.

Run from the root of a checkout:

    python3 perfbench/repeat.py --runs 10 --seconds 20 [--workload vol-garch ...]
        [--trace 0] [--first-seed 1] [--save perfbench/baseline.json]

For every workload it runs ``run.py`` once per seed (``--first-seed``,
``--first-seed + 1``, ...), one run at a time, and prints each metric's
median and quartile spread, ``(q3 - q1) / median`` with the quartiles of
``statistics.quantiles(values, n=4)``. ``--save`` writes the medians,
quartiles and machine description as a baseline file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent


def machine() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }


def one_run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=200)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-400:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--save", type=Path)
    args = parser.parse_args()
    names = args.workload or list(workloads.WORKLOADS)
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    result = {"machine": machine(), "seconds": args.seconds, "trace": args.trace,
              "seeds": list(range(args.first_seed, args.first_seed + args.runs)),
              "held_out_seed": workloads.HELD_OUT_SEED, "workloads": {}}
    for name in names:
        runs = [one_run(name, seed, args.seconds, args.trace) for seed in result["seeds"]]
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        entry = {"failed": failed, "attempted": attempted,
                 "correct": all(r["correct"] for r in runs), "metrics": {}}
        print(f"{name}: {failed}/{attempted} commands failed")
        for metric, first in runs[0]["metrics"].items():
            s = spread([r["metrics"][metric]["value"] for r in runs])
            s["unit"] = first["unit"]
            entry["metrics"][metric] = s
            text = "-" if s["spread"] is None else f"{s['spread']:.4f}"
            print(f"  {metric:<44} median {s['median']:<12.6g} {s['unit']:<8} "
                  f"q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} spread {text}")
        result["workloads"][name] = entry
        sys.stdout.flush()
    if args.save:
        args.save.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

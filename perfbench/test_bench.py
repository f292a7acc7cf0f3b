"""Smoke test of the benchmark itself: ``python3 -m pytest -q perfbench/test_bench.py``.

Runs every workload at ``--smoke`` sizes, untraced and traced, from the
repository root, and checks the result line against ``BENCHMARK.json``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from tracer import Tracer, latency_summary, tail_percentile

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=170)


@pytest.fixture(scope="module")
def smoke_result():
    """Result line of one smoke run per (workload, trace), run once per module."""
    cache = {}

    def get(workload, trace):
        if (workload, trace) not in cache:
            proc = run_bench(ROOT, workload, trace)
            assert proc.returncode == 0, proc.stderr
            cache[workload, trace] = json.loads(proc.stdout.strip().splitlines()[-1])
        return cache[workload, trace]

    return get


WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# At smoke size the election level lands on tiny negative values such as
# -4.9e-17: the pipeline then forces err = 0 (cover everything) while the
# interval it writes is the finite one for level 1 - alpha_t == 1.0, so the
# benchmark's err check rightly fails. Fixing it belongs in the package.
KNOWN_DEFECT = pytest.mark.xfail(strict=True, reason="err forced to 0 for alpha_t "
                                 "just below 0 while the written interval is finite")


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_metric(smoke_result, workload, trace):
    result = smoke_result(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["correct"] == (result["failed"] == 0)
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [
    pytest.param(w, marks=KNOWN_DEFECT) if w == "election-cqr" else w for w in WORKLOADS])
def test_smoke_outputs_pass_every_check(smoke_result, workload, trace):
    result = smoke_result(workload, trace)
    assert result["correct"] and result["failed"] == 0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "vol-garch", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    assert tail_percentile(120) == 90.0
    assert tail_percentile(250) == 95.0
    assert tail_percentile(60) == 80.0
    assert tail_percentile(5) == 50.0
    values = [float(v) for v in range(1, 101)]
    assert latency_summary(values) == (50.0, 90.0, 90.0)


def test_self_time_subtracts_child_spans():
    tracer = Tracer()
    tracer.names = ["cli.main", "volatility.fit_garch", "volatility.fit_garch"]
    tracer.starts = [0.0, 1.0, 3.0]
    tracer.ends = [10.0, 2.0, 5.0]
    tracer.parents = [-1, 0, 0]
    layers = tracer.layer_metrics()
    assert layers["cli.self_s"] == 7.0
    assert layers["volatility.fit_garch.self_s"] == 3.0
    assert layers["volatility.fit_garch.calls"] == 2

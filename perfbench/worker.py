"""One measured repetition, run in a fresh interpreter by ``run.py``.

Usage: ``python3 perfbench/worker.py JOB.json``. The job names the checkout
root, the ``aci`` argument vectors to run in order, whether to trace, and
where to write the result. The worker times the import of
``adaptive_conformal.cli`` plus building its parser (set-up), then the
commands through ``cli.main`` (the run), and records its peak resident
memory. A traced worker also writes its spans to the job's ``spans`` path.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path


def run_command(cli, argv: list[str]) -> int:
    try:
        return int(cli.main(argv))
    except SystemExit as exc:  # argparse usage errors
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a traceback is a failed command, not a crashed benchmark
        traceback.print_exc()
        return 1


def main() -> int:
    job = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    src = Path(job["root"]) / "src"
    sys.path.insert(0, str(src))

    start = time.perf_counter()
    import adaptive_conformal
    from adaptive_conformal import cli

    cli.build_parser()
    setup_s = time.perf_counter() - start
    if Path(adaptive_conformal.__file__).resolve().parent.parent != src.resolve():
        print(f"error: imported adaptive_conformal from {adaptive_conformal.__file__}",
              file=sys.stderr)
        return 2

    tracer = None
    if job["trace"]:
        from tracer import ROOT, Tracer

        tracer = Tracer()
        tracer.install(adaptive_conformal)
        cli.main = tracer.wrap(ROOT, cli.main)

    begin = time.perf_counter()
    codes = [run_command(cli, argv) for argv in job["commands"]]
    run_s = time.perf_counter() - begin

    result = {
        "setup_s": setup_s,
        "run_s": run_s,
        "exit_codes": codes,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    out = Path(job["result"])
    if tracer is not None:
        tracer.write_spans(job["spans"])
        result["layers"] = tracer.layer_metrics()
    out.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

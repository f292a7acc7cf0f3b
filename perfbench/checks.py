"""Correctness checks on one repetition's outputs, from the generated inputs.

Every check returns a list of failure messages; an empty list is a pass.
Realized outcomes are recomputed here from the input files (``r_t^2`` from
the price file, ``y`` from the county file by label), never taken from the
program. Outputs carry 12 significant digits, so an outcome within a
relative ``TIE_TOL`` of an interval end is counted as a tie and not judged.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

TIE_TOL = 1e-9


def read_trajectory(path: Path) -> tuple[dict[str, str], list[dict[str, str]]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    meta = {}
    for line in lines:
        if line.startswith("#"):
            for token in line[1:].split()[1:]:
                key, _, value = token.partition("=")
                meta[key] = value
    rows = list(csv.DictReader(l for l in lines if not l.startswith("#")))
    return meta, rows


def realized_volatility(prices_csv: Path) -> dict[str, float]:
    """Label (the return's end date) -> squared simple return."""
    with open(prices_csv, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))[1:]
    out = {}
    for (_, p0), (day, p1) in zip(rows, rows[1:]):
        prev, cur = float(p0), float(p1)
        r = (cur - prev) / prev
        out[day] = r * r
    return out


def county_votes(counties_csv: Path) -> dict[str, float]:
    with open(counties_csv, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))[1:]
    return {row[0]: float(row[-1]) for row in rows}


def _tie(y: float, bound: float) -> bool:
    return math.isfinite(bound) and abs(y - bound) <= TIE_TOL * max(abs(y), abs(bound))


def check_trajectory(out: Path, outcomes: dict[str, float],
                     expected_rows: int) -> tuple[list[str], dict]:
    """Row count, err bits against recomputed outcomes, and the coverage bound."""
    failures: list[str] = []
    meta, rows = read_trajectory(out / "trajectory.csv")
    if len(rows) != expected_rows:
        failures.append(f"trajectory has {len(rows)} rows, expected {expected_rows}")
    ties = mismatches = 0
    errs = []
    for row in rows:
        y = outcomes.get(row["label"])
        if y is None:
            failures.append(f"unknown label {row['label']!r}")
            break
        lower, upper, err = float(row["lower"]), float(row["upper"]), int(row["err"])
        errs.append(err)
        if _tie(y, lower) or _tie(y, upper):
            ties += 1
            continue
        outside = not (lower <= y <= upper)
        if outside != (err == 1):
            mismatches += 1
    if mismatches:
        failures.append(f"{mismatches} rows whose err disagrees with the recomputed outcome")
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    if summary.get("prop_bound_satisfied") is not True:
        failures.append("summary.json: prop_bound_satisfied is not true")
    if summary.get("n_steps") != len(rows):
        failures.append("summary.json: n_steps disagrees with the trajectory")
    alpha = float(meta.get("target_miscoverage", "nan"))
    miss = sum(errs) / len(errs) if errs else None
    info = {
        "miss_rate": miss,
        "abs_gap": None if miss is None else abs(miss - alpha),
        "max_local_deviation": summary.get("max_local_deviation"),
        "ties": ties,
    }
    return failures, info


def check_report(out: Path) -> list[str]:
    """``aci report`` on the trajectory agrees with the pipeline's own summary."""
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    return [f"report.json: {key} disagrees with summary.json"
            for key in ("n_steps", "prop_bound_satisfied", "average_coverage")
            if report.get(key) != summary.get(key)]


def check_theory(out: Path, horizon: int, reps: int) -> tuple[list[str], dict]:
    """Large-deviation bounds below 1 dominate exceedances; sigma_b^2 <= b^2."""
    failures: list[str] = []
    theory = json.loads((out / "theory.json").read_text(encoding="utf-8"))
    b, s2 = float(theory["b_hat"]), float(theory["sigma_b2_hat"])
    # theory.json rounds to 12 significant digits; allow that much slack.
    if s2 > b * b * (1.0 + 1e-9):
        failures.append(f"sigma_b2_hat {s2} exceeds b_hat^2 {b * b}")
    values = theory["bound_values"]
    prefix = "large_deviation_rhs_eps_"
    checked = 0
    for key, rhs in values.items():
        if not key.startswith(prefix):
            continue
        empirical = values["empirical_exceedance_eps_" + key[len(prefix):]]
        if float(rhs) < 1.0:
            checked += 1
            if float(empirical) > float(rhs):
                failures.append(f"{key} = {rhs} below empirical exceedance {empirical}")
    config = theory["config"]
    if config["horizon"] != horizon or config["reps"] != reps:
        failures.append("theory.json: config echo disagrees with the command")
    return failures, {"b_hat": b, "sigma_b2_hat": s2, "bounds_checked": checked}


def digest(out: Path) -> str:
    """SHA-256 over the names and bytes of every output file, in name order."""
    h = hashlib.sha256()
    for path in sorted(p for p in out.iterdir() if p.is_file()):
        h.update(path.name.encode())
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()

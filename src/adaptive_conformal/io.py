"""CSV/JSON serialization for price series, county tables, and trajectories.

Numbers are written with 12 significant digits, infinities as ``inf`` /
``-inf``. Trajectory files carry the calibration configuration in ``#``
comment lines above the header so a file round-trips to an equivalent
report without side channels.
"""

from __future__ import annotations

import csv
import json
import math
from datetime import date
from pathlib import Path

import numpy as np

from .conformal import PredictionInterval
from .core import AciConfig
from .errors import ConfigurationError, ParseError, ValidationError
from .metrics import CoverageSummary, TrajectoryReport, local_coverage

PRICE_HEADER = ["date", "open"]
TRAJECTORY_HEADER = ["t", "label", "alpha_t", "err", "lower", "upper", "local_cov"]


def format_number(x: float) -> str:
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    if math.isnan(x):
        return "nan"
    return f"{x:.12g}"


def parse_number(text: str, line: int) -> float:
    try:
        return float(text)
    except ValueError:
        raise ParseError(f"not a number: {text!r}", line=line) from None


def round_trip_floats(obj):
    """Round floats to the serialized 12-digit precision; non-finite to strings."""
    if isinstance(obj, float):
        if math.isfinite(obj):
            return float(format_number(obj))
        return format_number(obj)
    if isinstance(obj, dict):
        return {k: round_trip_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round_trip_floats(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [round_trip_floats(float(v)) for v in obj]
    return obj


def write_json(path, payload: dict) -> None:
    text = json.dumps(round_trip_floats(payload), sort_keys=True, indent=2)
    Path(path).write_text(text + "\n", encoding="utf-8")


def read_prices(path) -> tuple[list[str], np.ndarray]:
    """Parse a ``date,open`` file into (ISO dates, opens)."""
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    if not rows or rows[0] != PRICE_HEADER:
        raise ParseError(f"expected header {','.join(PRICE_HEADER)!r}", line=1)
    dates: list[str] = []
    opens: list[float] = []
    prev: date | None = None
    for i, row in enumerate(rows[1:], start=2):
        if len(row) != 2:
            raise ParseError(f"expected 2 columns, got {len(row)}", line=i)
        try:
            day = date.fromisoformat(row[0])
        except ValueError:
            raise ParseError(f"bad ISO date: {row[0]!r}", line=i) from None
        if prev is not None and day <= prev:
            raise ValidationError(f"dates must be strictly increasing at {row[0]}", line=i)
        prev = day
        value = parse_number(row[1], i)
        if not value > 0.0:
            raise ValidationError(f"open price must be positive, got {row[1]}", line=i)
        dates.append(row[0])
        opens.append(value)
    if not dates:
        raise ParseError("file has no data rows", line=1)
    return dates, np.array(opens)


def write_prices(path, dates: list[str], opens) -> None:
    lines = [",".join(PRICE_HEADER)]
    for d, p in zip(dates, np.asarray(opens, dtype=float)):
        lines.append(f"{d},{format_number(p)}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _county_header(d: int) -> list[str]:
    return ["id", "population"] + [f"x{j}" for j in range(1, d + 1)] + ["y_prev", "y"]


def read_counties(path):
    """Parse an ``id,population,x1..xd,y_prev,y`` table into CountyRecord rows."""
    from .election import CountyRecord

    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    if not rows:
        raise ParseError("empty file", line=1)
    header = rows[0]
    d = len(header) - 4
    if d < 1 or header != _county_header(d):
        raise ParseError("expected header id,population,x1,...,xd,y_prev,y", line=1)
    records = []
    for i, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise ParseError(f"expected {len(header)} columns, got {len(row)}", line=i)
        population = parse_number(row[1], i)
        covariates = np.array([parse_number(v, i) for v in row[2 : 2 + d]])
        y_prev = parse_number(row[2 + d], i)
        y = parse_number(row[3 + d], i)
        if not population > 0.0:
            raise ValidationError(f"population must be positive, got {row[1]}", line=i)
        if not y_prev > 0.0:
            raise ValidationError(f"y_prev must be positive, got {row[2 + d]}", line=i)
        if y < 0.0:
            raise ValidationError(f"y must be nonnegative, got {row[3 + d]}", line=i)
        records.append(
            CountyRecord(id=row[0], population=population, covariates=covariates,
                         y_prev=y_prev, y=y)
        )
    if not records:
        raise ParseError("file has no data rows", line=1)
    return records


def write_counties(path, counties) -> None:
    d = len(counties[0].covariates) if counties else 1
    lines = [",".join(_county_header(d))]
    for c in counties:
        fields = [c.id, format_number(c.population)]
        fields += [format_number(v) for v in c.covariates]
        fields += [format_number(c.y_prev), format_number(c.y)]
        lines.append(",".join(fields))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _config_meta(config: AciConfig) -> str:
    return (
        "# aci"
        f" target_miscoverage={format_number(config.target_miscoverage)}"
        f" step_size={format_number(config.step_size)}"
        f" initial_level={format_number(config.initial_level)}"
        f" update_rule={config.update_rule}"
        f" decay={format_number(config.decay)}"
    )


def write_trajectory(path, report: TrajectoryReport, local_window: int) -> None:
    """Serialize a trajectory with its configuration echoed in comment lines."""
    n = len(report)
    local = np.full(n, math.nan)
    if 2 <= local_window <= n and local_window % 2 == 0:
        values = local_coverage(report.errs, local_window)
        local[local_window // 2 - 1 : local_window // 2 - 1 + len(values)] = values
    lines = [
        _config_meta(report.config_echo),
        f"# run local_window={local_window} valid={str(report.valid).lower()}",
        ",".join(TRAJECTORY_HEADER),
    ]
    for i in range(n):
        iv = report.intervals[i]
        cov = "" if math.isnan(local[i]) else format_number(local[i])
        lines.append(
            ",".join(
                [
                    str(i + 1),
                    report.step_labels[i],
                    format_number(float(report.alphas[i])),
                    str(int(report.errs[i])),
                    format_number(iv.lower),
                    format_number(iv.upper),
                    cov,
                ]
            )
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _parse_meta(lines: list[tuple[int, str]]) -> dict[str, tuple[str, int]]:
    """Map each ``key=value`` token of the comment lines to (value, line number)."""
    meta: dict[str, tuple[str, int]] = {}
    for number, line in lines:
        for token in line[1:].split()[1:]:
            key, _, value = token.partition("=")
            meta[key] = (value, number)
    return meta


def read_trajectory(path) -> tuple[TrajectoryReport, int]:
    """Inverse of ``write_trajectory``; returns the report and local window."""
    raw = Path(path).read_text(encoding="utf-8").splitlines()
    meta = _parse_meta([(i, l) for i, l in enumerate(raw, start=1) if l.startswith("#")])
    required = {"target_miscoverage", "step_size", "initial_level", "update_rule", "decay"}
    if not required <= meta.keys():
        raise ParseError("missing configuration comment lines", line=1)

    def number(key: str) -> float:
        return parse_number(*meta[key])

    try:
        config = AciConfig(
            target_miscoverage=number("target_miscoverage"),
            step_size=number("step_size"),
            initial_level=number("initial_level"),
            update_rule=meta["update_rule"][0],
            decay=number("decay"),
        )
    except ConfigurationError as exc:
        raise ValidationError(str(exc), line=meta["update_rule"][1]) from None
    window_text, window_line = meta.get("local_window", ("0", 1))
    try:
        local_window = int(window_text)
    except ValueError:
        raise ParseError(f"local_window is not an integer: {window_text!r}",
                         line=window_line) from None
    valid = meta.get("valid", ("true", 1))[0] == "true"
    numbers = [i for i, l in enumerate(raw, start=1) if not l.startswith("#")]
    rows = csv.reader(raw[i - 1] for i in numbers)
    if next(rows, None) != TRAJECTORY_HEADER:
        line = numbers[0] if numbers else 1
        raise ParseError(f"expected header {','.join(TRAJECTORY_HEADER)!r}", line=line)
    errs, alphas, intervals, labels = [], [], [], []
    for i, row in zip(numbers[1:], rows):
        if len(row) != len(TRAJECTORY_HEADER):
            raise ParseError(f"expected {len(TRAJECTORY_HEADER)} columns, got {len(row)}", line=i)
        labels.append(row[1])
        alphas.append(parse_number(row[2], i))
        if row[3] not in ("0", "1"):
            raise ValidationError(f"err must be 0 or 1, got {row[3]}", line=i)
        errs.append(int(row[3]))
        intervals.append(PredictionInterval(parse_number(row[4], i), parse_number(row[5], i)))
    return (
        TrajectoryReport(
            errs=np.array(errs, dtype=np.int8),
            alphas=np.array(alphas),
            intervals=tuple(intervals),
            step_labels=tuple(labels),
            config_echo=config,
            valid=valid,
        ),
        local_window,
    )


def summary_payload(summary: CoverageSummary, report: TrajectoryReport, window: int) -> dict:
    max_dev = summary.max_local_deviation
    return {
        "average_coverage": summary.average_coverage,
        "max_local_deviation": None if math.isnan(max_dev) else max_dev,
        "prop_bound_value": summary.prop_bound_value,
        "prop_bound_satisfied": summary.prop_bound_satisfied,
        "n_steps": len(report),
        "target_miscoverage": report.config_echo.target_miscoverage,
        "local_window": window,
    }

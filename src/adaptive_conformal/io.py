"""CSV/JSON serialization for price series, county tables, and trajectories.

Numbers are written with 12 significant digits, infinities as ``inf`` /
``-inf``, rows with minimal CSV quoting. Trajectory files echo the calibration
configuration, exactly, in ``#`` comment lines above the header so a file
round-trips to an equivalent report without side channels.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from dataclasses import fields
from datetime import date
from io import StringIO
from pathlib import Path

import numpy as np

from .core import AciConfig
from .errors import ConfigurationError, ParseError, ValidationError
from .metrics import TrajectoryReport, local_coverage

PRICE_HEADER = ["date", "open"]
TRAJECTORY_HEADER = ["t", "label", "alpha_t", "err", "lower", "upper", "local_cov"]


def format_number(x: float) -> str:
    return f"{x:.12g}"


def parse_number(text: str, line: int) -> float:
    try:
        return float(text)
    except ValueError:
        raise ParseError(f"not a number: {text!r}", line=line) from None


def parse_finite(text: str, line: int) -> float:
    value = parse_number(text, line)
    if not math.isfinite(value):
        raise ValidationError(f"expected a finite number, got {text}", line=line)
    return value


def _require_one_line(what: str, label: str, line: int | None = None) -> None:
    """A label with a line break would split its trajectory row in two."""
    if len(f"{label}.".splitlines()) > 1:
        raise ValidationError(f"{what} must not hold a line break: {label!r}", line=line)


def _read_text(path) -> str:
    """A file's UTF-8 text; an undecodable byte is a ParseError naming its line."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:  # lines end as csv ends them: \n, \r\n or a lone \r
        line = len(list(StringIO(data[: exc.start + 1].decode("utf-8", "replace"), newline="")))
        raise ParseError(f"not UTF-8 text: byte {data[exc.start]:#04x}", line=line) from None


def _csv_rows(lines, numbers=range(1, sys.maxsize)):
    """(file line, row) per CSV row; line k of ``lines``, from 0, is file line ``numbers[k]``."""
    reader = csv.reader(lines)
    done = 0  # lines read; a row starts on the next one, as a quoted field can span lines
    try:
        for row in reader:
            yield numbers[done], row
            done = reader.line_num
    except csv.Error as exc:  # such as a field over csv's size limit
        raise ParseError(str(exc), line=numbers[reader.line_num - 1]) from None


def round_trip_floats(obj):
    """Round floats to the serialized 12-digit precision; non-finite to strings."""
    if isinstance(obj, float):
        if math.isfinite(obj):
            return float(format_number(obj))
        return format_number(obj)
    if isinstance(obj, dict):
        return {k: round_trip_floats(v) for k, v in obj.items()}
    if isinstance(obj, np.ndarray):
        return [round_trip_floats(float(v)) for v in obj]
    return obj


def json_text(payload: dict) -> str:
    """The JSON document every command writes: 12-digit floats, sorted keys."""
    return json.dumps(round_trip_floats(payload), sort_keys=True, indent=2) + "\n"


def write_json(path, payload: dict) -> None:
    Path(path).write_text(json_text(payload), encoding="utf-8")


def read_prices(path) -> tuple[list[str], np.ndarray]:
    """Parse a ``date,open`` file into (ISO dates, opens)."""
    rows = _csv_rows(StringIO(_read_text(path), newline=""))
    if next(rows, (1, None))[1] != PRICE_HEADER:
        raise ParseError(f"expected header {','.join(PRICE_HEADER)!r}", line=1)
    dates: list[str] = []
    opens: list[float] = []
    prev: date | None = None
    for i, row in rows:
        if len(row) != 2:
            raise ParseError(f"expected 2 columns, got {len(row)}", line=i)
        try:
            day = date.fromisoformat(row[0])
        except ValueError:
            raise ParseError(f"bad ISO date: {row[0]!r}", line=i) from None
        if prev is not None and day <= prev:
            raise ValidationError(f"dates must be strictly increasing at {row[0]}", line=i)
        prev = day
        value = parse_finite(row[1], i)
        if not value > 0.0:
            raise ValidationError(f"open price must be positive, got {row[1]}", line=i)
        dates.append(row[0])
        opens.append(value)
    if not dates:
        raise ParseError("file has no data rows", line=1)
    return dates, np.array(opens)


def _write_csv(path, rows, comments: tuple[str, ...] = ()) -> None:
    """Comment lines, then rows with minimal CSV quoting; every line ends in \\n."""
    out = StringIO()
    out.writelines(line + "\n" for line in comments)
    csv.writer(out, lineterminator="\n").writerows(rows)
    Path(path).write_text(out.getvalue(), encoding="utf-8")


def write_prices(path, dates: list[str], opens) -> None:
    opens = map(format_number, np.asarray(opens, dtype=float).tolist())
    _write_csv(path, [PRICE_HEADER, *zip(dates, opens)])


def _county_header(d: int) -> list[str]:
    return ["id", "population"] + [f"x{j}" for j in range(1, d + 1)] + ["y_prev", "y"]


def read_counties(path):
    """Parse an ``id,population,x1..xd,y_prev,y`` table into CountyRecord rows."""
    from .election import CountyRecord  # deferred: importing io loads no scipy

    rows = _csv_rows(StringIO(_read_text(path), newline=""))
    _, header = next(rows, (1, None))
    if header is None:
        raise ParseError("empty file", line=1)
    d = len(header) - 4
    if d < 1 or header != _county_header(d):
        raise ParseError("expected header id,population,x1,...,xd,y_prev,y", line=1)
    records = []
    for i, row in rows:
        if len(row) != len(header):
            raise ParseError(f"expected {len(header)} columns, got {len(row)}", line=i)
        _require_one_line("id", row[0], line=i)
        population, *covariates, y_prev, y = (parse_finite(v, i) for v in row[1:])
        try:
            records.append(CountyRecord(row[0], population, covariates, y_prev, y))
        except ConfigurationError as exc:
            raise ValidationError(str(exc), line=i) from None
    if not records:
        raise ParseError("file has no data rows", line=1)
    return records


def write_counties(path, counties) -> None:
    for c in counties:
        _require_one_line("id", c.id)
    d = len(counties[0].covariates) if counties else 1
    rows = [[c.id, *map(format_number, [c.population, *c.covariates, c.y_prev, c.y])]
            for c in counties]
    _write_csv(path, [_county_header(d), *rows])


def _config_meta(config: AciConfig) -> str:
    """``# aci`` and one ``name=value`` token per ``AciConfig`` field, in field order."""
    def text(x) -> str:  # a number in the 12-digit form when it reads back exactly
        if isinstance(x, str):
            return x
        return format_number(x) if float(format_number(x)) == x else repr(float(x))

    return " ".join(["# aci", *(f"{f.name}={text(getattr(config, f.name))}"
                                for f in fields(config))])


def write_trajectory(path, report: TrajectoryReport, local_window: int) -> None:
    """Serialize a trajectory with its configuration echoed in comment lines."""
    for label in report.step_labels:
        _require_one_line("label", label)
    n = len(report)
    local = [""] * n
    if 2 <= local_window <= n and local_window % 2 == 0:
        first = local_window // 2 - 1
        local[first : first + n - local_window + 1] = map(
            format_number, local_coverage(report.errs, local_window).tolist()
        )
    rows = zip(
        map(str, range(1, n + 1)),
        report.step_labels,
        map(format_number, report.alphas.tolist()),
        map(str, report.errs.tolist()),
        map(format_number, report.lower.tolist()),
        map(format_number, report.upper.tolist()),
        local,
    )
    run = f"# run local_window={local_window}"
    _write_csv(path, [TRAJECTORY_HEADER, *rows], (_config_meta(report.config_echo), run))


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
    raw = [line.rstrip("\r\n") for line in StringIO(_read_text(path), newline="")]
    meta = _parse_meta([(i, l) for i, l in enumerate(raw, start=1) if l.startswith("#")])
    names = [f.name for f in fields(AciConfig)]
    if not set(names) <= meta.keys():
        raise ParseError("missing configuration comment lines", line=1)
    try:
        config = AciConfig(**{name: meta[name][0] if name == "update_rule"
                              else parse_number(*meta[name]) for name in names})
    except ConfigurationError as exc:
        raise ValidationError(str(exc), line=meta["update_rule"][1]) from None
    window_text, window_line = meta.get("local_window", ("0", 1))
    try:
        local_window = int(window_text)
    except ValueError:
        raise ParseError(f"local_window is not an integer: {window_text!r}",
                         line=window_line) from None
    numbers = [i for i, l in enumerate(raw, start=1) if not l.startswith("#")]
    rows = _csv_rows([raw[i - 1] for i in numbers], numbers)
    line, header = next(rows, (1, None))
    if header != TRAJECTORY_HEADER:
        raise ParseError(f"expected header {','.join(TRAJECTORY_HEADER)!r}", line=line)
    labels, alphas, errs, lower, upper = [], [], [], [], []
    for t, (i, row) in enumerate(rows, start=1):
        if len(row) != len(TRAJECTORY_HEADER):
            raise ParseError(f"expected {len(TRAJECTORY_HEADER)} columns, got {len(row)}", line=i)
        if row[0] != str(t):
            raise ValidationError(f"t must be the row number {t}, got {row[0]!r}", line=i)
        _require_one_line("label", row[1], line=i)
        labels.append(row[1])
        alphas.append(parse_finite(row[2], i))
        if row[3] not in ("0", "1"):
            raise ValidationError(f"err must be 0 or 1, got {row[3]}", line=i)
        errs.append(row[3] == "1")
        lo, hi = parse_number(row[4], i), parse_number(row[5], i)
        if lo != lo or hi != hi:  # nan
            raise ValidationError("interval bounds must not be nan", line=i)
        lower.append(lo)
        upper.append(hi)
        if row[6] and not 0.0 <= parse_number(row[6], i) <= 1.0:
            raise ValidationError(f"local_cov must be blank or in [0, 1], got {row[6]}", line=i)
    return TrajectoryReport(errs=errs, alphas=alphas, lower=lower, upper=upper,
                            step_labels=tuple(labels), config_echo=config), local_window

import math
import re
import string
import tempfile
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from adaptive_conformal.core import AciConfig
from adaptive_conformal.errors import ParseError, ValidationError
from adaptive_conformal.io import (
    read_counties,
    read_prices,
    read_trajectory,
    write_counties,
    write_prices,
    write_trajectory,
)
from adaptive_conformal.election import generate_synthetic_counties
from adaptive_conformal.metrics import TrajectoryReport


def make_report(n=120, seed=0, gamma=0.005):
    rng = np.random.default_rng(seed)
    errs = (rng.random(n) < 0.1).astype(np.int8)
    alphas = 0.1 + 0.01 * rng.standard_normal(n)
    lower = rng.normal(size=n)
    upper = lower + np.abs(rng.normal(size=n))
    lower[::17] = -math.inf
    lower[23::23], upper[23::23] = math.inf, -math.inf
    return TrajectoryReport(
        errs=errs,
        alphas=alphas,
        lower=lower,
        upper=upper,
        step_labels=tuple(f"label-{i}" for i in range(n)),
        config_echo=AciConfig(0.1, gamma),
    )


#: One character past the longest field the csv module reads by default.
OVERSIZED = "9" * 131073


def write_lines(path, lines):
    """Write text lines; the lone surrogate ``"\\udcff"`` is written as the raw byte 0xff."""
    path.write_bytes(("\n".join(lines) + "\n").encode("utf-8", "surrogateescape"))


class TestPrices:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "prices.csv"
        dates = ["2020-01-01", "2020-01-02", "2020-01-05"]
        opens = [100.0, 101.25, 99.875]
        write_prices(path, dates, opens)
        rd, ro = read_prices(path)
        assert rd == dates
        np.testing.assert_array_equal(ro, opens)

    def test_header_mismatch(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("date,close\n2020-01-01,10\n")
        with pytest.raises(ParseError):
            read_prices(path)

    def test_non_monotone_dates(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("date,open\n2020-01-02,10\n2020-01-01,11\n")
        with pytest.raises(ValidationError) as err:
            read_prices(path)
        assert err.value.line == 3

    def test_nonpositive_price(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("date,open\n2020-01-01,0\n")
        with pytest.raises(ValidationError):
            read_prices(path)

    def test_bad_number_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("date,open\n2020-01-01,ten\n")
        with pytest.raises(ParseError) as err:
            read_prices(path)
        assert err.value.line == 2

    @pytest.mark.parametrize("row,error", [
        pytest.param("2020-01-02,inf", ValidationError, id="infinite-price"),
        pytest.param("2020-01-02,nan", ValidationError, id="nan-price"),
        pytest.param("2020-01-02,1\udcff", ParseError, id="not-utf8"),
        pytest.param("2020-\udcff1-02,10", ParseError, id="not-utf8-date"),
        pytest.param(f"2020-01-02,{OVERSIZED}", ParseError, id="field-over-csv-limit"),
    ])
    def test_bad_row_names_line(self, tmp_path, row, error):
        path = tmp_path / "bad.csv"
        write_lines(path, ["date,open", "2020-01-01,10", row, "2020-01-03,11"])
        with pytest.raises(error) as err:
            read_prices(path)
        assert err.value.line == 3

    def test_rows_after_a_quoted_line_break_keep_their_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text('date,open\n2000-01-01,"5\n"\n2000-01-02,6\n2000-01-03,x\n')
        with pytest.raises(ParseError, match="^line 5: not a number: 'x'$"):
            read_prices(path)

    @pytest.mark.parametrize("text,message", [
        pytest.param("date,open\n2020-01-01,10,5\n", "line 2: expected 2 columns, got 3",
                     id="extra-column"),
        pytest.param("date,open\n2020-01-01,10\n2020-13-01,11\n",
                     "line 3: bad ISO date: '2020-13-01'", id="bad-date"),
        pytest.param("date,open\n", "line 1: file has no data rows", id="header-only"),
    ])
    def test_malformed_file_names_line(self, tmp_path, text, message):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            read_prices(path)

    @pytest.mark.parametrize("last,message", [
        ("1\xff", "line 3: not UTF-8 text: byte 0xff"),
        ("x", "line 3: not a number: 'x'"),
    ])
    def test_lone_carriage_returns_end_lines_for_every_error(self, tmp_path, last, message):
        path = tmp_path / "bad.csv"
        path.write_bytes(f"date,open\r2020-01-01,10\r2020-01-02,{last}\r".encode("latin-1"))
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            read_prices(path)


class TestCounties:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "counties.csv"
        counties = generate_synthetic_counties(25, 3, seed=4)
        write_counties(path, counties)
        back = read_counties(path)
        assert len(back) == 25
        for a, b in zip(counties, back):
            assert a.id == b.id
            assert b.population == pytest.approx(a.population, rel=1e-11)
            np.testing.assert_allclose(b.covariates, a.covariates, rtol=1e-11)

    def test_header_mismatch(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,pop,x1,y_prev,y\nc1,10,0.5,5,6\n")
        with pytest.raises(ParseError):
            read_counties(path)

    def test_zero_population_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,population,x1,y_prev,y\nc1,0,0.5,5,6\n")
        with pytest.raises(ValidationError) as err:
            read_counties(path)
        assert err.value.line == 2

    def test_column_count_mismatch(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,population,x1,y_prev,y\nc1,10,0.5,5\n")
        with pytest.raises(ParseError):
            read_counties(path)

    @pytest.mark.parametrize("column,value,error", [
        pytest.param(1, "inf", ValidationError, id="infinite-population"),
        pytest.param(2, "nan", ValidationError, id="nan-covariate"),
        pytest.param(3, "-inf", ValidationError, id="infinite-covariate"),
        pytest.param(4, "nan", ValidationError, id="nan-y-prev"),
        pytest.param(5, "inf", ValidationError, id="infinite-y"),
        pytest.param(1, "-20", ValidationError, id="negative-population"),
        pytest.param(4, "0", ValidationError, id="zero-y-prev"),
        pytest.param(5, "-1", ValidationError, id="negative-y"),
        pytest.param(0, "c\udcff", ParseError, id="not-utf8"),
        pytest.param(0, '"c\n2"', ValidationError, id="line-break-in-id"),
        pytest.param(0, "c\x1c2", ValidationError, id="separator-in-id"),
        pytest.param(2, OVERSIZED, ParseError, id="field-over-csv-limit"),
    ])
    def test_bad_row_names_line(self, tmp_path, column, value, error):
        path = tmp_path / "bad.csv"
        row = ["c2", "20", "0.5", "1.5", "5", "6"]
        row[column] = value
        write_lines(path, ["id,population,x1,x2,y_prev,y", "c1,10,0.5,1,5,6", ",".join(row)])
        with pytest.raises(error) as err:
            read_counties(path)
        assert err.value.line == 3

    @pytest.mark.parametrize("text,message", [
        pytest.param("", "line 1: empty file", id="empty"),
        pytest.param("id,population,x1,y_prev,y\n", "line 1: file has no data rows",
                     id="header-only"),
    ])
    def test_file_without_rows_rejected(self, tmp_path, text, message):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            read_counties(path)

    def test_rows_after_a_quoted_line_break_keep_their_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text('id,population,x1,y_prev,y\nc1,10,"0.5\n",5,6\nc2,10,0.5,5,6\n'
                        'c3,0,0.5,5,6\n')
        with pytest.raises(ValidationError, match="^line 5: population must be positive"):
            read_counties(path)

    @pytest.mark.parametrize("county_id", ["a\nb", "a\x1cb", "a\rb"])
    def test_id_with_line_break_rejected_on_write(self, tmp_path, county_id):
        # "a\rb" is the id csv quoting would not save: it is written unquoted.
        counties = generate_synthetic_counties(3, 1, seed=0)
        counties[1] = replace(counties[1], id=county_id)
        with pytest.raises(ValidationError, match="^id must not hold a line break"):
            write_counties(tmp_path / "c.csv", counties)
        assert not (tmp_path / "c.csv").exists()


class TestTrajectory:
    def test_round_trip_is_a_fixpoint(self, tmp_path):
        # One write/read cycle rounds to 12 significant digits; after that the
        # representation is exact and further cycles are the identity.
        report = make_report()
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_trajectory(p1, report, local_window=40)
        once, win1 = read_trajectory(p1)
        write_trajectory(p2, once, local_window=win1)
        twice, win2 = read_trajectory(p2)
        assert once == twice
        assert (win1, win2) == (40, 40)
        np.testing.assert_allclose(once.alphas, report.alphas, rtol=1e-11)
        np.testing.assert_array_equal(once.errs, report.errs)
        assert once.config_echo == report.config_echo
        assert once.step_labels == report.step_labels

    def test_infinities_serialize_as_words(self, tmp_path):
        report = make_report(n=30)
        path = tmp_path / "t.csv"
        write_trajectory(path, report, local_window=10)
        text = path.read_text()
        assert "-inf" in text and "inf" in text
        back, _ = read_trajectory(path)
        assert np.any(back.lower == -math.inf)
        assert np.any(back.lower > back.upper)

    def test_local_cov_column_blank_outside_window(self, tmp_path):
        report = make_report(n=60)
        path = tmp_path / "t.csv"
        write_trajectory(path, report, local_window=20)
        rows = [l.split(",") for l in path.read_text().splitlines() if not l.startswith("#")][1:]
        blanks = [i for i, row in enumerate(rows) if row[6] == ""]
        # Window 20 over 60 steps: defined for output rows 9..49 (0-based).
        assert blanks == list(range(0, 9)) + list(range(50, 60))

    def test_missing_metadata_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("t,label,alpha_t,err,lower,upper,local_cov\n1,a,0.1,0,0,1,\n")
        with pytest.raises(ParseError):
            read_trajectory(path)

    def test_config_comment_has_one_token_per_field_in_field_order(self, tmp_path):
        path = tmp_path / "t.csv"
        write_trajectory(path, make_report(n=10, gamma=0.1 + 0.2), local_window=4)
        assert path.read_text().splitlines()[0] == (
            "# aci target_miscoverage=0.1 step_size=0.30000000000000004 initial_level=0.1 "
            "update_rule=simple decay=0.95")

    @pytest.mark.parametrize("name", [f.name for f in fields(AciConfig)])
    def test_missing_config_field_rejected(self, tmp_path, name):
        path = tmp_path / "t.csv"
        write_trajectory(path, make_report(n=10), local_window=4)
        lines = path.read_text().splitlines()
        lines[0] = " ".join(t for t in lines[0].split() if not t.startswith(f"{name}="))
        write_lines(path, lines)
        with pytest.raises(ParseError, match="^line 1: missing configuration comment lines$"):
            read_trajectory(path)

    @pytest.mark.parametrize("old,new,line", [
        ("target_miscoverage=0.1", "target_miscoverage=abc", 1),
        ("local_window=4", "local_window=x", 2),
        ("target_miscoverage=0.1", "target_miscoverage=2", 1),
    ])
    def test_bad_metadata_names_line(self, tmp_path, old, new, line):
        path = tmp_path / "t.csv"
        write_trajectory(path, make_report(n=10), local_window=4)
        path.write_text(path.read_text().replace(old, new, 1))
        with pytest.raises((ParseError, ValidationError)) as err:
            read_trajectory(path)
        assert err.value.line == line

    def test_header_mismatch(self, tmp_path):
        report = make_report(n=10)
        path = tmp_path / "t.csv"
        write_trajectory(path, report, local_window=4)
        text = path.read_text().replace("alpha_t", "alpha")
        path.write_text(text)
        with pytest.raises(ParseError):
            read_trajectory(path)

    @pytest.mark.parametrize("column,value,error", [
        pytest.param(2, "nan", ValidationError, id="nan-level"),
        pytest.param(2, "-inf", ValidationError, id="infinite-level"),
        pytest.param(4, "nan", ValidationError, id="nan-lower"),
        pytest.param(5, "nan", ValidationError, id="nan-upper"),
        pytest.param(0, "7", ValidationError, id="t-skips"),
        pytest.param(0, "x", ValidationError, id="t-not-a-number"),
        pytest.param(6, "abc", ParseError, id="local-cov-not-a-number"),
        pytest.param(6, "1.5", ValidationError, id="local-cov-above-one"),
        pytest.param(6, "nan", ValidationError, id="local-cov-nan"),
        pytest.param(1, "label-\udcff", ParseError, id="not-utf8"),
        pytest.param(1, OVERSIZED, ParseError, id="field-over-csv-limit"),
    ])
    def test_bad_row_names_line(self, tmp_path, column, value, error):
        path = tmp_path / "t.csv"
        write_trajectory(path, make_report(n=10), local_window=4)
        lines = path.read_text().splitlines()
        row = lines[5].split(",")
        row[column] = value
        lines[5] = ",".join(row)
        write_lines(path, lines)
        with pytest.raises(error) as err:
            read_trajectory(path)
        assert err.value.line == 6

    @pytest.mark.parametrize("column", [4, 5])
    def test_rows_after_a_quoted_line_break_keep_their_line(self, tmp_path, column):
        # A label quoted across lines 5 and 6; the nan bound is in the row on line 8.
        path = tmp_path / "t.csv"
        write_trajectory(path, make_report(n=10), local_window=4)
        lines = path.read_text().splitlines()
        before, after = lines[4].split("label-1", 1)
        lines[4:5] = [f'{before}"label', f'-1"{after}']
        row = lines[7].split(",")
        row[column] = "nan"
        lines[7] = ",".join(row)
        write_lines(path, lines)
        with pytest.raises(ValidationError, match="^line 8: interval bounds must not be nan$"):
            read_trajectory(path)

    @pytest.mark.parametrize("label", ["a\nb", "a\r\nb", "a\rb", "a\x1cb", "a\u2028b"])
    def test_label_with_line_break_rejected(self, tmp_path, label):
        # Read back row by row, such a label would come back as two lines or a
        # different label; the writer refuses it instead.
        report = make_report(n=5)
        labels = list(report.step_labels)
        labels[2] = label
        with pytest.raises(ValidationError, match="line break"):
            write_trajectory(tmp_path / "t.csv", replace(report, step_labels=tuple(labels)), 4)
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize("label", ["a\x1cb", "a\u2028b", "a\x0bb"])
    def test_label_with_line_break_rejected_on_read(self, tmp_path, label):
        # Lines end only at \n, \r\n or \r, so such a label reaches the row check.
        path = tmp_path / "t.csv"
        write_trajectory(path, make_report(n=5), local_window=4)
        path.write_text(path.read_text().replace("label-2", label), encoding="utf-8")
        message = f"line 6: label must not hold a line break: {label!r}"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            read_trajectory(path)

    def test_lone_carriage_returns_end_lines(self, tmp_path):
        path = tmp_path / "t.csv"
        write_trajectory(path, make_report(n=10), local_window=4)
        lines = path.read_text().splitlines()
        lines[3] = lines[3].replace(",0,", ",2,", 1)
        path.write_bytes("\r".join(lines).encode("utf-8") + b"\r")
        with pytest.raises(ValidationError, match="^line 4: err must be 0 or 1, got 2$"):
            read_trajectory(path)

    def test_bad_err_value(self, tmp_path):
        report = make_report(n=10)
        path = tmp_path / "t.csv"
        write_trajectory(path, report, local_window=4)
        text = path.read_text().splitlines()
        text[3] = text[3].replace(",0,", ",2,", 1)
        path.write_text("\n".join(text) + "\n")
        with pytest.raises(ValidationError) as err:
            read_trajectory(path)
        assert err.value.line == 4


FINITE = st.floats(allow_nan=False, allow_infinity=False)
BOUND = st.floats(allow_nan=False)
LABEL = st.text(string.ascii_letters + string.digits + '-_.: ,"', max_size=12)
UNIT = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


@st.composite
def reports(draw):
    """Any report the writer accepts, with a full-precision config."""
    n = draw(st.integers(1, 30))

    def column(elements):
        return draw(st.lists(elements, min_size=n, max_size=n))

    config = AciConfig(
        target_miscoverage=draw(UNIT),
        step_size=draw(st.floats(0.0, 10.0)),
        initial_level=draw(st.floats(0.0, 1.0)),
        update_rule=draw(st.sampled_from(["simple", "weighted"])),
        decay=draw(UNIT),
    )
    return TrajectoryReport(
        errs=column(st.integers(0, 1)),
        alphas=column(FINITE),
        lower=column(BOUND),
        upper=column(BOUND),
        step_labels=tuple(column(LABEL)),
        config_echo=config,
    )


def valid_trajectory_bytes() -> bytes:
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "t.csv"
        write_trajectory(path, make_report(n=8), local_window=4)
        return path.read_bytes()


@st.composite
def edited_trajectories(draw):
    """A valid trajectory file with a few byte ranges replaced by arbitrary bytes."""
    data = valid_trajectory_bytes()
    for _ in range(draw(st.integers(1, 4))):
        start = draw(st.integers(0, len(data)))
        stop = draw(st.integers(start, min(start + 8, len(data))))
        data = data[:start] + draw(st.binary(max_size=8)) + data[stop:]
    return data


class TestTrajectoryProperties:
    @given(report=reports(), window=st.integers(-2, 40))
    def test_write_read_write_is_byte_idempotent(self, tmp_path_factory, report, window):
        folder = tmp_path_factory.mktemp("round-trip")
        first, second = folder / "a.csv", folder / "b.csv"
        write_trajectory(first, report, local_window=window)
        back, recorded = read_trajectory(first)
        write_trajectory(second, back, local_window=recorded)
        assert first.read_bytes() == second.read_bytes()
        assert back.config_echo == report.config_echo
        assert back.step_labels == report.step_labels

    @given(data=st.binary(max_size=400) | edited_trajectories())
    def test_arbitrary_bytes_raise_only_file_errors(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("fuzz") / "t.csv"
        path.write_bytes(data)
        try:
            read_trajectory(path)
        except (ParseError, ValidationError) as exc:
            assert exc.line >= 1

import math

import numpy as np
import pytest

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
        pytest.param(0, "7", ValidationError, id="t-skips"),
        pytest.param(0, "x", ValidationError, id="t-not-a-number"),
        pytest.param(6, "abc", ParseError, id="local-cov-not-a-number"),
        pytest.param(6, "1.5", ValidationError, id="local-cov-above-one"),
        pytest.param(6, "nan", ValidationError, id="local-cov-nan"),
    ])
    def test_bad_row_names_line(self, tmp_path, column, value, error):
        path = tmp_path / "t.csv"
        write_trajectory(path, make_report(n=10), local_window=4)
        lines = path.read_text().splitlines()
        row = lines[5].split(",")
        row[column] = value
        lines[5] = ",".join(row)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(error) as err:
            read_trajectory(path)
        assert err.value.line == 6

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

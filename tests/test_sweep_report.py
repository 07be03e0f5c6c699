import io
import math
import random

import pytest

from wpsn_coverage import figures
from wpsn_coverage.coverage import EventField, source_count
from wpsn_coverage.link_budget import RadioParams, max_range
from wpsn_coverage.quantities import ValidationError
from wpsn_coverage.sweep_report import (
    PlotOptions,
    SweepTable,
    render_csv,
    render_svg,
    write_csv,
)


DESIGN_RADIO = RadioParams.from_si(1.0, 8.5, 8.5, 1e9)
EIRP_RADIO = RadioParams.from_eirp_product(4.0, 1e9)
FIELD = EventField.square_from_area(4e4)
FREQS = (5e8, 1e9, 2e9)


def series_of(table, col_names, key):
    idx = [table.columns.index(c) for c in col_names]
    return [row for row in table.rows if tuple(row[i] for i in idx) == key]


class TestGrid:
    def test_include_values_merged_sorted(self):
        table = figures.figure_table(5, DESIGN_RADIO, FIELD)
        powers = [row[0] for row in table.rows]
        assert 1.0 in powers and 4.0 in powers
        assert powers == sorted(powers)


class TestVoltageVsPower:
    @pytest.fixture
    def table(self):
        return figures.figure_table(4, DESIGN_RADIO, FIELD)

    def test_anchor_row(self, table):
        row = [r for r in table.rows if r[0] == 1.25e-5]
        assert row and row[0][1] == pytest.approx(0.1, rel=1e-12)

    def test_zero_row(self, table):
        assert table.rows[0] == (0.0, 0.0)

    def test_monotone_increasing(self, table):
        volts = [r[1] for r in table.rows]
        assert volts == sorted(volts)

    def test_closed_form(self, table):
        for p_r, v in table.rows:
            assert v == pytest.approx(math.sqrt(8.0 * 100.0 * p_r), rel=1e-12)


class TestRangeVsPower:
    @pytest.fixture
    def table(self):
        return figures.figure_table(5, EIRP_RADIO, FIELD)

    def test_paper_anchor_row(self, table):
        rows = [r for r in table.rows if r[0] == 4.0 and r[1] == 1e9]
        assert rows and rows[0][2] == pytest.approx(13.49, rel=2e-3)

    def test_sqrt_power_within_series(self, table):
        rows = series_of(table, ("f_hz",), (1e9,))
        r1 = next(r[2] for r in rows if r[0] == 1.0)
        r4 = next(r[2] for r in rows if r[0] == 4.0)
        assert r4 == pytest.approx(2.0 * r1, rel=1e-12)

    def test_lower_frequency_series_above(self, table):
        half = series_of(table, ("f_hz",), (5e8,))
        one = series_of(table, ("f_hz",), (1e9,))
        for (p_a, _, r_a), (p_b, _, r_b) in zip(half, one):
            assert p_a == p_b
            assert r_a == pytest.approx(2.0 * r_b, rel=1e-12)

    def test_increasing_in_power(self, table):
        rows = series_of(table, ("f_hz",), (2e9,))
        ranges = [r[2] for r in rows]
        assert ranges == sorted(ranges)


class TestSourcesVsPower:
    @pytest.fixture
    def table(self):
        return figures.figure_table(6, DESIGN_RADIO, FIELD)

    def test_design_anchor_row(self, table):
        rows = [r for r in table.rows if r[0] == 1.0 and r[1] == 1e9]
        assert rows and rows[0][2] == pytest.approx(5.58, abs=0.02)
        assert rows[0][3] == 6.0

    def test_doubling_power_halves_k(self, table):
        rows = series_of(table, ("f_hz",), (1e9,))
        k1 = next(r[2] for r in rows if r[0] == 1.0)
        k4 = next(r[2] for r in rows if r[0] == 4.0)
        assert k4 == pytest.approx(k1 / 4.0, rel=1e-12)

    def test_required_is_ceiling_everywhere(self, table):
        for row in table.rows:
            assert row[3] == math.ceil(row[2])

    def test_decreasing_in_power_increasing_in_frequency(self, table):
        for f in FREQS:
            ks = [r[2] for r in series_of(table, ("f_hz",), (f,))]
            assert ks == sorted(ks, reverse=True)
        ks_at_1w = [r[2] for r in table.rows if r[0] == 1.0]
        assert ks_at_1w == sorted(ks_at_1w)


class TestPowerVsFrequency:
    @pytest.fixture
    def table(self):
        return figures.figure_table(7, DESIGN_RADIO, FIELD)

    def test_anchor_row(self, table):
        rows = [r for r in table.rows if r[0] == 1e9 and r[1] == 6.0]
        assert rows and rows[0][2] == pytest.approx(0.929, abs=0.005)

    def test_frequency_squared_law(self, table):
        rows = series_of(table, ("k",), (6.0,))
        p_half = next(r[2] for r in rows if r[0] == 5e8)
        p_one = next(r[2] for r in rows if r[0] == 1e9)
        assert p_one == pytest.approx(4.0 * p_half, rel=1e-12)

    def test_larger_k_needs_less_power(self, table):
        at_1ghz = [r for r in table.rows if r[0] == 1e9]
        powers = [r[2] for r in sorted(at_1ghz, key=lambda r: r[1])]
        assert powers == sorted(powers, reverse=True)

    def test_round_trips_through_source_count(self, table):
        for f_hz, k, p in random.Random(0).sample(list(table.rows), 20):
            radio = DESIGN_RADIO.with_frequency(f_hz).with_power(p)
            assert source_count(FIELD, radio).exact == pytest.approx(k, rel=1e-9)


class TestSourcesVsArea:
    @pytest.fixture
    def table(self):
        return figures.figure_table(8, DESIGN_RADIO, FIELD)

    def test_linear_in_area(self, table):
        rows = series_of(table, ("p_t_w", "f_hz"), (1.0, 1e9))
        slope = rows[0][3] / rows[0][0]
        for area, _, _, k_exact, _ in rows:
            assert k_exact == pytest.approx(slope * area, rel=1e-12)

    def test_cross_sweep_anchor(self, table):
        rows = [r for r in table.rows if r[0] == 4e4 and r[2] == 1e9]
        assert rows and rows[0][3] == pytest.approx(5.58, abs=0.02)

    def test_slope_matches_coefficient(self, table):
        rows = series_of(table, ("p_t_w", "f_hz"), (1.0, 2e9))
        # zero intercept: slope from any single row
        for area, p_t, f_hz, k_exact, _ in rows:
            radio = DESIGN_RADIO.with_power(p_t).with_frequency(f_hz)
            expected = source_count(area, radio).exact
            assert k_exact == pytest.approx(expected, rel=1e-9)


class TestRowsReproducible:
    def test_random_rows_match_direct_calls(self):
        table = figures.figure_table(6, DESIGN_RADIO, FIELD)
        rng = random.Random(1)
        for p_t, f_hz, k_exact, _ in rng.sample(list(table.rows), 100):
            radio = DESIGN_RADIO.with_power(p_t).with_frequency(f_hz)
            assert k_exact == pytest.approx(source_count(FIELD, radio).exact, rel=1e-12)

    def test_range_rows_match_direct_calls(self):
        table = figures.figure_table(5, EIRP_RADIO, FIELD)
        rng = random.Random(2)
        for p_t, f_hz, r in rng.sample(list(table.rows), 100):
            radio = EIRP_RADIO.with_power(p_t).with_frequency(f_hz)
            assert r == pytest.approx(max_range(radio).meters, rel=1e-12)


class TestCsv:
    @pytest.fixture
    def table(self):
        return SweepTable(
            columns=("a", "b"),
            rows=((1.0, 2.5), (3.0, 1.25e-5)),
            metadata={"axis": "area", "points": 2},
        )

    def test_structure(self, table):
        lines = render_csv(table).splitlines()
        assert lines[0].startswith("#")
        assert "a,b" in lines
        assert lines[-1] == "3,1.25e-05"

    def test_text_cells_pass_through(self):
        table = SweepTable(
            columns=("kind", "i", "d"),
            rows=(("pair", 0, 1.5), ("node", 3, "")),
            metadata={"strategy": "hex_grid", "r": 2.0},
        )
        assert render_csv(table) == (
            "# r = 2\n# strategy = hex_grid\nkind,i,d\npair,0,1.5\nnode,3,\n"
        )

    def test_deterministic(self, table):
        assert render_csv(table) == render_csv(table)

    def test_lf_endings_no_trailing_whitespace(self, table):
        text = render_csv(table)
        assert "\r" not in text
        assert all(line == line.rstrip() for line in text.splitlines())
        assert text.endswith("\n")

    def test_write_to_stream(self, table):
        buf = io.StringIO()
        write_csv(table, buf)
        assert buf.getvalue() == render_csv(table)

    def test_write_failure_raises_oserror(self, table, tmp_path):
        with pytest.raises(OSError):
            write_csv(table, tmp_path / "missing_dir" / "out.csv")


class TestSvg:
    @pytest.fixture
    def table(self):
        # the 1 GHz series of figure 5 only
        full = figures.figure_table(5, EIRP_RADIO, FIELD)
        return SweepTable(
            columns=full.columns, rows=tuple(r for r in full.rows if r[1] == 1e9)
        )

    def options(self, **kw):
        return PlotOptions(
            x_col="p_t_w", y_col="max_range_m", series_cols=("f_hz",), **kw
        )

    def test_one_polyline_per_series(self, table):
        svg = render_svg(table, self.options())
        assert svg.count("<polyline") == 1

    def test_log_x_decades_equal_spans(self, table):
        svg = render_svg(table, self.options(log_x=True))
        assert svg.startswith("<svg")
        # decade ticks at 0.1, 1, 10 must be evenly spaced
        import re

        ticks = [
            float(m.group(1))
            for m in re.finditer(r'<line x1="([0-9.]+)" y1="540" x2="\1" y2="545"', svg)
        ]
        assert len(ticks) == 3
        assert ticks[1] - ticks[0] == pytest.approx(ticks[2] - ticks[1], abs=0.05)

    def test_deterministic(self, table):
        opts = self.options(log_x=True)
        assert render_svg(table, opts) == render_svg(table, opts)

    def test_empty_table_rejected(self):
        empty = SweepTable(columns=("x", "y"), rows=())
        with pytest.raises(ValidationError):
            render_svg(empty, PlotOptions(x_col="x", y_col="y"))

    def test_viewbox_default(self, table):
        svg = render_svg(table, self.options())
        assert 'viewBox="0 0 800 600"' in svg

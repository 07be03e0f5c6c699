"""The five report figures as one table of sweeps.

Each figure tabulates one design relation (induced voltage vs. received
power, activation range vs. transmit power, source count vs. power /
area, required power vs. frequency) over a fixed grid, with one row per
(axis value, series value). Grids bracket every numeric anchor:
transmit power 0.1..10 W (log, with 1 W and 4 W forced onto the grid),
frequencies 0.5/1/2 GHz, area 1e3..1e5 m2 (linear, with 4e4 m2 forced
onto the grid).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .coverage import EventField, required_power, source_count
from .link_budget import RadioParams, induced_voltage, max_range
from .quantities import ValidationError
from .sweep_report import PlotOptions, SweepTable, linspace

FREQUENCY_SERIES_HZ = (5.0e8, 1.0e9, 2.0e9)
_POINTS = 50  # grid points per figure axis, before the forced values


@dataclass(frozen=True)
class _Figure:
    axis: str
    start: float
    stop: float
    log: bool
    include: tuple[float, ...]  # axis values forced onto the grid
    series: tuple[tuple[float, ...], ...]
    columns: tuple[str, ...]
    # (axis value, series values, radio, field) -> the row's output columns
    relation: Callable[[float, tuple, RadioParams, EventField], tuple[float, ...]]
    plot: PlotOptions

    def grid(self) -> list[float]:
        if self.log:
            # np.logspace, not 10.0**y: the figure 5/6 bytes follow its rounding
            import numpy as np

            grid = np.logspace(math.log10(self.start), math.log10(self.stop), _POINTS).tolist()
        else:
            grid = linspace(self.start, self.stop, _POINTS)
        values = set(grid)
        values.update(v for v in self.include if self.start <= v <= self.stop)
        return sorted(values)


def _sources(area, radio: RadioParams) -> tuple[float, float]:
    k = source_count(area, radio)
    return k.exact, float(k.required)


_TABLE = {
    4: _Figure(
        "received_power", 0.0, 1.0e-4, False, (1.25e-5,), ((),),
        ("p_r_w", "v_induced_v"),
        lambda p_r, _, radio, field: (induced_voltage(p_r, radio.r_r, radio.r_l).volts,),
        PlotOptions(x_col="p_r_w", y_col="v_induced_v", title="Induced voltage vs received power"),
    ),
    5: _Figure(
        "transmit_power", 0.1, 10.0, True, (1.0, 4.0),
        tuple((f,) for f in FREQUENCY_SERIES_HZ),
        ("p_t_w", "f_hz", "max_range_m"),
        lambda p_t, s, radio, field: (
            max_range(radio.with_power(p_t).with_frequency(s[0])).meters,
        ),
        PlotOptions(
            x_col="p_t_w", y_col="max_range_m", series_cols=("f_hz",), log_x=True,
            title="Activation range vs transmit power",
        ),
    ),
    6: _Figure(
        "transmit_power", 0.1, 10.0, True, (1.0, 4.0),
        tuple((f,) for f in FREQUENCY_SERIES_HZ),
        ("p_t_w", "f_hz", "k_exact", "k_required"),
        lambda p_t, s, radio, field: _sources(field, radio.with_power(p_t).with_frequency(s[0])),
        PlotOptions(
            x_col="p_t_w", y_col="k_exact", series_cols=("f_hz",), log_x=True,
            title="Required sources vs transmit power",
        ),
    ),
    7: _Figure(
        "frequency", 5.0e8, 2.0e9, False, (1.0e9,),
        ((2.0,), (4.0,), (6.0,), (8.0,), (10.0,)),
        ("f_hz", "k", "required_power_w"),
        lambda f, s, radio, field: (
            required_power(field, int(s[0]), radio.with_frequency(f)).watts,
        ),
        PlotOptions(
            x_col="f_hz", y_col="required_power_w", series_cols=("k",),
            title="Required transmit power vs frequency",
        ),
    ),
    8: _Figure(
        "area", 1.0e3, 1.0e5, False, (4.0e4,),
        tuple((1.0, f) for f in FREQUENCY_SERIES_HZ),
        ("area_m2", "p_t_w", "f_hz", "k_exact", "k_required"),
        lambda area, s, radio, field: _sources(area, radio.with_power(s[0]).with_frequency(s[1])),
        PlotOptions(
            x_col="area_m2", y_col="k_exact", series_cols=("p_t_w", "f_hz"),
            title="Required sources vs event area",
        ),
    ),
}

FIGURES = tuple(_TABLE)


def _entry(figure: int) -> _Figure:
    if figure not in _TABLE:
        raise ValidationError(f"figure must be one of {FIGURES}, got {figure}")
    return _TABLE[figure]


def figure_table(figure: int, radio: RadioParams, field: EventField) -> SweepTable:
    """The figure's rows `(x, *series, *outputs)`, series innermost."""
    fig = _entry(figure)
    rows = tuple(
        (x, *s, *fig.relation(x, s, radio, field)) for x in fig.grid() for s in fig.series
    )
    metadata = {
        "figure": figure,
        "axis": fig.axis,
        "start": fig.start,
        "stop": fig.stop,
        "points": _POINTS,
        "spacing": "logarithmic" if fig.log else "linear",
        "p_t_w": radio.p_t.watts,
        "g_t_linear": radio.g_t.linear,
        "g_r_linear": radio.g_r.linear,
        "f_hz": radio.f.hertz,
        "v_min_v": radio.v_min.volts,
        "r_r_ohm": radio.r_r.ohms,
        "r_l_ohm": radio.r_l.ohms,
        "field_width_m": field.width,
        "field_height_m": field.height,
    }
    return SweepTable(columns=fig.columns, data=tuple(zip(*rows)), metadata=metadata)


def figure_plot_options(figure: int) -> PlotOptions:
    return _entry(figure).plot

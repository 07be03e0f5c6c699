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

from dataclasses import dataclass
from typing import Callable

from .coverage import EventField, required_power, source_count
from .link_budget import RadioParams, induced_voltage, max_range
from .quantities import ValidationError
from .sweep_report import PlotOptions, SweepTable, linspace

FREQUENCY_SERIES_HZ = (5.0e8, 1.0e9, 2.0e9)
_POINTS = 50  # grid points per figure axis, before the forced values

# The log grid of figures 5 and 6 (every `log` figure): 0.1..10 W at
# _POINTS points, as pinned data. These are the values numpy's AVX-512
# `logspace(-1, 1, 50)` gives. At indices 38 and 44 its `power` rounds one
# ulp away from the correctly rounded 10**y, and the pinned figure bytes
# carry those two values; other CPUs and libms round them differently, so
# the grid is not computed.
_LOG_GRID = (
    0.1, 0.10985411419875583, 0.12067926406393285, 0.13257113655901093, 0.14563484775012436,
    0.15998587196060582, 0.1757510624854792, 0.193069772888325, 0.21209508879201905,
    0.2329951810515372, 0.2559547922699536, 0.281176869797423, 0.3088843596477481,
    0.3393221771895328, 0.372759372031494, 0.4094915062380424, 0.44984326689694454,
    0.49417133613238345, 0.5428675439323859, 0.5963623316594643, 0.6551285568595507,
    0.7196856730011519, 0.7906043210907697, 0.8685113737513525, 0.9540954763499939,
    1.0481131341546859, 1.151395399326447, 1.2648552168552958, 1.3894954943731375,
    1.5264179671752334, 1.6768329368110073, 1.8420699693267153, 2.0235896477251565,
    2.2229964825261943, 2.442053094548651, 2.6826957952797246, 2.9470517025518097,
    3.2374575428176433, 3.5564803062231283, 3.9069399370546147, 4.291934260128776,
    4.714866363457392, 5.17947467923121, 5.689866029018296, 6.250551925273969,
    6.866488450042998, 7.543120063354615, 8.286427728546842, 9.102981779915218, 10.0,
)


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
    title: str  # the SVG plot's; its axes and series follow from columns

    def grid(self) -> list[float]:
        grid = _LOG_GRID if self.log else linspace(self.start, self.stop, _POINTS)
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
        "Induced voltage vs received power",
    ),
    5: _Figure(
        "transmit_power", 0.1, 10.0, True, (1.0, 4.0),
        tuple((f,) for f in FREQUENCY_SERIES_HZ),
        ("p_t_w", "f_hz", "max_range_m"),
        lambda p_t, s, radio, field: (
            max_range(radio.with_power(p_t).with_frequency(s[0])).meters,
        ),
        "Activation range vs transmit power",
    ),
    6: _Figure(
        "transmit_power", 0.1, 10.0, True, (1.0, 4.0),
        tuple((f,) for f in FREQUENCY_SERIES_HZ),
        ("p_t_w", "f_hz", "k_exact", "k_required"),
        lambda p_t, s, radio, field: _sources(field, radio.with_power(p_t).with_frequency(s[0])),
        "Required sources vs transmit power",
    ),
    7: _Figure(
        "frequency", 5.0e8, 2.0e9, False, (1.0e9,),
        ((2.0,), (4.0,), (6.0,), (8.0,), (10.0,)),
        ("f_hz", "k", "required_power_w"),
        lambda f, s, radio, field: (
            required_power(field, int(s[0]), radio.with_frequency(f)).watts,
        ),
        "Required transmit power vs frequency",
    ),
    8: _Figure(
        "area", 1.0e3, 1.0e5, False, (4.0e4,),
        tuple((1.0, f) for f in FREQUENCY_SERIES_HZ),
        ("area_m2", "p_t_w", "f_hz", "k_exact", "k_required"),
        lambda area, s, radio, field: _sources(area, radio.with_power(s[0]).with_frequency(s[1])),
        "Required sources vs event area",
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
    """The axis against the first output column, one line per series value."""
    fig = _entry(figure)
    n = len(fig.series[0])
    return PlotOptions(
        x_col=fig.columns[0], y_col=fig.columns[1 + n], series_cols=fig.columns[1 : 1 + n],
        log_x=fig.log, title=fig.title,
    )

"""Source-count formulas for covering an event field with non-overlapping
RF-source discs, plus the algebraic inversions (required power, maximum
area) used for design sweeps.

The disc-count model k = area / (pi r^2) assumes zero packing loss; the
deployment module measures the real gap for concrete placements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .quantities import (
    SPEED_OF_LIGHT,
    Area,
    Length,
    Power,
    ValidationError,
    _Quantity,
    _integer,
    _positive,
)
from .link_budget import RadioParams, max_range


@dataclass(frozen=True)
class EventField:
    """Rectangular event field; the count formulas only see its area."""

    width: float  # m
    height: float  # m

    def __post_init__(self):
        object.__setattr__(self, "width", _positive(self.width, "field width [m]"))
        object.__setattr__(self, "height", _positive(self.height, "field height [m]"))

    @classmethod
    def square_from_area(cls, area_m2: float) -> "EventField":
        side = math.sqrt(_positive(area_m2, "field area [m^2]"))
        return cls(width=side, height=side)

    @property
    def area(self) -> float:
        """Area in m^2."""
        return self.width * self.height

    def contains(self, x, y):
        """Whether (x, y) lies in the closed field; elementwise on arrays."""
        return (0.0 <= x) & (x <= self.width) & (0.0 <= y) & (y <= self.height)


class Strategy(str, Enum):
    """How a deployment places its sources over the field."""

    SQUARE_GRID = "square_grid"
    HEX_GRID = "hex_grid"
    EXPLICIT = "explicit"


def _strategy(name: Strategy | str, error=ValidationError, prefix: str = "strategy ") -> Strategy:
    """The `Strategy` named `name`, or `error` saying that it names none of them."""
    try:
        return Strategy(name)
    except ValueError:
        valid = ", ".join(s.value for s in Strategy)
        raise error(f"{prefix}{name!r} is not one of {valid}") from None


@dataclass(frozen=True)
class SourceCount(_Quantity, label="source count"):
    """Analytic source count; `required` is the integer a deployment needs."""

    exact: float

    @property
    def required(self) -> int:
        return math.ceil(self.exact)


def _area_m2(area: Area | EventField | float) -> float:
    return area.area if isinstance(area, EventField) else Area.of(area)


def _source_count_arg(k: int) -> float:
    k = _integer(k, "source count")
    if k < 1:
        raise ValidationError(f"source count must be >= 1, got {k}")
    try:
        return float(k)
    except OverflowError:
        raise ValidationError(f"source count ~1e{int(math.log10(k))} overflows a float") from None


def source_count_from_range(
    area: Area | EventField | float, r_rf: Length | float
) -> SourceCount:
    """Disc count area / (pi r^2) for a given per-source range."""
    a = _area_m2(area)
    r = Length.of(r_rf)
    den = math.pi * r * r
    out = a / den if den else math.inf  # den underflowed
    if not 0.0 < out < math.inf:
        raise ValidationError(
            f"source count is {out!r}, outside (0, inf): area / (pi r^2) at area {a!r} m^2,"
            f" r {r!r} m"
        )
    return SourceCount(out)


def _closed_form(what: str, area, radio: RadioParams, x: float, y: float, xy: str) -> float:
    """(2 pi a f^2 v_min^2) / (c^2 x y (r_r + r_l)), where x y is `xy`: the
    source count at x, y = p_t g_t g_r, 1 and the required power at k, g_t g_r.
    A result outside (0, inf) is an overflow or underflow of these inputs."""
    a = _area_m2(area)
    f = radio.f.hertz
    v = radio.v_min.volts
    loop = radio.loop_resistance_ohm
    den = SPEED_OF_LIGHT * SPEED_OF_LIGHT * x * y * loop
    out = (2.0 * math.pi * a * f * f * v * v) / den if den else math.inf  # den underflowed
    if not 0.0 < out < math.inf:
        raise ValidationError(
            f"{what} is {out!r}, outside (0, inf): 2 pi a f^2 v_min^2 / (c^2 {xy} (r_r + r_l))"
            f" at area {a!r} m^2, f {f!r} Hz, v_min {v!r} V, {xy} = {x!r} * {y!r},"
            f" r_r + r_l {loop!r} ohm"
        )
    return out


def source_count(area: Area | EventField | float, radio: RadioParams) -> SourceCount:
    """Closed-form source count in terms of the radio parameters.

    Algebraically identical to source_count_from_range(area, max_range(radio)).
    """
    eirp = radio.eirp_product_w
    return SourceCount(_closed_form("source count", area, radio, eirp, 1.0, "p_t g_t g_r"))


def required_power(
    area: Area | EventField | float, k: int, radio: RadioParams
) -> Power:
    """Transmit power at which exactly k sources cover the area.

    radio.p_t is ignored; gains, frequency, threshold and resistances are
    taken from it. Feeding the result back into source_count yields
    exact = k.
    """
    k = _source_count_arg(k)
    gains = radio.g_t.linear * radio.g_r.linear
    return Power(_closed_form("required transmit power [W]", area, radio, k, gains, "k g_t g_r"))


def max_area(k: int, radio: RadioParams) -> Area:
    """Largest area k sources can cover at the radio's activation range."""
    k = _source_count_arg(k)
    r = max_range(radio).meters
    return Area(k * math.pi * r * r)

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


@dataclass(frozen=True)
class SourceCount:
    """Analytic source count and the integer a deployment actually needs."""

    exact: float
    required: int

    def __post_init__(self):
        _positive(self.exact, "source count")
        if self.required != math.ceil(self.exact):
            raise ValidationError("required must be ceil(exact)")

    @classmethod
    def from_exact(cls, exact: float) -> "SourceCount":
        exact = _positive(exact, "source count")
        return cls(exact=exact, required=math.ceil(exact))


def _area_m2(area: Area | EventField | float) -> float:
    return area.area if isinstance(area, EventField) else Area.of(area)


def _source_count_arg(k: int) -> float:
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
    return SourceCount.from_exact(a / (math.pi * r * r))


def source_count(area: Area | EventField | float, radio: RadioParams) -> SourceCount:
    """Closed-form source count in terms of the radio parameters.

    Algebraically identical to source_count_from_range(area, max_range(radio)).
    """
    a = _area_m2(area)
    f = radio.f.hertz
    v = radio.v_min.volts
    exact = (2.0 * math.pi * a * f * f * v * v) / (
        SPEED_OF_LIGHT * SPEED_OF_LIGHT * radio.eirp_product_w * radio.loop_resistance_ohm
    )
    return SourceCount.from_exact(exact)


def required_power(
    area: Area | EventField | float, k: int, radio: RadioParams
) -> Power:
    """Transmit power at which exactly k sources cover the area.

    radio.p_t is ignored; gains, frequency, threshold and resistances are
    taken from it. Feeding the result back into source_count yields
    exact = k.
    """
    k = _source_count_arg(k)
    a = _area_m2(area)
    f = radio.f.hertz
    v = radio.v_min.volts
    gains = radio.g_t.linear * radio.g_r.linear
    p_t = (2.0 * math.pi * a * f * f * v * v) / (
        SPEED_OF_LIGHT * SPEED_OF_LIGHT * k * gains * radio.loop_resistance_ohm
    )
    return Power(_positive(p_t, "required transmit power [W]"))


def max_area(k: int, radio: RadioParams) -> Area:
    """Largest area k sources can cover at the radio's activation range."""
    k = _source_count_arg(k)
    r = max_range(radio).meters
    return Area(k * math.pi * r * r)

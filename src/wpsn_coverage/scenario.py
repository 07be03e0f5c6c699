"""Scenario files: a flat `key = value` text format with unit suffixes.

Example::

    # default design point
    p_t_w = 1 W
    g_t_dbi = 8.5
    g_r_dbi = 8.5
    f_hz = 1 GHz
    v_min_v = 100 mV
    field_area_m2 = 0.04 km2

Unknown keys, malformed lines, bad units and constraint violations each
raise a distinct error carrying the offending line or field.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, fields, replace

from .coverage import EventField
from .deployment import Strategy
from .link_budget import RadioParams
from .quantities import ValidationError


class ScenarioError(ValidationError):
    """Base class for scenario-file problems."""


class ScenarioParseError(ScenarioError):
    """Line is not `key = value`."""


class UnknownKeyError(ScenarioError):
    """Key is not part of the scenario schema."""


class UnitError(ScenarioError):
    """Value has an unparsable number or a suffix of the wrong dimension."""


class ConstraintError(ScenarioError):
    """Values parse but violate a cross-field constraint."""


# suffix -> factor, per dimension; dBm handled separately
_UNIT_TABLES = {
    "frequency": {"": 1.0, "hz": 1.0, "khz": 1e3, "mhz": 1e6, "ghz": 1e9},
    "power": {"": 1.0, "w": 1.0, "mw": 1e-3, "uw": 1e-6, "kw": 1e3},
    "voltage": {"": 1.0, "v": 1.0, "mv": 1e-3, "uv": 1e-6},
    "resistance": {"": 1.0, "ohm": 1.0, "kohm": 1e3},
    "length": {"": 1.0, "m": 1.0, "cm": 1e-2, "km": 1e3},
    "area": {"": 1.0, "m2": 1.0, "km2": 1e6},
    "plain": {"": 1.0, "dbi": 1.0},
}

_VALUE_RE = re.compile(r"^([-+]?[0-9.]+(?:[eE][-+]?[0-9]+)?)\s*([a-zA-Z2]*)$")


def parse_magnitude(raw: str, dimension: str, key: str) -> float:
    """Parse a number with an optional unit suffix into SI."""
    m = _VALUE_RE.match(raw.strip())
    if not m:
        raise UnitError(f"{key}: cannot parse value {raw!r}")
    number, suffix = m.group(1), m.group(2).lower()
    try:
        value = float(number)
    except ValueError:
        raise UnitError(f"{key}: bad number {number!r}") from None
    if dimension == "power" and suffix == "dbm":
        return 10.0 ** ((value - 30.0) / 10.0)
    table = _UNIT_TABLES[dimension]
    if suffix not in table:
        raise UnitError(
            f"{key}: unit {m.group(2)!r} is not a valid {dimension} suffix"
        )
    return value * table[suffix]


_SCHEMA = {
    # key: (field name, kind); kind drives parsing
    "p_t_w": ("p_t_w", "power"),
    "eirp_product_w": ("eirp_product_w", "power"),
    "g_t_dbi": ("g_t_dbi", "plain"),
    "g_r_dbi": ("g_r_dbi", "plain"),
    "f_hz": ("f_hz", "frequency"),
    "v_min_v": ("v_min_v", "voltage"),
    "r_r_ohm": ("r_r_ohm", "resistance"),
    "r_l_ohm": ("r_l_ohm", "resistance"),
    "field_width_m": ("field_width_m", "length"),
    "field_height_m": ("field_height_m", "length"),
    "field_area_m2": ("field_area_m2", "area"),
    "strategy": ("strategy", "strategy"),
    "sources": ("sources", "points"),
    "r_rf_m": ("r_rf_m", "length"),
    "node_count": ("node_count", "int"),
    "node_seed": ("node_seed", "int"),
}


@dataclass(frozen=True)
class Scenario:
    """Fully validated scenario; None means "use the built-in default"."""

    p_t_w: float | None = None
    eirp_product_w: float | None = None
    g_t_dbi: float | None = None
    g_r_dbi: float | None = None
    f_hz: float | None = None
    v_min_v: float | None = None
    r_r_ohm: float | None = None
    r_l_ohm: float | None = None
    field_width_m: float | None = None
    field_height_m: float | None = None
    field_area_m2: float | None = None
    strategy: Strategy | None = None
    sources: tuple[tuple[float, float], ...] | None = None
    r_rf_m: float | None = None
    node_count: int | None = None
    node_seed: int | None = None

    def __post_init__(self):
        if self.p_t_w is not None and self.eirp_product_w is not None:
            raise ConstraintError(
                "p_t_w and eirp_product_w are mutually exclusive; give one"
            )
        if (self.field_width_m is None) != (self.field_height_m is None):
            raise ConstraintError(
                "field_width_m and field_height_m must be given together"
            )
        if self.field_width_m is not None and self.field_area_m2 is not None:
            raise ConstraintError(
                "give field_width_m/field_height_m or field_area_m2, not both"
            )

    def radio(self) -> RadioParams:
        """RadioParams with the built-in defaults filled in.

        Defaults: p_t = 1 W, 8.5 dBi per antenna, f = 1 GHz,
        v_min = 100 mV, 50 + 50 ohm. With eirp_product_w the gains are
        treated as folded into the product.
        """
        kwargs = dict(
            f_hz=self.f_hz if self.f_hz is not None else 1e9,
            v_min_v=self.v_min_v if self.v_min_v is not None else 0.1,
            r_r_ohm=self.r_r_ohm if self.r_r_ohm is not None else 50.0,
            r_l_ohm=self.r_l_ohm if self.r_l_ohm is not None else 50.0,
        )
        if self.eirp_product_w is not None:
            return RadioParams.from_eirp_product(self.eirp_product_w, **kwargs)
        return RadioParams.from_si(
            p_t_w=self.p_t_w if self.p_t_w is not None else 1.0,
            g_t_dbi=self.g_t_dbi if self.g_t_dbi is not None else 8.5,
            g_r_dbi=self.g_r_dbi if self.g_r_dbi is not None else 8.5,
            **kwargs,
        )

    def event_field(self) -> EventField:
        """Event field; defaults to the 4e4 m2 square design point."""
        if self.field_width_m is not None:
            return EventField(self.field_width_m, self.field_height_m)
        area = self.field_area_m2 if self.field_area_m2 is not None else 4.0e4
        return EventField.square_from_area(area)


def _parse_points(raw: str, key: str) -> tuple[tuple[float, float], ...]:
    points = []
    for chunk in raw.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(",")
        if len(parts) != 2:
            raise UnitError(f"{key}: expected 'x,y' pairs separated by ';', got {chunk!r}")
        try:
            points.append((float(parts[0]), float(parts[1])))
        except ValueError:
            raise UnitError(f"{key}: bad coordinate in {chunk!r}") from None
    return tuple(points)


def _parse_value(key: str, kind: str, raw: str):
    if kind == "int":
        try:
            return int(raw.strip())
        except ValueError:
            raise UnitError(f"{key}: expected an integer, got {raw!r}") from None
    if kind == "points":
        return _parse_points(raw, key)
    if kind == "strategy":
        try:
            return Strategy(raw.strip())
        except ValueError:
            valid = ", ".join(e.value for e in Strategy)
            raise UnitError(f"{key}: {raw.strip()!r} is not one of {valid}") from None
    value = parse_magnitude(raw, kind, key)
    if not math.isfinite(value):
        raise UnitError(f"{key}: value must be finite")
    return value


def parse_scenario(text: str) -> Scenario:
    """Parse and validate a scenario document."""
    values: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, sep, raw = stripped.partition("=")
        if not sep:
            raise ScenarioParseError(f"line {lineno}: expected 'key = value', got {line!r}")
        key = key.strip()
        if key not in _SCHEMA:
            raise UnknownKeyError(f"line {lineno}: unknown key {key!r}")
        field_name, kind = _SCHEMA[key]
        if field_name in values:
            raise ScenarioParseError(f"line {lineno}: duplicate key {key!r}")
        values[field_name] = _parse_value(key, kind, raw.strip())
    return Scenario(**values)


def serialize_scenario(scenario: Scenario) -> str:
    """Render a scenario back to text; parse(serialize(s)) == s."""
    lines = []
    for f in fields(Scenario):
        value = getattr(scenario, f.name)
        if value is None:
            continue
        if isinstance(value, Strategy):
            rendered = value.value
        elif f.name == "sources":
            rendered = "; ".join(f"{x!r},{y!r}" for x, y in value)
        elif isinstance(value, int):
            rendered = str(value)
        else:
            rendered = repr(float(value))
        lines.append(f"{f.name} = {rendered}")
    return "\n".join(lines) + "\n"


def load_scenario(path) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scenario(fh.read())


def apply_overrides(scenario: Scenario, **overrides) -> Scenario:
    """Flag-level overrides; None values are ignored.

    An explicit p_t_w/eirp_product_w override displaces the other key so
    flags always win over the file.
    """
    updates = {k: v for k, v in overrides.items() if v is not None}
    if "p_t_w" in updates and scenario.eirp_product_w is not None:
        scenario = replace(scenario, eirp_product_w=None)
    if "eirp_product_w" in updates and scenario.p_t_w is not None:
        scenario = replace(scenario, p_t_w=None)
    if "field_area_m2" in updates and scenario.field_width_m is not None:
        scenario = replace(scenario, field_width_m=None, field_height_m=None)
    return replace(scenario, **updates)

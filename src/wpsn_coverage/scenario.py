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
from dataclasses import dataclass, field, fields, replace

from .coverage import EventField, Strategy, _strategy
from .link_budget import RadioParams, max_range
from .quantities import ValidationError, _db_to_ratio


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
        return _db_to_ratio(value - 30.0)
    table = _UNIT_TABLES[dimension]
    if suffix not in table:
        raise UnitError(
            f"{key}: unit {m.group(2)!r} is not a valid {dimension} suffix"
        )
    return value * table[suffix]


def _key(kind: str, default=None):
    """A scenario key: its parser kind and built-in default, if it has one."""
    return field(default=None, metadata={"kind": kind, "default": default})


@dataclass(frozen=True)
class Scenario:
    """Fully validated scenario; None means "use the built-in default".

    Each field is one scenario key, and all but field_width_m,
    field_height_m and sources are also one CLI flag; its metadata holds
    the parser kind and the built-in default.
    """

    p_t_w: float | None = _key("power", 1.0)
    eirp_product_w: float | None = _key("power")
    g_t_dbi: float | None = _key("plain", 8.5)
    g_r_dbi: float | None = _key("plain", 8.5)
    f_hz: float | None = _key("frequency", 1e9)
    v_min_v: float | None = _key("voltage", 0.1)
    r_r_ohm: float | None = _key("resistance", 50.0)
    r_l_ohm: float | None = _key("resistance", 50.0)
    field_width_m: float | None = _key("length")
    field_height_m: float | None = _key("length")
    field_area_m2: float | None = _key("area", 4.0e4)
    strategy: Strategy | None = _key("strategy", Strategy.SQUARE_GRID)
    sources: tuple[tuple[float, float], ...] | None = _key("points")
    r_rf_m: float | None = _key("length")  # default: max_range of the radio
    node_count: int | None = _key("int", 1000)
    node_seed: int | None = _key("int", 1)

    def __post_init__(self):
        for side, other in _EXCLUSIVE:
            if self._given(side) and self._given(other):
                raise ConstraintError(
                    f"give {'/'.join(side)} or {'/'.join(other)}, not both"
                )
        if (self.field_width_m is None) != (self.field_height_m is None):
            raise ConstraintError(
                "field_width_m and field_height_m must be given together"
            )
        explicit = self.strategy is Strategy.EXPLICIT
        if explicit and not self.sources:
            raise ConstraintError("strategy = explicit requires a sources list")
        if self.sources is not None and not explicit:
            raise ConstraintError("sources requires strategy = explicit")

    def _given(self, keys) -> bool:
        return any(getattr(self, key) is not None for key in keys)

    def value(self, key: str):
        """The key's value, or its built-in default when unset."""
        value = getattr(self, key)
        return _FIELDS[key].metadata["default"] if value is None else value

    def radio(self) -> RadioParams:
        """RadioParams with the built-in defaults filled in.

        eirp_product_w folds p_t and both gains into one value.
        """
        kwargs = {k: self.value(k) for k in ("f_hz", "v_min_v", "r_r_ohm", "r_l_ohm")}
        if self.eirp_product_w is not None:
            return RadioParams.from_eirp_product(self.eirp_product_w, **kwargs)
        for key in ("p_t_w", "g_t_dbi", "g_r_dbi"):
            kwargs[key] = self.value(key)
        return RadioParams.from_si(**kwargs)

    def source_range(self) -> float:
        """A source's range in m: r_rf_m, else the radio's activation range."""
        return self.r_rf_m if self.r_rf_m is not None else max_range(self.radio()).meters

    def event_field(self) -> EventField:
        """Event field: width x height, else a square of field_area_m2."""
        if self.field_width_m is not None:
            return EventField(self.field_width_m, self.field_height_m)
        return EventField.square_from_area(self.value("field_area_m2"))


_FIELDS = {f.name: f for f in fields(Scenario)}
RADIO_KEYS = "p_t_w eirp_product_w g_t_dbi g_r_dbi f_hz v_min_v r_r_ohm r_l_ohm"  # link budget

# Keys on both sides of a row conflict. A flag on one side displaces the
# file's keys on the other, but never a key that is itself a flag.
_EXCLUSIVE = (
    (("p_t_w", "g_t_dbi", "g_r_dbi"), ("eirp_product_w",)),
    (("field_width_m", "field_height_m"), ("field_area_m2",)),
    (("r_rf_m",), tuple(RADIO_KEYS.split())),  # a given range skips the link budget
)


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


def parse_value(key: str, raw: str):
    """Parse the text of one scenario key, from a file line or a flag."""
    kind = _FIELDS[key].metadata["kind"]
    if kind == "int":
        try:
            return int(raw.strip())
        except ValueError:
            raise UnitError(f"{key}: expected an integer, got {raw!r}") from None
    if kind == "points":
        return _parse_points(raw, key)
    if kind == "strategy":
        return _strategy(raw.strip(), UnitError, f"{key}: ")
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
        if key not in _FIELDS:
            raise UnknownKeyError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ScenarioParseError(f"line {lineno}: duplicate key {key!r}")
        values[key] = parse_value(key, raw.strip())
    return Scenario(**values)


def load_scenario(path) -> Scenario:
    """Parse a UTF-8 scenario file; its errors name the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return parse_scenario(fh.read())
        except UnicodeDecodeError as exc:
            raise ScenarioParseError(
                f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})"
            ) from exc
        except ScenarioError as exc:
            raise type(exc)(f"{path}: {exc}") from exc


def apply_overrides(scenario: Scenario, **overrides) -> Scenario:
    """Flag-level overrides; None values are ignored.

    Flags win over the file: an override on one side of an exclusive
    group clears the file's keys on the other side, and a grid strategy
    clears the file's sources. An overridden key is never cleared, so two
    conflicting overrides still raise ConstraintError.
    """
    updates = {k: v for k, v in overrides.items() if v is not None}
    displaced = set()
    for group in _EXCLUSIVE:
        for side, other in (group, group[::-1]):
            if updates.keys() & side:
                displaced.update(other)
    if "strategy" in updates and updates["strategy"] is not Strategy.EXPLICIT:
        displaced.add("sources")
    cleared = dict.fromkeys(displaced - updates.keys())
    return replace(scenario, **cleared, **updates)

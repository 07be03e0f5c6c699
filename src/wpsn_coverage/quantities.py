"""Physical quantities with construction-time validation.

All internal math is SI (watts, hertz, meters, ohms, volts). dB, dBm, GHz
and km2 appear only at the CLI / file boundary. The speed of light is
pinned to the rounded 3e8 m/s that every numeric anchor in this artifact
assumes; the CODATA value would shift ranges by ~0.07%.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

SPEED_OF_LIGHT = 3.0e8  # m/s, rounded by design


class ValidationError(ValueError):
    """A quantity or parameter violates its constraints."""


def _finite(value, name: str) -> float:
    try:
        out = float(value)
    except (TypeError, ValueError):
        raise ValidationError(f"{name} must be a real number, got {value!r}") from None
    if not math.isfinite(out):
        raise ValidationError(f"{name} must be finite, got {out!r}")
    return out


def _integer(value, name: str) -> int:
    """An int, or a value that is one exactly (numpy integers): 2.5 and 3.0 are not."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValidationError(f"{name} must be an integer, got {value!r}") from None


def _positive(value, name: str) -> float:
    out = _finite(value, name)
    if out <= 0.0:
        raise ValidationError(f"{name} must be > 0, got {out!r}")
    return out


def _non_negative(value, name: str) -> float:
    out = _finite(value, name)
    if out < 0.0:
        raise ValidationError(f"{name} must be >= 0, got {out!r}")
    return out


class _Quantity:
    """One float field in SI units, checked at construction. A subclass
    gives its error label and whether zero is allowed as class keywords."""

    def __init_subclass__(cls, label: str, zero_ok: bool = False):
        cls._label = label
        cls._check = staticmethod(_non_negative if zero_ok else _positive)

    def __post_init__(self):
        name = self.__match_args__[0]
        object.__setattr__(self, name, self._check(getattr(self, name), self._label))

    @classmethod
    def of(cls, value) -> float:
        """SI value of a quantity of this class, or of a number checked as one."""
        return getattr(value if isinstance(value, cls) else cls(value), cls.__match_args__[0])


@dataclass(frozen=True)
class Power(_Quantity, label="power [W]", zero_ok=True):
    """RF power in watts; non-negative (received power may be zero)."""

    watts: float


@dataclass(frozen=True)
class Frequency(_Quantity, label="frequency [Hz]"):
    """Carrier frequency in hertz; strictly positive."""

    hertz: float


@dataclass(frozen=True)
class Gain(_Quantity, label="gain [linear]"):
    """Antenna gain as a linear (dimensionless) ratio; strictly positive."""

    linear: float


@dataclass(frozen=True)
class Resistance(_Quantity, label="resistance [ohm]"):
    """Resistance in ohms; strictly positive, purely real."""

    ohms: float


@dataclass(frozen=True)
class Voltage(_Quantity, label="voltage [V]", zero_ok=True):
    """Voltage magnitude in volts; non-negative (zero received power
    induces zero volts). Threshold voltages must additionally be positive,
    which is enforced where they are consumed."""

    volts: float


@dataclass(frozen=True)
class Length(_Quantity, label="length [m]"):
    """Length in meters; strictly positive."""

    meters: float


@dataclass(frozen=True)
class Area(_Quantity, label="area [m^2]"):
    """Area in square meters; strictly positive."""

    sq_meters: float


def _db_to_ratio(db: float) -> float:
    """The linear ratio 10^(db/10); inf where that overflows a float."""
    try:
        return 10.0 ** (db / 10.0)
    except OverflowError:
        return math.inf


def dbi_to_linear(gain_dbi: float) -> Gain:
    """Convert antenna gain in dBi to a linear ratio."""
    g = _finite(gain_dbi, "gain [dBi]")
    if (linear := _db_to_ratio(g)) == math.inf:
        raise ValidationError(f"gain [dBi] {g!r} overflows a float as a linear ratio")
    return Gain(linear)


def wavelength(freq: Frequency | float) -> Length:
    """Free-space wavelength c/f, with c = 3e8 m/s exactly."""
    f = Frequency.of(freq)
    if (lam := SPEED_OF_LIGHT / f) == math.inf:
        raise ValidationError(f"wavelength c/f overflows a float at frequency [Hz] {f!r}")
    return Length(lam)

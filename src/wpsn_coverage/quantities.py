"""Physical quantities with construction-time validation.

All internal math is SI (watts, hertz, meters, ohms, volts). dB, dBm, GHz
and km2 appear only at the CLI / file boundary. The speed of light is
pinned to the rounded 3e8 m/s that every numeric anchor in this artifact
assumes; the CODATA value would shift ranges by ~0.07%.
"""

from __future__ import annotations

import math
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


@dataclass(frozen=True)
class Power:
    """RF power in watts; non-negative (received power may be zero)."""

    watts: float

    def __post_init__(self):
        object.__setattr__(self, "watts", _non_negative(self.watts, "power [W]"))


@dataclass(frozen=True)
class Frequency:
    """Carrier frequency in hertz; strictly positive."""

    hertz: float

    def __post_init__(self):
        object.__setattr__(self, "hertz", _positive(self.hertz, "frequency [Hz]"))


@dataclass(frozen=True)
class Gain:
    """Antenna gain as a linear (dimensionless) ratio; strictly positive."""

    linear: float

    def __post_init__(self):
        object.__setattr__(self, "linear", _positive(self.linear, "gain [linear]"))


@dataclass(frozen=True)
class Resistance:
    """Resistance in ohms; strictly positive, purely real."""

    ohms: float

    def __post_init__(self):
        object.__setattr__(self, "ohms", _positive(self.ohms, "resistance [ohm]"))


@dataclass(frozen=True)
class Voltage:
    """Voltage magnitude in volts; non-negative (zero received power
    induces zero volts). Threshold voltages must additionally be positive,
    which is enforced where they are consumed."""

    volts: float

    def __post_init__(self):
        object.__setattr__(self, "volts", _non_negative(self.volts, "voltage [V]"))


@dataclass(frozen=True)
class Length:
    """Length in meters; strictly positive."""

    meters: float

    def __post_init__(self):
        object.__setattr__(self, "meters", _positive(self.meters, "length [m]"))


@dataclass(frozen=True)
class Area:
    """Area in square meters; strictly positive."""

    sq_meters: float

    def __post_init__(self):
        object.__setattr__(self, "sq_meters", _positive(self.sq_meters, "area [m^2]"))


def dbi_to_linear(gain_dbi: float) -> Gain:
    """Convert antenna gain in dBi to a linear ratio."""
    g = _finite(gain_dbi, "gain [dBi]")
    try:
        return Gain(10.0 ** (g / 10.0))
    except OverflowError:
        raise ValidationError(f"gain [dBi] {g!r} overflows a float as a linear ratio") from None


def linear_to_dbi(gain: Gain | float) -> float:
    """Convert a linear gain ratio to dBi; inverse of :func:`dbi_to_linear`."""
    linear = gain.linear if isinstance(gain, Gain) else _positive(gain, "gain [linear]")
    return 10.0 * math.log10(linear)


def wavelength(freq: Frequency | float) -> Length:
    """Free-space wavelength c/f, with c = 3e8 m/s exactly."""
    hertz = freq.hertz if isinstance(freq, Frequency) else _positive(freq, "frequency [Hz]")
    return Length(SPEED_OF_LIGHT / hertz)

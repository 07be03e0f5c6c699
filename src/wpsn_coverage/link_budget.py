"""Forward powering link: free-space received power, induced antenna
voltage, and the activation-range solve that chains the two.

The model is P_r = P_t G_t G_r (lambda / 4 pi d)^2 together with
P_r = V^2 / (8 (R_r + R_l)); the activation range is the distance at
which the induced voltage drops to the node's wake-up threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .quantities import (
    Frequency,
    Gain,
    Length,
    Power,
    Resistance,
    ValidationError,
    Voltage,
    dbi_to_linear,
    wavelength,
)


@dataclass(frozen=True)
class RadioParams:
    """Every parameter of the powering link in SI units.

    Antenna gains are explicit per-antenna linear ratios; an "EIRP-style"
    parameter set (where only the product p_t*g_t*g_r is known) is
    expressed by folding the product into p_t with unit gains, see
    :meth:`from_eirp_product`.
    """

    p_t: Power
    g_t: Gain
    g_r: Gain
    f: Frequency
    v_min: Voltage
    r_r: Resistance
    r_l: Resistance

    def __post_init__(self):
        if self.p_t.watts <= 0.0:
            raise ValidationError("transmit power must be > 0")
        if self.v_min.volts <= 0.0:
            raise ValidationError("activation threshold voltage must be > 0")

    @classmethod
    def from_si(
        cls,
        p_t_w: float,
        g_t_dbi: float,
        g_r_dbi: float,
        f_hz: float,
        v_min_v: float = 0.1,
        r_r_ohm: float = 50.0,
        r_l_ohm: float = 50.0,
    ) -> "RadioParams":
        return cls(
            p_t=Power(p_t_w),
            g_t=dbi_to_linear(g_t_dbi),
            g_r=dbi_to_linear(g_r_dbi),
            f=Frequency(f_hz),
            v_min=Voltage(v_min_v),
            r_r=Resistance(r_r_ohm),
            r_l=Resistance(r_l_ohm),
        )

    @classmethod
    def from_eirp_product(
        cls,
        eirp_product_w: float,
        f_hz: float,
        v_min_v: float = 0.1,
        r_r_ohm: float = 50.0,
        r_l_ohm: float = 50.0,
    ) -> "RadioParams":
        """Radio whose p_t*g_t*g_r equals the given product (unit gains: 0 dBi)."""
        return cls.from_si(eirp_product_w, 0.0, 0.0, f_hz, v_min_v, r_r_ohm, r_l_ohm)

    @property
    def eirp_product_w(self) -> float:
        """p_t * g_t * g_r in watts."""
        return self.p_t.watts * self.g_t.linear * self.g_r.linear

    @property
    def loop_resistance_ohm(self) -> float:
        """R_r + R_l in ohms."""
        return self.r_r.ohms + self.r_l.ohms

    def with_power(self, p_t_w: float) -> "RadioParams":
        return replace(self, p_t=Power(p_t_w))

    def with_frequency(self, f_hz: float) -> "RadioParams":
        return replace(self, f=Frequency(f_hz))


@dataclass(frozen=True)
class LinkResult:
    """Received power and induced voltage at one distance."""

    p_r: Power
    v_induced: Voltage
    distance: Length


def _meters(d: Length | float) -> float:
    return d.meters if isinstance(d, Length) else Length(d).meters


def received_power(radio: RadioParams, d: Length | float) -> Power:
    """Free-space received power at distance d."""
    d_m = _meters(d)
    lam = wavelength(radio.f).meters
    factor = lam / (4.0 * math.pi * d_m)
    return Power(radio.eirp_product_w * factor * factor)


def induced_voltage(
    p_r: Power | float, r_r: Resistance | float, r_l: Resistance | float
) -> Voltage:
    """Voltage induced on the node antenna by received power p_r."""
    watts = p_r.watts if isinstance(p_r, Power) else Power(p_r).watts
    r_r_ohm = r_r.ohms if isinstance(r_r, Resistance) else Resistance(r_r).ohms
    r_l_ohm = r_l.ohms if isinstance(r_l, Resistance) else Resistance(r_l).ohms
    return Voltage(math.sqrt(8.0 * (r_r_ohm + r_l_ohm) * watts))


def power_from_voltage(
    v: Voltage | float, r_r: Resistance | float, r_l: Resistance | float
) -> Power:
    """Received power equivalent of an induced voltage; inverse of
    :func:`induced_voltage`."""
    volts = v.volts if isinstance(v, Voltage) else Voltage(v).volts
    r_r_ohm = r_r.ohms if isinstance(r_r, Resistance) else Resistance(r_r).ohms
    r_l_ohm = r_l.ohms if isinstance(r_l, Resistance) else Resistance(r_l).ohms
    return Power(volts * volts / (8.0 * (r_r_ohm + r_l_ohm)))


def max_range(radio: RadioParams) -> Length:
    """Activation range: the distance at which the induced voltage equals
    the node's threshold."""
    p_threshold = power_from_voltage(radio.v_min, radio.r_r, radio.r_l).watts
    if p_threshold == 0.0:
        raise ValidationError("activation threshold power underflows to 0 W")
    lam = wavelength(radio.f).meters
    return Length(lam / (4.0 * math.pi) * math.sqrt(radio.eirp_product_w / p_threshold))


def link_at(radio: RadioParams, d: Length | float) -> LinkResult:
    """Received power and induced voltage at distance d."""
    p_r = received_power(radio, d)
    v = induced_voltage(p_r, radio.r_r, radio.r_l)
    return LinkResult(p_r=p_r, v_induced=v, distance=Length(_meters(d)))

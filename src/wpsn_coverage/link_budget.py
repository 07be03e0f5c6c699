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


def _loop_factor(r_r: Resistance | float, r_l: Resistance | float) -> float:
    """8 (R_r + R_l) in ohms, the ratio V^2 / P_r."""
    factor = 8.0 * (Resistance.of(r_r) + Resistance.of(r_l))
    if factor == math.inf:
        raise ValidationError("loop resistance r_r + r_l overflows a float in 8 (r_r + r_l)")
    return factor


def received_power(radio: RadioParams, d: Length | float) -> Power:
    """Free-space received power at distance d."""
    d_m = Length.of(d)
    lam = wavelength(radio.f).meters
    factor = lam / (4.0 * math.pi * d_m)
    return Power(radio.eirp_product_w * factor * factor)


def induced_voltage(
    p_r: Power | float, r_r: Resistance | float, r_l: Resistance | float
) -> Voltage:
    """Voltage induced on the node antenna by received power p_r."""
    watts = Power.of(p_r)
    return Voltage(math.sqrt(_loop_factor(r_r, r_l) * watts))


def power_from_voltage(
    v: Voltage | float, r_r: Resistance | float, r_l: Resistance | float
) -> Power:
    """Received power equivalent of an induced voltage; inverse of
    :func:`induced_voltage`."""
    volts = Voltage.of(v)
    return Power(volts * volts / _loop_factor(r_r, r_l))


def max_range(radio: RadioParams) -> Length:
    """Activation range: the distance at which the induced voltage equals
    the node's threshold."""
    # power_from_voltage without its finiteness check: an overflow is
    # reported below against the inputs, not as an infinite power
    v = radio.v_min.volts
    p_threshold = v * v / _loop_factor(radio.r_r, radio.r_l)
    if p_threshold == 0.0:
        raise ValidationError("activation threshold power underflows to 0 W")
    lam = wavelength(radio.f).meters
    eirp = radio.eirp_product_w
    r = lam / (4.0 * math.pi) * math.sqrt(eirp / p_threshold)
    if not 0.0 < r < math.inf:
        raise ValidationError(
            f"activation range is {r!r} m, outside (0, inf): p_t g_t g_r = {eirp!r} W,"
            f" threshold power v_min^2 / 8 (r_r + r_l) = {p_threshold!r} W, wavelength {lam!r} m"
        )
    return Length(r)

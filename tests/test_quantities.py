import math

import pytest
from hypothesis import given, strategies as st

from wpsn_coverage.quantities import (
    SPEED_OF_LIGHT,
    Area,
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


class TestConstruction:
    @pytest.mark.parametrize("cls", [Frequency, Gain, Resistance, Length, Area])
    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf"), None, "x"])
    def test_strictly_positive_types_reject(self, cls, bad):
        with pytest.raises(ValidationError):
            cls(bad)

    @pytest.mark.parametrize("cls", [Power, Voltage])
    @pytest.mark.parametrize("bad", [-1e-12, float("nan"), float("-inf"), "x"])
    def test_non_negative_types_reject(self, cls, bad):
        with pytest.raises(ValidationError):
            cls(bad)

    def test_zero_power_and_voltage_allowed(self):
        assert Power(0.0).watts == 0.0
        assert Voltage(0.0).volts == 0.0


QUANTITIES = [Power, Frequency, Gain, Resistance, Voltage, Length, Area]


class TestOf:
    @pytest.mark.parametrize("cls", QUANTITIES)
    @pytest.mark.parametrize("x", [1, 2.5, 1e-300, 1e300])
    def test_quantity_and_number_agree(self, cls, x):
        assert cls.of(cls(x)) == cls.of(x) == float(x)

    @pytest.mark.parametrize("cls", QUANTITIES)
    @pytest.mark.parametrize("bad", [-1.0, float("nan"), float("inf"), None, "x"])
    def test_number_rejected_as_by_constructor(self, cls, bad):
        with pytest.raises(ValidationError) as made:
            cls(bad)
        with pytest.raises(ValidationError) as coerced:
            cls.of(bad)
        assert str(coerced.value) == str(made.value)

    @pytest.mark.parametrize("cls", QUANTITIES)
    def test_other_quantity_rejected(self, cls):
        other = Length(1.0) if cls is Area else Area(1.0)
        with pytest.raises(ValidationError, match="must be a real number"):
            cls.of(other)


class TestDbiConversion:
    def test_zero_dbi_is_unity(self):
        assert dbi_to_linear(0.0).linear == 1.0

    def test_8_5_dbi(self):
        assert dbi_to_linear(8.5).linear == pytest.approx(7.0795, abs=1e-4)

    def test_17_dbi(self):
        assert dbi_to_linear(17.0).linear == pytest.approx(50.119, abs=1e-3)

    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError):
            dbi_to_linear(float("nan"))

    @given(st.floats(min_value=1e-6, max_value=1e6))
    def test_round_trip(self, linear):
        back = dbi_to_linear(10.0 * math.log10(linear)).linear
        assert back == pytest.approx(linear, rel=1e-12)


class TestWavelength:
    def test_1_ghz(self):
        assert wavelength(Frequency(1e9)).meters == pytest.approx(0.3, rel=1e-15)

    def test_2_ghz(self):
        assert wavelength(Frequency(2e9)).meters == pytest.approx(0.15, rel=1e-15)

    def test_500_mhz(self):
        assert wavelength(Frequency(5e8)).meters == pytest.approx(0.6, rel=1e-15)

    def test_rejects_non_positive(self):
        with pytest.raises(ValidationError):
            wavelength(0.0)

    def test_overflow_names_the_frequency(self):
        with pytest.raises(ValidationError, match=r"c/f overflows .* 1e-301"):
            wavelength(1e-301)

    @given(st.floats(min_value=1e3, max_value=1e12))
    def test_halving_under_doubled_frequency(self, f):
        assert wavelength(Frequency(2 * f)).meters == wavelength(Frequency(f)).meters / 2

    def test_speed_of_light_is_the_rounded_constant(self):
        # every numeric anchor in this artifact assumes 3e8 m/s
        assert SPEED_OF_LIGHT == 3.0e8
        assert math.isclose(wavelength(Frequency(1e9)).meters * 1e9, 3.0e8)

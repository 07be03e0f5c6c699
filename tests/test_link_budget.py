import pytest
from hypothesis import given, strategies as st

from wpsn_coverage.link_budget import (
    RadioParams,
    induced_voltage,
    max_range,
    power_from_voltage,
    received_power,
)
from wpsn_coverage.quantities import ValidationError, Voltage, wavelength


@pytest.fixture
def anchor_radio():
    """p_t*g_t*g_r = 4 W, 100 mV threshold, 50+50 ohm, 2 GHz."""
    return RadioParams.from_eirp_product(4.0, 2e9)


radio_strategy = st.builds(
    RadioParams.from_si,
    p_t_w=st.floats(min_value=1e-3, max_value=1e3),
    g_t_dbi=st.floats(min_value=-10, max_value=30),
    g_r_dbi=st.floats(min_value=-10, max_value=30),
    f_hz=st.floats(min_value=1e6, max_value=1e11),
    v_min_v=st.floats(min_value=1e-3, max_value=10.0),
    r_r_ohm=st.floats(min_value=1.0, max_value=1e3),
    r_l_ohm=st.floats(min_value=1.0, max_value=1e3),
)


class TestRadioParams:
    def test_rejects_zero_transmit_power(self):
        with pytest.raises(ValidationError):
            RadioParams.from_si(0.0, 8.5, 8.5, 1e9)

    def test_rejects_zero_threshold(self):
        with pytest.raises(ValidationError):
            RadioParams.from_si(1.0, 8.5, 8.5, 1e9, v_min_v=0.0)

    def test_eirp_product_folds_gains(self):
        radio = RadioParams.from_eirp_product(4.0, 1e9)
        assert radio.eirp_product_w == 4.0
        assert radio.g_t.linear == 1.0


class TestReceivedPower:
    def test_anchor_power_at_2ghz_range(self, anchor_radio):
        # 12.5 uW is the 100 mV voltage threshold expressed as power
        p = received_power(anchor_radio, 6.75)
        assert p.watts == pytest.approx(1.2504e-5, rel=1e-3)

    def test_unit_factor_distance(self):
        radio = RadioParams.from_eirp_product(3.0, 1e9)
        d = wavelength(radio.f).meters / (4.0 * 3.141592653589793)
        assert received_power(radio, d).watts == pytest.approx(3.0, rel=1e-12)

    def test_inverse_square(self, anchor_radio):
        p1 = received_power(anchor_radio, 5.0).watts
        p2 = received_power(anchor_radio, 10.0).watts
        assert p1 / p2 == pytest.approx(4.0, rel=1e-12)

    def test_rejects_non_positive_distance(self, anchor_radio):
        with pytest.raises(ValidationError):
            received_power(anchor_radio, 0.0)

    @given(radio_strategy, st.floats(min_value=0.1, max_value=1e4))
    def test_power_times_distance_squared_constant(self, radio, d):
        near = received_power(radio, d).watts * d * d
        far = received_power(radio, 3.7 * d).watts * (3.7 * d) ** 2
        assert near == pytest.approx(far, rel=1e-12)


class TestVoltagePowerPair:
    def test_anchor_voltage(self):
        v = induced_voltage(1.25e-5, 50.0, 50.0)
        assert v.volts == pytest.approx(0.100, abs=1e-6)

    def test_zero_power_zero_voltage(self):
        assert induced_voltage(0.0, 50.0, 50.0).volts == 0.0

    def test_quadruple_power_doubles_voltage(self):
        v1 = induced_voltage(1e-6, 50.0, 50.0).volts
        v4 = induced_voltage(4e-6, 50.0, 50.0).volts
        assert v4 == pytest.approx(2.0 * v1, rel=1e-12)

    def test_power_from_voltage_anchor(self):
        assert power_from_voltage(0.1, 50.0, 50.0).watts == pytest.approx(1.25e-5, rel=1e-12)

    def test_zero_voltage_zero_power(self):
        assert power_from_voltage(0.0, 50.0, 50.0).watts == 0.0

    @pytest.mark.parametrize("convert, x", [(induced_voltage, 0.0), (power_from_voltage, 0.1)])
    def test_overflowing_loop_resistance_named(self, convert, x):
        # 8 (r_r + r_l) overflows; at p_r = 0 it used to surface as a NaN voltage
        with pytest.raises(ValidationError, match=r"loop resistance r_r \+ r_l"):
            convert(x, 1e308, 50.0)

    @given(
        st.floats(min_value=1e-6, max_value=1e3),
        st.floats(min_value=1.0, max_value=1e3),
        st.floats(min_value=1.0, max_value=1e3),
    )
    def test_round_trip(self, v, r_r, r_l):
        back = induced_voltage(power_from_voltage(v, r_r, r_l), r_r, r_l).volts
        assert back == pytest.approx(v, rel=1e-12)


class TestMaxRange:
    @pytest.mark.parametrize(
        "radio, shown",
        [
            (RadioParams.from_si(1e308, 30.0, 8.5, 1e9), "p_t g_t g_r = inf W"),
            (RadioParams.from_si(1.0, 8.5, 8.5, 1e9, v_min_v=1e200),
             r"threshold power v_min\^2 / 8 \(r_r \+ r_l\) = inf W"),
        ],
        ids=["eirp product", "threshold power"],
    )
    def test_overflow_names_its_inputs(self, radio, shown):
        with pytest.raises(ValidationError, match=shown):
            max_range(radio)

    @pytest.mark.parametrize(
        "f_hz,expected",
        [(2e9, 6.754), (1e9, 13.508), (5e8, 27.02)],
    )
    def test_anchor_ranges(self, anchor_radio, f_hz, expected):
        r = max_range(anchor_radio.with_frequency(f_hz)).meters
        assert r == pytest.approx(expected, abs=0.02 * expected / 6.754)

    @pytest.mark.parametrize(
        "f_hz,paper_value",
        [(2e9, 6.75), (1e9, 13.49), (5e8, 26.98)],
    )
    def test_paper_range_values_within_rounding(self, anchor_radio, f_hz, paper_value):
        r = max_range(anchor_radio.with_frequency(f_hz)).meters
        assert r == pytest.approx(paper_value, rel=2e-3)

    @given(radio_strategy)
    def test_threshold_voltage_reproduced_at_max_range(self, radio):
        d = max_range(radio)
        v = induced_voltage(received_power(radio, d), radio.r_r, radio.r_l)
        assert v.volts == pytest.approx(radio.v_min.volts, rel=1e-9)

    @given(radio_strategy)
    def test_sqrt_power_scaling(self, radio):
        quad = radio.with_power(4.0 * radio.p_t.watts)
        assert max_range(quad).meters == pytest.approx(
            2.0 * max_range(radio).meters, rel=1e-12
        )

    @given(radio_strategy)
    def test_inverse_frequency_scaling(self, radio):
        halved = radio.with_frequency(radio.f.hertz / 2.0)
        assert max_range(halved).meters == pytest.approx(
            2.0 * max_range(radio).meters, rel=1e-12
        )


class TestLinkAt:
    def test_result_consistent_under_voltage_power_relation(self, anchor_radio):
        p_r = received_power(anchor_radio, 3.0)
        v = induced_voltage(p_r, anchor_radio.r_r, anchor_radio.r_l)
        loop = anchor_radio.loop_resistance_ohm
        assert v.volts**2 == pytest.approx(8.0 * loop * p_r.watts, rel=1e-12)

    def test_voltage_at_max_range_is_threshold(self, anchor_radio):
        p_r = received_power(anchor_radio, max_range(anchor_radio))
        v = induced_voltage(p_r, anchor_radio.r_r, anchor_radio.r_l)
        assert v.volts == pytest.approx(0.1, rel=1e-9)

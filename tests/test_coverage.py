import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wpsn_coverage.coverage import (
    EventField,
    SourceCount,
    max_area,
    required_power,
    source_count,
    source_count_from_range,
)
from wpsn_coverage.link_budget import RadioParams, max_range
from wpsn_coverage.quantities import ValidationError

from test_link_budget import radio_strategy

_NOT_AN_INTEGER = "^source count must be an integer, got {}$"


@pytest.fixture
def design_radio():
    """1 W, 8.5 dBi per antenna, 1 GHz, 100 mV, 50+50 ohm."""
    return RadioParams.from_si(1.0, 8.5, 8.5, 1e9)


class TestEventField:
    def test_area(self):
        assert EventField(200.0, 200.0).area == pytest.approx(4e4, rel=1e-12)

    def test_square_from_area(self):
        f = EventField.square_from_area(4e4)
        assert f.width == pytest.approx(200.0)
        assert f.width == f.height

    def test_rejects_non_positive(self):
        with pytest.raises(ValidationError):
            EventField(0.0, 10.0)


class TestSourceCount:
    def test_required_is_ceiling(self):
        k = SourceCount(5.01)
        assert k.required == 6

    def test_integer_exact(self):
        assert SourceCount(3.0).required == 3

    @given(st.floats(min_value=5e-324, max_value=1e300))
    def test_required_is_ceiling_of_any_count(self, x):
        assert SourceCount(x).required == math.ceil(x)

    @pytest.mark.parametrize(
        "bad, text",
        [
            (0, "source count must be > 0, got 0.0"),
            (-1, "source count must be > 0, got -1.0"),
            (math.inf, "source count must be finite, got inf"),
            (math.nan, "source count must be finite, got nan"),
            ("x", "source count must be a real number, got 'x'"),
        ],
    )
    def test_rejects_as_before(self, bad, text):
        with pytest.raises(ValidationError) as info:
            SourceCount(bad)
        assert str(info.value) == text


class TestClosedForm:
    """source_count and required_power against their formulas written out."""

    @settings(max_examples=300)
    @given(radio_strategy, st.floats(min_value=1.0, max_value=1e8), st.integers(1, 10**6))
    def test_bit_identical_to_the_written_out_formula(self, radio, area, k):
        f, v = radio.f.hertz, radio.v_min.volts
        c, loop = 3.0e8, radio.loop_resistance_ohm
        exact = (2.0 * math.pi * area * f * f * v * v) / (c * c * radio.eirp_product_w * loop)
        gains = radio.g_t.linear * radio.g_r.linear
        p_t = (2.0 * math.pi * area * f * f * v * v) / (c * c * float(k) * gains * loop)
        assert source_count(area, radio).exact == exact
        assert required_power(area, k, radio).watts == p_t

    @pytest.mark.parametrize(
        "call",
        [
            lambda radio: source_count(4e4, radio),
            lambda radio: required_power(4e4, 6, radio),
        ],
        ids=["source_count", "required_power"],
    )
    def test_overflowing_loop_resistance_named(self, call):
        radio = RadioParams.from_si(1.0, 8.5, 8.5, 1e9, r_r_ohm=1e308, r_l_ohm=1e308)
        with pytest.raises(ValidationError, match=r"r_r \+ r_l inf ohm"):
            call(radio)

    def test_denominator_underflow_named(self):
        radio = RadioParams.from_si(1e-320, 0.0, 0.0, 1e9, r_r_ohm=1e-300, r_l_ohm=1e-300)
        with pytest.raises(ValidationError, match=r"source count is inf.* r_r \+ r_l 2e-300 ohm"):
            source_count(4e4, radio)

    def test_overflowing_frequency_named(self, design_radio):
        with pytest.raises(ValidationError, match=r"outside \(0, inf\).* f 1e\+300 Hz"):
            source_count(4e4, design_radio.with_frequency(1e300))


class TestSourceCountFromRange:
    def test_hand_evaluation(self):
        k = source_count_from_range(4e4, 13.49)
        assert k.exact == pytest.approx(69.97, abs=0.1)
        assert k.required == 70

    def test_single_disc(self):
        r = 7.3
        k = source_count_from_range(math.pi * r * r, r)
        assert k.exact == pytest.approx(1.0, rel=1e-12)
        assert k.required == 1

    def test_linear_in_area(self):
        k1 = source_count_from_range(1e4, 9.0).exact
        k2 = source_count_from_range(2e4, 9.0).exact
        assert k2 == pytest.approx(2.0 * k1, rel=1e-12)

    def test_rejects_non_positive(self):
        with pytest.raises(ValidationError):
            source_count_from_range(-1.0, 10.0)

    @pytest.mark.parametrize(
        "area, r, text",
        [
            (4e4, 1e-200, "inf"),  # r^2 underflows to 0
            (1e300, 1e-10, "inf"),  # area / (pi r^2) overflows
            (4e4, 1e200, "0.0"),  # r^2 overflows
        ],
    )
    def test_result_outside_open_range_names_inputs(self, area, r, text):
        pattern = rf"is {text}, outside \(0, inf\).* r {re.escape(repr(r))} m"
        with pytest.raises(ValidationError, match=pattern):
            source_count_from_range(area, r)


class TestSourceCount4e4Anchor:
    def test_design_point(self, design_radio):
        k = source_count(4e4, design_radio)
        assert k.exact == pytest.approx(5.58, abs=0.02)
        assert k.required == 6

    def test_accepts_event_field(self, design_radio):
        k = source_count(EventField.square_from_area(4e4), design_radio)
        assert k.exact == pytest.approx(5.58, abs=0.02)

    def test_frequency_squared_scaling(self, design_radio):
        k1 = source_count(4e4, design_radio).exact
        k2 = source_count(4e4, design_radio.with_frequency(2e9)).exact
        assert k2 == pytest.approx(4.0 * k1, rel=1e-12)

    @settings(max_examples=200)
    @given(radio_strategy, st.floats(min_value=1.0, max_value=1e8))
    def test_matches_range_formula(self, radio, area):
        closed_form = source_count(area, radio).exact
        via_range = area / (math.pi * max_range(radio).meters ** 2)
        assert closed_form == pytest.approx(via_range, rel=1e-9)


class TestRequiredPower:
    def test_hand_evaluation(self, design_radio):
        p = required_power(4e4, 6, design_radio)
        assert p.watts == pytest.approx(0.929, abs=0.005)

    def test_round_trips_through_source_count(self, design_radio):
        p = required_power(4e4, 6, design_radio)
        k = source_count(4e4, design_radio.with_power(p.watts))
        assert k.exact == pytest.approx(6.0, rel=1e-9)

    def test_doubling_k_halves_power(self, design_radio):
        p3 = required_power(4e4, 3, design_radio).watts
        p6 = required_power(4e4, 6, design_radio).watts
        assert p6 == pytest.approx(p3 / 2.0, rel=1e-12)

    def test_ignores_base_transmit_power(self, design_radio):
        p1 = required_power(4e4, 6, design_radio).watts
        p2 = required_power(4e4, 6, design_radio.with_power(123.0)).watts
        assert p1 == p2

    def test_rejects_k_below_one(self, design_radio):
        with pytest.raises(ValidationError):
            required_power(4e4, 0, design_radio)

    def test_rejects_k_beyond_float_range(self, design_radio):
        with pytest.raises(ValidationError, match="overflows a float"):
            required_power(4e4, 10**400, design_radio)

    @pytest.mark.parametrize("k", ["x", None, 2.5, 6.0])
    def test_rejects_k_that_is_not_an_integer(self, design_radio, k):
        with pytest.raises(ValidationError, match=_NOT_AN_INTEGER.format(re.escape(repr(k)))):
            required_power(4e4, k, design_radio)

    def test_takes_numpy_integer_k(self, design_radio):
        assert required_power(4e4, np.int64(6), design_radio) == required_power(4e4, 6, design_radio)


class TestMaxArea:
    def test_single_source(self, design_radio):
        r = max_range(design_radio).meters
        assert max_area(1, design_radio).sq_meters == pytest.approx(
            math.pi * r * r, rel=1e-12
        )

    def test_five_sources_at_1ghz_anchor_radio(self):
        radio = RadioParams.from_eirp_product(4.0, 1e9)
        assert max_area(5, radio).sq_meters == pytest.approx(2866, rel=0.01)

    def test_round_trips_through_source_count(self, design_radio):
        area = max_area(5, design_radio)
        k = source_count(area, design_radio)
        assert k.exact == pytest.approx(5.0, rel=1e-9)

    def test_rejects_k_below_one(self, design_radio):
        with pytest.raises(ValidationError):
            max_area(0, design_radio)

    def test_rejects_k_beyond_float_range(self, design_radio):
        with pytest.raises(ValidationError, match="overflows a float"):
            max_area(10**400, design_radio)

    @pytest.mark.parametrize("k", ["x", None, 2.5, 6.0])
    def test_rejects_k_that_is_not_an_integer(self, design_radio, k):
        with pytest.raises(ValidationError, match=_NOT_AN_INTEGER.format(re.escape(repr(k)))):
            max_area(k, design_radio)

    def test_takes_numpy_integer_k(self, design_radio):
        assert max_area(np.uint8(5), design_radio) == max_area(5, design_radio)


class TestMonotonicity:
    @given(radio_strategy)
    def test_decreasing_in_power_and_gain(self, radio):
        base = source_count(1e5, radio).exact
        assert source_count(1e5, radio.with_power(radio.p_t.watts * 1.5)).exact < base

    @given(radio_strategy)
    def test_increasing_in_frequency(self, radio):
        base = source_count(1e5, radio).exact
        assert source_count(1e5, radio.with_frequency(radio.f.hertz * 1.5)).exact > base

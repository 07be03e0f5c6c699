import math

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
        k = SourceCount.from_exact(5.01)
        assert k.required == 6

    def test_integer_exact(self):
        assert SourceCount.from_exact(3.0).required == 3

    def test_rejects_inconsistent_pair(self):
        with pytest.raises(ValidationError):
            SourceCount(exact=5.5, required=5)


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


class TestMonotonicity:
    @given(radio_strategy)
    def test_decreasing_in_power_and_gain(self, radio):
        base = source_count(1e5, radio).exact
        assert source_count(1e5, radio.with_power(radio.p_t.watts * 1.5)).exact < base

    @given(radio_strategy)
    def test_increasing_in_frequency(self, radio):
        base = source_count(1e5, radio).exact
        assert source_count(1e5, radio.with_frequency(radio.f.hertz * 1.5)).exact > base

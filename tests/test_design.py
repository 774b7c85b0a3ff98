import dataclasses
import math

import pytest
from hypothesis import given, strategies as st

from ofdmforge import (
    SPEED_OF_LIGHT,
    ScenarioSpec,
    bandwidth_for_target,
    dimension_pulse,
    max_pulse_length,
    max_subcarriers,
)
from ofdmforge.errors import InvalidScenarioError

# the reference table values assume c = 3e8; we keep exact c and allow 1%
TABLE_TOL = 0.01


class TestBandwidth:
    def test_walker_scenario(self):
        b = bandwidth_for_target(ScenarioSpec(2.0, 1.0, 1500.0))
        assert b == pytest.approx(50e6, rel=TABLE_TOL)

    def test_truck_scenario(self):
        b = bandwidth_for_target(ScenarioSpec(10.0, 5.0, 1500.0))
        assert b == pytest.approx(10e6, rel=TABLE_TOL)

    def test_definition_inversion(self):
        b = bandwidth_for_target(ScenarioSpec(SPEED_OF_LIGHT / 2, 0.0, 1.0))
        assert b == pytest.approx(1.0, rel=1e-12)

    def test_invalid_scenarios(self):
        with pytest.raises(InvalidScenarioError):
            ScenarioSpec(-1.0, 0.0, 100.0)
        with pytest.raises(InvalidScenarioError):
            ScenarioSpec(1.0, -0.5, 100.0)
        with pytest.raises(InvalidScenarioError):
            ScenarioSpec(1.0, 0.0, 0.0)
        with pytest.raises(InvalidScenarioError):
            ScenarioSpec(float("inf"), 0.0, 100.0)

    @pytest.mark.parametrize("extent, min_range", [
        (1e-300, 1e300),  # B is finite, 2*B*R/c overflows
        (1.0, 1e300),     # R / (extent + margin) is finite, 2*B*R/c is not
        (5e-324, 1.0),    # B itself overflows
    ])
    def test_overflowing_ratio_rejected(self, extent, min_range):
        with pytest.raises(InvalidScenarioError, match="not finite"):
            ScenarioSpec(extent, 0.0, min_range)


class TestPulseLength:
    def test_eclipsed_zone_1500m(self):
        assert max_pulse_length(1500.0) == pytest.approx(10e-6, rel=TABLE_TOL)

    def test_half_light_second(self):
        assert max_pulse_length(SPEED_OF_LIGHT / 2) == pytest.approx(1.0, rel=1e-12)

    def test_750m(self):
        expected = 2.0 * 750.0 / SPEED_OF_LIGHT
        assert max_pulse_length(750.0) == pytest.approx(expected, rel=1e-12)
        assert max_pulse_length(750.0) == pytest.approx(5e-6, rel=TABLE_TOL)

    def test_invalid(self):
        with pytest.raises(InvalidScenarioError):
            max_pulse_length(0.0)
        with pytest.raises(InvalidScenarioError):
            max_pulse_length(float("nan"))


class TestMaxSubcarriers:
    def test_table_values(self):
        assert max_subcarriers(50e6, 1500.0) == 500
        assert max_subcarriers(10e6, 1500.0) == 100

    def test_floor_behavior(self):
        # scaled so 2*B*R/c = 7.9 exactly
        assert max_subcarriers(7.9, SPEED_OF_LIGHT / 2) == 7

    def test_too_small(self):
        with pytest.raises(InvalidScenarioError):
            max_subcarriers(1.0, 1.0)

    def test_invalid_args(self):
        with pytest.raises(InvalidScenarioError):
            max_subcarriers(-1.0, 100.0)
        with pytest.raises(InvalidScenarioError):
            max_subcarriers(1e6, 0.0)

    def test_overflowing_ratio(self):
        # 2*B*R/c overflows to inf, which floor cannot turn into an integer
        b = SPEED_OF_LIGHT / 2e-300
        with pytest.raises(InvalidScenarioError, match="not finite"):
            max_subcarriers(b, 1e300)


@given(
    extent=st.floats(0.1, 1e4),
    margin=st.floats(0.0, 1e4),
    delta=st.floats(0.1, 1e4),
)
def test_bandwidth_monotone_decreasing(extent, margin, delta):
    near = bandwidth_for_target(ScenarioSpec(extent, margin, 1000.0))
    far = bandwidth_for_target(ScenarioSpec(extent + delta, margin, 1000.0))
    assert far < near


@given(
    extent=st.floats(0.5, 100.0),
    margin=st.floats(0.0, 100.0),
    min_range=st.floats(200.0, 1e5),
)
def test_dimensioning_chain_consistency(extent, margin, min_range):
    # N_max * (extent + margin) never exceeds R_min: the subcarrier cap is
    # the floor of R_min / (extent + margin)
    scenario = ScenarioSpec(extent, margin, min_range)
    b = bandwidth_for_target(scenario)
    ratio = 2.0 * b * min_range / SPEED_OF_LIGHT
    if ratio < 1.0:
        with pytest.raises(InvalidScenarioError):
            max_subcarriers(b, min_range)
        return
    n = max_subcarriers(b, min_range)
    assert n * (extent + margin) <= min_range * (1 + 1e-12)


def test_dimension_pulse_bundle():
    dims = dimension_pulse(ScenarioSpec(2.0, 1.0, 1500.0))
    assert dims.max_subcarriers == 500
    assert dims.bandwidth_hz == pytest.approx(50e6, rel=TABLE_TOL)
    assert dims.max_pulse_len_s == pytest.approx(10e-6, rel=TABLE_TOL)
    d = dataclasses.asdict(dims)
    assert set(d) == {"bandwidth_hz", "max_pulse_len_s", "max_subcarriers"}
    assert math.isfinite(d["bandwidth_hz"])

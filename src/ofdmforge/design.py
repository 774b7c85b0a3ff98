"""Pulse dimensioning: map a radar scenario onto OFDM pulse parameters.

The bandwidth is set so the whole target (plus a safety margin) fits in one
range cell, the pulse length is bounded by the eclipsed zone in front of the
radar, and together these cap the number of subcarriers a single-symbol pulse
may carry.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidScenarioError

SPEED_OF_LIGHT = 2.99792458e8
"""Propagation speed used everywhere, m/s (exact SI value)."""


@dataclass(frozen=True)
class ScenarioSpec:
    """Radar scenario inputs for waveform dimensioning.

    target_extent_m: radial extent of the target.
    margin_m: extra range margin for motion/position uncertainty.
    min_range_m: closest range at which targets are expected.
    """

    target_extent_m: float
    margin_m: float
    min_range_m: float

    def __post_init__(self) -> None:
        for name in ("target_extent_m", "margin_m", "min_range_m"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidScenarioError(f"{name} must be finite")
        if self.target_extent_m <= 0:
            raise InvalidScenarioError("target_extent_m must be > 0")
        if self.margin_m < 0:
            raise InvalidScenarioError("margin_m must be >= 0")
        if self.min_range_m <= 0:
            raise InvalidScenarioError("min_range_m must be > 0")
        # the ratio max_subcarriers floors; inf also when B itself overflows
        bandwidth = bandwidth_for_target(self)
        if not math.isfinite(2.0 * bandwidth * self.min_range_m / SPEED_OF_LIGHT):
            raise InvalidScenarioError("2*B*R_min/c is not finite")


@dataclass(frozen=True)
class PulseDimensions:
    """Derived pulse dimensions: bandwidth, pulse-length bound, subcarrier cap."""

    bandwidth_hz: float
    max_pulse_len_s: float
    max_subcarriers: int


def bandwidth_for_target(scenario: ScenarioSpec) -> float:
    """Largest bandwidth keeping target-plus-margin inside one range cell.

    B = c / (2 (extent + margin)).
    """
    denom = scenario.target_extent_m + scenario.margin_m
    if denom <= 0:
        raise InvalidScenarioError("target extent plus margin must be positive")
    return SPEED_OF_LIGHT / (2.0 * denom)


def max_pulse_length(min_range_m: float) -> float:
    """Pulse-length upper bound from the eclipsed zone: t_p = 2 R_min / c."""
    if not (min_range_m > 0 and math.isfinite(min_range_m)):
        raise InvalidScenarioError("min_range_m must be positive and finite")
    return 2.0 * min_range_m / SPEED_OF_LIGHT


def max_subcarriers(bandwidth_hz: float, min_range_m: float) -> int:
    """Subcarrier cap for a single-symbol pulse: floor(2 B R_min / c).

    Floor keeps the implied pulse never longer than the eclipsed-zone bound.
    """
    if bandwidth_hz <= 0 or min_range_m <= 0:
        raise InvalidScenarioError("bandwidth and range must be positive")
    ratio = 2.0 * bandwidth_hz * min_range_m / SPEED_OF_LIGHT
    if not math.isfinite(ratio):
        raise InvalidScenarioError("2*B*R_min/c is not finite")
    n = math.floor(ratio)
    if n < 1:
        raise InvalidScenarioError(
            "scenario admits no subcarriers (2*B*R_min/c < 1)"
        )
    return n


def dimension_pulse(scenario: ScenarioSpec) -> PulseDimensions:
    """Full dimensioning chain for a scenario."""
    b = bandwidth_for_target(scenario)
    return PulseDimensions(
        bandwidth_hz=b,
        max_pulse_len_s=max_pulse_length(scenario.min_range_m),
        max_subcarriers=max_subcarriers(b, scenario.min_range_m),
    )

"""Battery discretization, per-leg consumption and recharge bookkeeping.

Battery charge is discretized into integer levels 0..C where C is 100%.
A full charge sustains d_max meters of multi-rotor flight; fixed-wing
flight consumes 1/fixed_wing_ratio as much energy per meter.  Recharging
takes recharge_rate seconds per level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .geometry import FlightMode

# Tolerates float noise in distance*C/d_max just above an integer.
_LEVEL_EPS = 1e-9


@dataclass(frozen=True)
class PlannerConfig:
    t_takeoff: float = 5.0
    t_land: float = 45.0
    recharge_rate: float = 2.0  # seconds per battery level
    d_max: float = 1800.0  # meters of multi-rotor flight on a full charge
    battery_levels: int = 20
    fixed_wing_ratio: float = 3.0  # >1 means fixed-wing is cheaper per meter
    turn_radius: float = 3.0
    ugv_speed_ratio: float = 0.2  # of the unit multi-rotor speed
    fixed_wing_speed: float = 1.0  # of the unit multi-rotor speed

    def __post_init__(self) -> None:
        numeric = {
            "t_takeoff": self.t_takeoff,
            "t_land": self.t_land,
            "recharge_rate": self.recharge_rate,
            "d_max": self.d_max,
            "fixed_wing_ratio": self.fixed_wing_ratio,
            "turn_radius": self.turn_radius,
            "ugv_speed_ratio": self.ugv_speed_ratio,
            "fixed_wing_speed": self.fixed_wing_speed,
        }
        # bool is a subclass of int, so a JSON true would pass as 1.
        for name, value in numeric.items():
            if isinstance(value, bool) or not (
                    isinstance(value, (int, float)) and value > 0 and math.isfinite(value)):
                raise ValueError(f"{name} must be a positive finite number, got {value!r}")
        if isinstance(self.battery_levels, bool) or not (
                isinstance(self.battery_levels, int) and self.battery_levels >= 1):
            raise ValueError(f"battery_levels must be a positive integer, got {self.battery_levels!r}")


@dataclass(frozen=True)
class RechargeSplit:
    """Recharge amounts along one edge, in battery levels."""

    at_exit: int = 0  # stationary recharge at the first cell's exit site
    at_entry: int = 0  # stationary recharge at the next cell's entry site
    in_transit: int = 0  # recharge while riding the UGV

    @property
    def total(self) -> int:
        return self.at_exit + self.at_entry + self.in_transit


def consumption_levels(distance: float, mode: FlightMode, cfg: PlannerConfig) -> int:
    """Battery levels consumed by flying the given distance, rounded up.

    A leg that needs more than a full battery returns battery_levels + 1,
    "more than a full battery", which every caller treats as unflyable;
    so an overflowing, infinite or NaN count never reaches int() or an
    int64 array.
    """
    if distance < 0:
        raise ValueError("distance must be non-negative")
    span = cfg.d_max
    if mode is FlightMode.FIXED_WING:
        span = cfg.d_max * cfg.fixed_wing_ratio
    x = distance * cfg.battery_levels / span - _LEVEL_EPS
    # Written so that NaN fails too: every comparison with it is False.
    if not x <= cfg.battery_levels:
        return cfg.battery_levels + 1
    return max(0, math.ceil(x))


def recharge_time(levels: int, cfg: PlannerConfig) -> float:
    if levels < 0:
        raise ValueError("levels must be non-negative")
    return cfg.recharge_rate * levels

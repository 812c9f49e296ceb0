"""Battery discretization, per-leg consumption and recharge bookkeeping.

Battery charge is discretized into integer levels 0..C where C is 100%.
A full charge sustains d_max meters of multi-rotor flight; fixed-wing
flight consumes 1/fixed_wing_ratio as much energy per meter.  Recharging
takes recharge_rate seconds per level.

PlannerConfig checks its own fields and stores each one but
battery_levels as a float, so a JSON 45 plans as 45.0 does; a bad value
raises a ValueError naming its field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

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
        for f in fields(self):
            value = getattr(self, f.name)
            # bool is a subclass of int, so a JSON true would pass as 1.
            number = isinstance(value, (int, float)) and not isinstance(value, bool)
            if f.name == "battery_levels":
                if not (number and isinstance(value, int) and value >= 1):
                    raise ValueError(f"battery_levels must be a positive integer, got {value!r}")
                continue
            try:
                stored = float(value) if number else math.nan
            except OverflowError:
                raise ValueError(f"{f.name} is an integer beyond float range") from None
            if not (stored > 0 and math.isfinite(stored)):
                raise ValueError(f"{f.name} must be a positive finite number, got {value!r}")
            object.__setattr__(self, f.name, stored)


@dataclass(frozen=True)
class RechargeSplit:
    """Recharge amounts along one edge, in battery levels."""

    at_exit: int = 0  # stationary recharge at the first cell's exit site
    at_entry: int = 0  # stationary recharge at the next cell's entry site
    in_transit: int = 0  # recharge while riding the UGV

    @property
    def total(self) -> int:
        return self.at_exit + self.at_entry + self.in_transit


def consumption_levels(distance: float | np.ndarray, mode: FlightMode,
                       cfg: PlannerConfig) -> int | np.ndarray:
    """Battery levels consumed by flying the given distance, rounded up:
    an int for one distance, an int64 array for an array of them.

    A leg that needs more than a full battery counts battery_levels + 1,
    "more than a full battery", which every caller treats as unflyable;
    so an overflowing, infinite or NaN count never reaches an int.
    """
    distance = np.asarray(distance, dtype=np.float64)
    if (distance < 0).any():
        raise ValueError("distance must be non-negative")
    span = cfg.d_max
    if mode is FlightMode.FIXED_WING:
        span = cfg.d_max * cfg.fixed_wing_ratio
    # Python floats overflow to inf, and inf / inf gives NaN, silently;
    # so do these arrays.
    with np.errstate(over="ignore", invalid="ignore"):
        x = distance * cfg.battery_levels / span - _LEVEL_EPS
    # Written so that NaN fails too: every comparison with it is False.
    levels = np.where(x <= cfg.battery_levels, np.maximum(0.0, np.ceil(x)),
                      cfg.battery_levels + 1).astype(np.int64)
    return levels if levels.ndim else int(levels)


def recharge_time(levels: int, cfg: PlannerConfig) -> float:
    if levels < 0:
        raise ValueError("levels must be non-negative")
    return cfg.recharge_rate * levels

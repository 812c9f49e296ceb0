"""Battery bookkeeping tests: level consumption and recharge splits."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from airmule.energy import (PlannerConfig, RechargeSplit, consumption_levels,
                            recharge_time)
from airmule.geometry import Cell, FlightMode, Site
from airmule.graph import EdgeType, build_instance
from airmule.instances import gen_random

MR = FlightMode.MULTI_ROTOR
FW = FlightMode.FIXED_WING


def test_config_defaults_valid():
    cfg = PlannerConfig()
    assert cfg.battery_levels == 20
    assert cfg.d_max == 1800.0


@pytest.mark.parametrize("field,value", [
    ("t_takeoff", -1.0),
    ("t_land", -1.0),
    ("recharge_rate", 0.0),
    ("d_max", 0.0),
    ("battery_levels", 0),
    ("fixed_wing_ratio", 0.0),
    ("turn_radius", 0.0),
    ("ugv_speed_ratio", 0.0),
    ("fixed_wing_speed", 0.0),
    # JSON true is a Python bool, which is an int.
    ("t_takeoff", True),
    ("t_land", True),
    ("recharge_rate", True),
    ("d_max", True),
    ("battery_levels", True),
    ("fixed_wing_ratio", True),
    ("turn_radius", True),
    ("ugv_speed_ratio", True),
    ("fixed_wing_speed", True),
])
def test_config_rejects_bad_values(field, value):
    with pytest.raises(ValueError):
        PlannerConfig(**{field: value})


def test_consumption_basic():
    cfg = PlannerConfig(d_max=100.0, battery_levels=20)
    assert consumption_levels(0.0, MR, cfg) == 0
    assert consumption_levels(10.0, MR, cfg) == 2
    assert consumption_levels(100.0, MR, cfg) == 20
    # one level covers exactly d_max / C of distance
    assert consumption_levels(5.0, MR, cfg) == 1
    assert consumption_levels(5.0001, MR, cfg) == 2


def test_consumption_fixed_wing_span():
    cfg = PlannerConfig(d_max=100.0, battery_levels=20, fixed_wing_ratio=3.0)
    assert consumption_levels(10.0, FW, cfg) == 1
    assert consumption_levels(15.0, FW, cfg) == 1
    assert consumption_levels(15.001, FW, cfg) == 2


def test_consumption_rejects_negative():
    cfg = PlannerConfig()
    with pytest.raises(ValueError):
        consumption_levels(-1.0, MR, cfg)


def test_consumption_monotone_seeded():
    rng = random.Random(3)
    cfg = PlannerConfig(d_max=77.0, battery_levels=13)
    prev_d, prev = 0.0, 0
    for _ in range(200):
        d = rng.uniform(0.0, 200.0)
        levels = consumption_levels(d, MR, cfg)
        assert levels >= 0
        # never cheaper than the exact ratio rounded down, up to the
        # saturated count of a leg beyond a full battery
        assert levels >= min(math.floor(d * 13 / 77.0) - 1, 14)
        if d >= prev_d:
            assert levels >= prev
        prev_d, prev = d, levels


@settings(max_examples=200, deadline=None)
@given(distance=st.floats(0.0, 1e308), d_max=st.floats(1e-300, 1e6),
       levels=st.integers(1, 40), mode=st.sampled_from([MR, FW]))
def test_consumption_saturates_above_full_battery(distance, d_max, levels,
                                                  mode):
    # The unsaturated count, in Python ints where it is finite: equal up
    # to C levels, C + 1 ("more than a full battery") beyond.
    cfg = PlannerConfig(d_max=d_max, battery_levels=levels)
    span = d_max * (cfg.fixed_wing_ratio if mode is FW else 1.0)
    x = distance * levels / span - 1e-9
    got = consumption_levels(distance, mode, cfg)
    if math.isfinite(x) and max(0, math.ceil(x)) <= levels:
        assert got == max(0, math.ceil(x))
    else:
        assert got == levels + 1


@pytest.mark.parametrize("distance", [1e200, 1e308, math.inf, math.nan])
def test_consumption_of_unflyable_distances(distance):
    for cfg in (PlannerConfig(), PlannerConfig(d_max=1e-300)):
        for mode in (MR, FW):
            assert consumption_levels(distance, mode, cfg) == 21
    assert consumption_levels(1.0, MR, PlannerConfig(d_max=1e-300)) == 21


def test_recharge_time():
    cfg = PlannerConfig(recharge_rate=2.0)
    assert recharge_time(0, cfg) == 0.0
    assert recharge_time(5, cfg) == 10.0


def split_of(t, k_i, k_j, gap):
    """Recharge split of one typed edge between two 10 m cells on a line.

    At d_max=100 and C=20 a level buys 5 m of multi-rotor flight, so the
    coverage pass consumes 2 levels and a multi-rotor transit gap/5.
    """
    cells = [Cell(0, Site(0, 0.0, 0.0), Site(1, 10.0, 0.0)),
             Cell(1, Site(2, 10.0 + gap, 0.0), Site(3, 20.0 + gap, 0.0))]
    g = build_instance(cells, PlannerConfig(d_max=100.0, battery_levels=20))
    bd = g.typed(g.vertex_id(0, "A", k_i), g.vertex_id(1, "A", k_j), t)
    return None if bd is None else bd.split


def test_split_pure_flight():
    assert split_of(EdgeType.M_M, 20, 16, gap=10.0) == RechargeSplit()
    # wrong arrival level
    assert split_of(EdgeType.M_M, 20, 15, gap=10.0) is None
    # battery dies during coverage
    assert split_of(EdgeType.M_M, 1, 1, gap=0.0) is None


def test_split_ride():
    split = split_of(EdgeType.M_DTU, 20, 20, gap=10.0)
    assert split == RechargeSplit(in_transit=2)
    # riding never loses charge
    assert split_of(EdgeType.M_DTU, 20, 17, gap=10.0) is None


def test_split_entry_stop():
    split = split_of(EdgeType.M_MDU, 20, 20, gap=10.0)
    assert split == RechargeSplit(at_entry=4)
    # arriving below empty is not allowed even with a recharge waiting
    assert split_of(EdgeType.M_MDU, 3, 20, gap=10.0) is None


def test_split_exit_stop():
    split = split_of(EdgeType.M_DUM, 20, 16, gap=10.0)
    assert split == RechargeSplit(at_exit=0)
    split = split_of(EdgeType.M_DUM, 20, 18, gap=10.0)
    assert split == RechargeSplit(at_exit=2)
    # departure level would exceed capacity
    assert split_of(EdgeType.M_DUM, 20, 19, gap=10.0) is None


def test_split_both_stops():
    # fill to capacity at the exit, top up the rest at the entry
    split = split_of(EdgeType.M_DUMDU, 10, 20, gap=20.0)
    assert split is not None
    assert split.at_exit == 12 and split.at_entry == 4
    assert split.total == 16


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), levels=st.integers(1, 4),
       d_max=st.sampled_from([15.0, 30.0, 60.0]),
       fixed_wing_ratio=st.sampled_from([1.0, 3.0]),
       road_fraction=st.sampled_from([0.5, 1.0]))
def test_split_conservation_seeded(seed, levels, d_max, fixed_wing_ratio,
                                   road_fraction):
    """Whatever the template, levels in must balance levels out, and the
    battery stays inside [0, C] at every event along the edge."""
    cfg = PlannerConfig(d_max=d_max, battery_levels=levels,
                        fixed_wing_ratio=fixed_wing_ratio)
    g = build_instance(gen_random(2, 25.0, 8.0, seed=seed,
                                  road_fraction=road_fraction), cfg)
    for x, y, k_i, k_j in itertools.product("AB", "AB", range(1, levels + 1),
                                            range(1, levels + 1)):
        for t in EdgeType:
            bd = g.typed(g.vertex_id(0, x, k_i), g.vertex_id(1, y, k_j), t)
            if bd is None:
                continue
            split = bd.split
            transit = bd.transit_cons or 0
            assert k_i - bd.cover_cons - transit + split.total == k_j
            trace = [k_i - bd.cover_cons]
            trace.append(trace[-1] + split.at_exit)
            trace.append(trace[-1] - transit + split.in_transit)
            trace.append(trace[-1] + split.at_entry)
            assert all(0 <= level <= levels for level in trace)

"""Serialization round-trips and the random instance generator."""

import json
import math
import re

import pytest

from airmule.energy import PlannerConfig
from airmule.errors import SamplingExhausted
from airmule.geometry import Cell, Site, segments_intersect
from airmule.graph import build_instance
from airmule.instances import (gen_random, load_instance, load_plan,
                               parse_instance, parse_plan, save_instance,
                               save_plan, serialize_instance, serialize_plan)
from airmule.plan import baseline_plan, decode
from airmule.solver import solve_exact


def sample():
    cfg = PlannerConfig(d_max=90.0, battery_levels=6, ugv_speed_ratio=0.4)
    cells = gen_random(3, 30.0, 8.0, seed=5, road_fraction=0.7)
    return cells, cfg


def test_instance_round_trip():
    cells, cfg = sample()
    text = serialize_instance(cells, cfg)
    cells2, cfg2 = parse_instance(text)
    assert cfg2 == cfg
    assert cells2 == cells
    assert serialize_instance(cells2, cfg2) == text


def test_instance_text_shape():
    cells, cfg = sample()
    text = serialize_instance(cells, cfg)
    assert text.endswith("\n")
    data = json.loads(text)
    assert data["version"] == 1
    assert [c["index"] for c in data["cells"]] == [0, 1, 2]
    # compact separators, sorted keys
    assert ": " not in text
    keys = list(data["config"])
    assert keys == sorted(keys)


def test_instance_rejects_bad_version():
    cells, cfg = sample()
    text = serialize_instance(cells, cfg).replace('"version":1', '"version":9')
    with pytest.raises(ValueError):
        parse_instance(text)


def test_instance_rejects_unknown_config_key():
    cells, cfg = sample()
    data = json.loads(serialize_instance(cells, cfg))
    data["config"]["warp_speed"] = 9.0
    with pytest.raises(ValueError):
        parse_instance(json.dumps(data))


def test_instance_parse_propagates_json_errors():
    with pytest.raises(json.JSONDecodeError):
        parse_instance("{not json")


def test_instance_file_round_trip(tmp_path):
    cells, cfg = sample()
    path = tmp_path / "inst.json"
    save_instance(str(path), cells, cfg)
    cells2, cfg2 = load_instance(str(path))
    assert cells2 == cells and cfg2 == cfg


def test_plan_round_trip():
    cells, cfg = sample()
    g = build_instance(cells, cfg)
    plan = decode(g, solve_exact(g), cfg)
    text = serialize_plan(plan)
    plan2 = parse_plan(text)
    assert plan2 == plan
    assert serialize_plan(plan2) == text


def test_plan_round_trip_with_stops(tmp_path):
    cells = [
        Cell(0, Site(0, 0.0, 0.0), Site(1, 10.0, 0.0)),
        Cell(1, Site(2, 20.0, 0.0), Site(3, 30.0, 0.0)),
    ]
    cfg = PlannerConfig(d_max=30.0, battery_levels=4)
    plan = baseline_plan(cells, cfg)
    assert plan.ugv_waypoints  # the myopic route must stop to recharge
    path = tmp_path / "plan.json"
    save_plan(str(path), plan)
    assert load_plan(str(path)) == plan


def test_plan_rejects_bad_version():
    cells, cfg = sample()
    g = build_instance(cells, cfg)
    plan = decode(g, solve_exact(g), cfg)
    text = serialize_plan(plan).replace('"version":1', '"version":2')
    with pytest.raises(ValueError):
        parse_plan(text)


def test_gen_random_basic_properties():
    cells = gen_random(12, 50.0, 9.0, seed=7)
    assert len(cells) == 12
    seen_sites = set()
    for cell in cells:
        assert cell.length <= 9.0 + 1e-12
        for site in (cell.end_a, cell.end_b):
            assert 0.0 <= site.x <= 50.0
            assert 0.0 <= site.y <= 50.0
            assert site.id not in seen_sites
            seen_sites.add(site.id)
    for i, a in enumerate(cells):
        for b in cells[i + 1:]:
            assert not segments_intersect(
                (a.end_a.x, a.end_a.y), (a.end_b.x, a.end_b.y),
                (b.end_a.x, b.end_a.y), (b.end_b.x, b.end_b.y))


def test_gen_random_deterministic():
    a = gen_random(8, 40.0, 8.0, seed=123, road_fraction=0.5)
    b = gen_random(8, 40.0, 8.0, seed=123, road_fraction=0.5)
    assert a == b
    c = gen_random(8, 40.0, 8.0, seed=124, road_fraction=0.5)
    assert a != c


def test_gen_random_road_fraction_extremes():
    all_road = gen_random(6, 40.0, 8.0, seed=9, road_fraction=1.0)
    assert all(s.on_road for c in all_road for s in (c.end_a, c.end_b))
    no_road = gen_random(6, 40.0, 8.0, seed=9, road_fraction=0.0)
    assert not any(s.on_road for c in no_road for s in (c.end_a, c.end_b))
    # geometry is independent of the road flags
    assert [(c.end_a.x, c.end_a.y) for c in all_road] == \
        [(c.end_a.x, c.end_a.y) for c in no_road]


def test_gen_random_exhaustion(monkeypatch):
    monkeypatch.setattr("airmule.instances._SAMPLE_CAP", 25)
    # almost every draw leaves the box, so 25 attempts cannot place 3 cells
    with pytest.raises(SamplingExhausted):
        gen_random(3, 1.0, 1000.0, seed=0)


def test_gen_random_validates_arguments():
    with pytest.raises(ValueError):
        gen_random(0, 10.0, 1.0, seed=0)
    with pytest.raises(ValueError):
        gen_random(3, -1.0, 1.0, seed=0)
    with pytest.raises(ValueError):
        gen_random(3, 10.0, 1.0, seed=0, road_fraction=1.5)


@pytest.mark.parametrize("extent, max_len", [
    (math.nan, 1.0), (math.inf, 1.0), (10.0, math.nan), (10.0, math.inf)])
def test_gen_random_rejects_non_finite_sizes(extent, max_len):
    # Both pass a plain "<= 0" check and would spin to the sampling cap.
    with pytest.raises(ValueError, match="finite"):
        gen_random(3, extent, max_len, seed=0)


@pytest.mark.parametrize("field, value, message", [
    ("on_road", "false", "cells[2].end_a.on_road must be a JSON boolean"),
    ("on_road", 1, "cells[2].end_a.on_road must be a JSON boolean"),
    ("id", True, "cells[2].end_a.id must be a JSON integer"),
    ("id", 4.0, "cells[2].end_a.id must be a JSON integer"),
    ("x", "3.5", "cells[2].end_a.x must be a JSON number"),
])
def test_instance_rejects_mistyped_site_field(field, value, message):
    cells, cfg = sample()
    data = json.loads(serialize_instance(cells, cfg))
    data["cells"][2]["end_a"][field] = value
    with pytest.raises(ValueError, match=re.escape(message)):
        parse_instance(json.dumps(data))


def test_instance_rejects_missing_cell_field():
    cells, cfg = sample()
    data = json.loads(serialize_instance(cells, cfg))
    del data["cells"][1]["index"]
    with pytest.raises(ValueError, match=r"cells\[1\]\.index is missing"):
        parse_instance(json.dumps(data))


@pytest.mark.parametrize("path,value,message", [
    (("uav_legs", 0, "battery_after"), "3",
     "plan.uav_legs[0].battery_after must be a JSON integer"),
    (("uav_legs", 0, "start_site"), None,
     "plan.uav_legs[0].start_site must be a JSON object"),
    (("uav_legs", 0, "end_heading"), "0.5",
     "plan.uav_legs[0].end_heading must be a JSON number or null"),
    (("cell_order", 0), [0],
     "plan.cell_order[0] must hold two items"),
    (("battery_trace", 0, 1), 2.5,
     "plan.battery_trace[0][1] must be a JSON integer"),
    (("total_time",), True, "plan.total_time must be a JSON number"),
    (("uav_legs", 0, "kind"), "hover",
     "plan.uav_legs[0].kind must be one of 'fly', 'land', 'take_off', "
     "'recharge_in_place', 'ride_and_recharge', got 'hover'"),
    (("uav_legs", 0, "mode"), "glide",
     "plan.uav_legs[0].mode must be one of 'multi_rotor', 'fixed_wing', "
     "got 'glide'"),
])
def test_plan_rejects_mistyped_field(path, value, message):
    cells, cfg = sample()
    g = build_instance(cells, cfg)
    data = json.loads(serialize_plan(decode(g, solve_exact(g), cfg)))
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    with pytest.raises(ValueError, match=re.escape(message)):
        parse_plan(json.dumps(data))

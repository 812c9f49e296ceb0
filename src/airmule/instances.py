"""Versioned JSON serialization for instances and plans, plus a random
instance generator.

All writers use sorted keys and compact separators so identical inputs
produce byte-identical files.

The readers check each value's JSON type and turn every number into a
float in _check; a number beyond float range raises a ValueError naming
its location.  PlannerConfig checks its own fields.
"""

from __future__ import annotations

import dataclasses
import json
import math
import random
from enum import Enum

from .energy import PlannerConfig
from .errors import SamplingExhausted
from .geometry import Cell, FlightMode, Site, segments_intersect
from .plan import Leg, LegKind, Plan, UgvWaypoint

FORMAT_VERSION = 1
_SAMPLE_CAP = 100_000


def _dumps(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _config_from_dict(data: dict) -> PlannerConfig:
    if not isinstance(data, dict):
        raise ValueError("config must be an object")
    unknown = set(data) - {f.name for f in dataclasses.fields(PlannerConfig)}
    if unknown:
        raise ValueError(f"unknown config fields: {sorted(unknown)}")
    return PlannerConfig(**data)


def _site_to_dict(site: Site) -> dict:
    return {"id": site.id, "x": site.x, "y": site.y, "on_road": site.on_road}


_INTEGER = ((int,), "integer")
_NUMBER = ((int, float), "number")
_BOOLEAN = ((bool,), "boolean")
_STRING = ((str,), "string")
_OBJECT = ((dict,), "object")
_ARRAY = ((list,), "array")
_INTEGER_OR_NULL = ((int, type(None)), "integer or null")
_NUMBER_OR_NULL = ((int, float, type(None)), "number or null")
_STRING_OR_NULL = ((str, type(None)), "string or null")


def _check(value: object, kind: tuple[tuple[type, ...], str], where: str):
    """value if it has the JSON type kind, as a float under a number kind;
    else a ValueError naming where."""
    types, label = kind
    # JSON true/false load as bool, which Python counts as an int.
    if not isinstance(value, types) or (isinstance(value, bool)
                                        and bool not in types):
        raise ValueError(f"{where} must be a JSON {label}, got {value!r}")
    if float in types and value is not None:
        try:
            return float(value)
        except OverflowError:
            raise ValueError(f"{where} is an integer beyond float range") \
                from None
    return value


def _member(value: str, enum_type: type[Enum], where: str):
    """The member of enum_type with this value; else a ValueError naming where."""
    members = {m.value: m for m in enum_type}
    if value not in members:
        allowed = ", ".join(repr(v) for v in members)
        raise ValueError(f"{where} must be one of {allowed}, got {value!r}")
    return members[value]


def _field(data: object, name: str, kind: tuple[tuple[type, ...], str],
           where: str):
    """data[name] if it has the JSON type kind; else a ValueError naming it."""
    if not isinstance(data, dict):
        raise ValueError(f"{where} must be an object")
    if name not in data:
        raise ValueError(f"{where}.{name} is missing")
    return _check(data[name], kind, f"{where}.{name}")


def _items(data: dict, name: str, where: str) -> list[tuple[str, object]]:
    """(location, item) for each item of the JSON array data[name]."""
    return [(f"{where}.{name}[{k}]", item)
            for k, item in enumerate(_field(data, name, _ARRAY, where))]


def _pair(item: object, kinds: tuple, where: str) -> tuple:
    """The two values of a two-item JSON array, checked against kinds."""
    if len(_check(item, _ARRAY, where)) != 2:
        raise ValueError(f"{where} must hold two items, got {item!r}")
    return tuple(_check(value, kind, f"{where}[{k}]")
                 for k, (value, kind) in enumerate(zip(item, kinds)))


def _site_field(parent: object, name: str, where: str) -> Site:
    """The site stored as the JSON object parent[name]."""
    data = _field(parent, name, _OBJECT, where)
    where = f"{where}.{name}"
    return Site(_field(data, "id", _INTEGER, where),
                _field(data, "x", _NUMBER, where),
                _field(data, "y", _NUMBER, where),
                _field(data, "on_road", _BOOLEAN, where))


def serialize_instance(cells: list[Cell], cfg: PlannerConfig) -> str:
    body = {
        "version": FORMAT_VERSION,
        "config": dataclasses.asdict(cfg),
        "cells": [
            {"index": c.index,
             "end_a": _site_to_dict(c.end_a),
             "end_b": _site_to_dict(c.end_b)}
            for c in sorted(cells, key=lambda c: c.index)
        ],
    }
    return _dumps(body)


def parse_instance(text: str) -> tuple[list[Cell], PlannerConfig]:
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError("instance document must be an object")
    version = _field(data, "version", _INTEGER, "instance")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported instance version {version!r}")
    cfg = _config_from_dict(data.get("config", {}))
    entries = data.get("cells", [])
    if not isinstance(entries, list):
        raise ValueError("cells must be a list")
    cells = []
    for k, entry in enumerate(entries):
        where = f"cells[{k}]"
        cells.append(Cell(
            _field(entry, "index", _INTEGER, where),
            _site_field(entry, "end_a", where),
            _site_field(entry, "end_b", where)))
    return cells, cfg


def save_instance(path: str, cells: list[Cell], cfg: PlannerConfig) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(serialize_instance(cells, cfg))


def load_instance(path: str) -> tuple[list[Cell], PlannerConfig]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_instance(fh.read())


def _leg_to_dict(leg: Leg) -> dict:
    return {
        "kind": leg.kind.value,
        "start_site": _site_to_dict(leg.start_site),
        "end_site": _site_to_dict(leg.end_site),
        "duration": leg.duration,
        "battery_before": leg.battery_before,
        "battery_after": leg.battery_after,
        "mode": leg.mode.value if leg.mode is not None else None,
        "levels": leg.levels,
        "covers_cell": leg.covers_cell,
        "start_heading": leg.start_heading,
        "end_heading": leg.end_heading,
    }


def _leg_from_dict(data: object, where: str) -> Leg:
    def get(name, kind):
        return _field(data, name, kind, where)

    mode = get("mode", _STRING_OR_NULL)
    return Leg(
        kind=_member(get("kind", _STRING), LegKind, f"{where}.kind"),
        start_site=_site_field(data, "start_site", where),
        end_site=_site_field(data, "end_site", where),
        duration=get("duration", _NUMBER),
        battery_before=get("battery_before", _INTEGER),
        battery_after=get("battery_after", _INTEGER),
        mode=(_member(mode, FlightMode, f"{where}.mode")
              if mode is not None else None),
        levels=get("levels", _INTEGER),
        covers_cell=get("covers_cell", _INTEGER_OR_NULL),
        start_heading=get("start_heading", _NUMBER_OR_NULL),
        end_heading=get("end_heading", _NUMBER_OR_NULL),
    )


def _waypoint_from_dict(data: object, where: str) -> UgvWaypoint:
    return UgvWaypoint(
        _site_field(data, "site", where),
        _field(data, "arrive_by", _NUMBER, where),
        _field(data, "depart_at", _NUMBER, where),
        _field(data, "via_ride", _BOOLEAN, where))


def serialize_plan(plan: Plan) -> str:
    body = {
        "version": FORMAT_VERSION,
        "total_time": plan.total_time,
        "cell_order": [[index, end] for index, end in plan.cell_order],
        "uav_legs": [_leg_to_dict(leg) for leg in plan.uav_legs],
        "ugv_waypoints": [
            {"site": _site_to_dict(wp.site),
             "arrive_by": wp.arrive_by,
             "depart_at": wp.depart_at,
             "via_ride": wp.via_ride}
            for wp in plan.ugv_waypoints
        ],
        "battery_trace": [[event, level] for event, level in plan.battery_trace],
    }
    return _dumps(body)


def parse_plan(text: str) -> Plan:
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError("plan document must be an object")
    version = _field(data, "version", _INTEGER, "plan")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported plan version {version!r}")
    return Plan(
        cell_order=tuple(_pair(item, (_INTEGER, _STRING), where)
                         for where, item in _items(data, "cell_order", "plan")),
        uav_legs=tuple(_leg_from_dict(item, where)
                       for where, item in _items(data, "uav_legs", "plan")),
        ugv_waypoints=tuple(
            _waypoint_from_dict(item, where)
            for where, item in _items(data, "ugv_waypoints", "plan")),
        total_time=_field(data, "total_time", _NUMBER, "plan"),
        battery_trace=tuple(
            _pair(item, (_STRING, _INTEGER), where)
            for where, item in _items(data, "battery_trace", "plan")),
    )


def save_plan(path: str, plan: Plan) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(serialize_plan(plan))


def load_plan(path: str) -> Plan:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_plan(fh.read())


def gen_random(n: int, extent: float, max_len: float, seed: int,
               road_fraction: float = 1.0) -> list[Cell]:
    """Sample n pairwise non-intersecting cells inside an extent x extent box.

    Rejection sampling; raises SamplingExhausted when the attempt cap is
    hit before n cells are placed.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    # Written so that NaN fails too: every comparison with it is False.
    if not (0 < extent < math.inf and 0 < max_len < math.inf):
        raise ValueError("extent and max_len must be positive and finite")
    if not 0.0 <= road_fraction <= 1.0:
        raise ValueError("road_fraction must be in [0, 1]")
    rng = random.Random(seed)
    cells: list[Cell] = []
    placed: list[tuple[tuple[float, float], tuple[float, float]]] = []
    attempts = 0
    while len(cells) < n:
        if attempts >= _SAMPLE_CAP:
            raise SamplingExhausted(
                f"placed {len(cells)} of {n} cells in {_SAMPLE_CAP} attempts")
        attempts += 1
        ax = rng.uniform(0.0, extent)
        ay = rng.uniform(0.0, extent)
        angle = rng.uniform(0.0, 2.0 * math.pi)
        length = max_len * (1.0 - rng.random())  # length in (0, max_len]
        bx = ax + length * math.cos(angle)
        by = ay + length * math.sin(angle)
        if not (0.0 <= bx <= extent and 0.0 <= by <= extent):
            continue
        if any(segments_intersect((ax, ay), (bx, by), p, q)
               for p, q in placed):
            continue
        index = len(cells)
        a_road = rng.random() < road_fraction
        b_road = rng.random() < road_fraction
        cells.append(Cell(index,
                          Site(2 * index, ax, ay, a_road),
                          Site(2 * index + 1, bx, by, b_road)))
        placed.append(((ax, ay), (bx, by)))
    return cells

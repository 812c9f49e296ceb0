"""Versioned JSON serialization for instances and plans, plus a random
instance generator.

The record dataclasses are the schema.  One writer (_dumps) stores each
record as a JSON object of its fields and each enum member as its value;
one reader (_read) builds the records back by walking their fields'
resolved type hints.  Every field of a cell, a site and a plan's records
is required; config fields are optional, and PlannerConfig checks its
own values.

Documents use sorted keys and compact separators, so identical inputs
produce byte-identical files.

The reader checks each value's JSON type and turns every number into a
float in _check; a number beyond float range, NaN or an infinity raises
a ValueError naming its location.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import random
import typing
from enum import Enum

from .energy import PlannerConfig
from .errors import SamplingExhausted
from .geometry import Cell, Site, segments_intersect
from .plan import Plan

FORMAT_VERSION = 1
_SAMPLE_CAP = 100_000


@functools.cache
def _fields(cls: type) -> tuple[tuple[str, object], ...]:
    """(name, resolved type hint) of each field of the record class cls."""
    hints = typing.get_type_hints(cls)
    return tuple((f.name, hints[f.name]) for f in dataclasses.fields(cls))


def _plain(obj: object) -> object:
    """The JSON form of a record (its fields) or an enum member (its value)."""
    if isinstance(obj, Enum):
        return obj.value
    return {name: getattr(obj, name) for name, _ in _fields(type(obj))}


def _dumps(body: dict) -> str:
    """The versioned document holding body's entries."""
    return json.dumps({"version": FORMAT_VERSION, **body}, sort_keys=True,
                      separators=(",", ":"), default=_plain) + "\n"


def _config_from_dict(data: dict) -> PlannerConfig:
    if not isinstance(data, dict):
        raise ValueError("config must be an object")
    unknown = set(data) - {f.name for f in dataclasses.fields(PlannerConfig)}
    if unknown:
        raise ValueError(f"unknown config fields: {sorted(unknown)}")
    return PlannerConfig(**data)


# The JSON types of the hints the reader checks directly, with their names.
_KINDS = {int: ((int,), "integer"), float: ((int, float), "number"),
          bool: ((bool,), "boolean"), str: ((str,), "string"),
          dict: ((dict,), "object"), list: ((list,), "array")}


def _check(value: object, hint: type, where: str, null: str = ""):
    """value if it has the JSON type of hint, as a finite float under
    float; else a ValueError naming where.  null extends the type's name
    in the message (" or null" for an optional field)."""
    types, label = _KINDS[hint]
    # JSON true/false load as bool, which Python counts as an int.
    if not isinstance(value, types) or (isinstance(value, bool)
                                        and hint is not bool):
        raise ValueError(f"{where} must be a JSON {label}{null}, got {value!r}")
    if hint is not float:
        return value
    try:
        number = float(value)
    except OverflowError:
        raise ValueError(f"{where} is an integer beyond float range") from None
    if not math.isfinite(number):
        raise ValueError(f"{where} must be a finite number, got {value!r}")
    return number


def _read(hint: object, value: object, where: str, null: str = ""):
    """The value of type hint that value is the JSON form of; else a
    ValueError naming where.

    A record reads from an object holding every field, an enum member
    from its value, tuple[T, ...] from an array and tuple[A, B] from a
    two-item array; X | None also reads null.
    """
    args = typing.get_args(hint)
    if type(None) in args:
        if value is None:
            return None
        (hint,) = [a for a in args if a is not type(None)]
        return _read(hint, value, where, " or null")
    if typing.get_origin(hint) is tuple:
        items = _check(value, list, where, null)
        if args[-1] is Ellipsis:
            args = args[:1] * len(items)
        elif len(items) != len(args):
            raise ValueError(f"{where} must hold two items, got {value!r}")
        return tuple(_read(a, item, f"{where}[{k}]")
                     for k, (a, item) in enumerate(zip(args, items)))
    if dataclasses.is_dataclass(hint):
        data = _check(value, dict, where, null)
        kwargs = {}
        for name, field_hint in _fields(hint):
            if name not in data:
                raise ValueError(f"{where}.{name} is missing")
            kwargs[name] = _read(field_hint, data[name], f"{where}.{name}")
        return hint(**kwargs)
    if issubclass(hint, Enum):
        members = {m.value: m for m in hint}
        # A string first: a JSON list or object is not hashable.
        if _check(value, str, where, null) not in members:
            allowed = ", ".join(repr(v) for v in members)
            raise ValueError(f"{where} must be one of {allowed}, got {value!r}")
        return members[value]
    return _check(value, hint, where, null)


def _document(text: str, name: str) -> dict:
    """The JSON object of a name document in this format version."""
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError(f"{name} document must be an object")
    if "version" not in data:
        raise ValueError(f"{name}.version is missing")
    version = _check(data["version"], int, f"{name}.version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported {name} version {version!r}")
    return data


def serialize_instance(cells: list[Cell], cfg: PlannerConfig) -> str:
    return _dumps({"config": cfg,
                   "cells": sorted(cells, key=lambda c: c.index)})


def parse_instance(text: str) -> tuple[list[Cell], PlannerConfig]:
    data = _document(text, "instance")
    cfg = _config_from_dict(data.get("config", {}))
    entries = data.get("cells", [])
    if not isinstance(entries, list):
        raise ValueError("cells must be a list")
    cells = [_read(Cell, entry, f"cells[{k}]")
             for k, entry in enumerate(entries)]
    return cells, cfg


def save_instance(path: str, cells: list[Cell], cfg: PlannerConfig) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(serialize_instance(cells, cfg))


def load_instance(path: str) -> tuple[list[Cell], PlannerConfig]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_instance(fh.read())


def serialize_plan(plan: Plan) -> str:
    return _dumps(_plain(plan))


def parse_plan(text: str) -> Plan:
    return _read(Plan, _document(text, "plan"), "plan")


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
    hit before n cells are placed, at once when n is over the cap.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    # Written so that NaN fails too: every comparison with it is False.
    if not (0 < extent < math.inf and 0 < max_len < math.inf):
        raise ValueError("extent and max_len must be positive and finite")
    if not 0.0 <= road_fraction <= 1.0:
        raise ValueError("road_fraction must be in [0, 1]")
    if n > _SAMPLE_CAP:  # an attempt places at most one cell
        raise SamplingExhausted(
            f"{n} cells need more than {_SAMPLE_CAP} attempts")
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

"""Contract tests for input documents: every number, and every node at
any depth, of an instance or a plan document, replaced by any JSON value,
ends in exit code 0, 1 or 2 from the command line and never in an
exception out of cli.main; a plan that `airmule plan` writes passes
validate and renders, and a rendered plan holds no non-finite number.
The GLNS flags of `airmule plan` at their edge values end the same way."""

import contextlib
import functools
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from airmule.cli import main
from airmule.energy import PlannerConfig
from airmule.graph import build_instance
from airmule.instances import (gen_random, load_instance, load_plan,
                               parse_plan, serialize_instance, serialize_plan)
from airmule.plan import decode, validate
from airmule.solver import solve_exact

HUGE = 10 ** 400  # a 401-digit JSON integer, beyond float range

# json.dumps writes the non-finite floats as Infinity, -Infinity and NaN,
# which json.loads reads back.
VALUES = [0, -1, 1e-300, 1e300, math.inf, -math.inf, math.nan, 10 ** 30,
          HUGE, True, "1", None, [], {}]
# Values that fit the string and pair fields: a cell end, a leg kind that
# is no member, and a cell_order item.
NODE_VALUES = VALUES + ["A", "hover", [0, "A"]]


def run(*argv):
    """(exit code, stderr) of cli.main; an exception propagates."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, err.getvalue()


@functools.cache
def documents():
    """(instance, plan) JSON text of a 3-cell farm, planned exactly."""
    cells = gen_random(3, 30.0, 8.0, seed=5, road_fraction=0.7)
    cfg = PlannerConfig(d_max=90.0, battery_levels=4, ugv_speed_ratio=0.4)
    g = build_instance(cells, cfg)
    return (serialize_instance(cells, cfg),
            serialize_plan(decode(g, solve_exact(g), cfg)))


def number_paths(data, path=()):
    """The key path of every number (not bool) in a JSON document."""
    if isinstance(data, dict):
        items = data.items()
    elif isinstance(data, list):
        items = enumerate(data)
    else:
        return [path] if isinstance(data, (int, float)) \
            and not isinstance(data, bool) else []
    return [p for key, value in items
            for p in number_paths(value, path + (key,))]


def node_paths(data, path=()):
    """The key path of every node below the root of a JSON document."""
    if isinstance(data, dict):
        items = data.items()
    elif isinstance(data, list):
        items = enumerate(data)
    else:
        return []
    return [p for key, value in items
            for p in [path + (key,)] + node_paths(value, path + (key,))]


def replaced(text, path, value):
    """The JSON document text with the item at path set to value."""
    data = json.loads(text)
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return json.dumps(data)


def check_plan_run(tmp, instance_text, solver_args=("--solver", "exact")):
    """Plan instance_text, exactly by default; on exit 0 the plan must
    validate and render."""
    inst, out, svg = tmp / "inst.json", tmp / "plan.json", tmp / "plan.svg"
    inst.write_text(instance_text, encoding="utf-8")
    code, err = run("plan", str(inst), *solver_args, "-o", str(out))
    assert code in (0, 1, 2) and "Traceback" not in err
    if code == 0:
        cells, cfg = load_instance(str(inst))
        assert not [i for i in validate(load_plan(str(out)), cells, cfg)
                    if i.severity == "violation"]
        assert run("render", str(inst), "--plan", str(out),
                   "-o", str(svg))[0] == 0
        assert svg.read_text(encoding="utf-8").startswith("<svg")
    return code, err


def render_run(tmp, plan_text):
    inst, plan = tmp / "inst.json", tmp / "plan.json"
    inst.write_text(documents()[0], encoding="utf-8")
    plan.write_text(plan_text, encoding="utf-8")
    code, err = run("render", str(inst), "--plan", str(plan),
                    "-o", str(tmp / "plan.svg"))
    assert code in (0, 1, 2) and "Traceback" not in err
    return code, err


@settings(max_examples=150, deadline=None)
@given(data=st.data(), value=st.sampled_from(VALUES))
def test_instance_numbers_plan_or_exit(data, value):
    text = documents()[0]
    path = data.draw(st.sampled_from(number_paths(json.loads(text))))
    with tempfile.TemporaryDirectory() as tmp:
        check_plan_run(Path(tmp), replaced(text, path, value))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), value=st.sampled_from(VALUES))
def test_plan_numbers_render_or_exit(data, value):
    text = documents()[1]
    path = data.draw(st.sampled_from(number_paths(json.loads(text))))
    with tempfile.TemporaryDirectory() as tmp:
        code, _ = render_run(Path(tmp), replaced(text, path, value))
        if code == 0:
            svg = (Path(tmp) / "plan.svg").read_text(encoding="utf-8")
            assert "nan" not in svg and "inf" not in svg


@settings(max_examples=150, deadline=None)
@given(data=st.data(), value=st.sampled_from(NODE_VALUES))
def test_instance_nodes_plan_or_exit(data, value):
    text = documents()[0]
    path = data.draw(st.sampled_from(node_paths(json.loads(text))))
    with tempfile.TemporaryDirectory() as tmp:
        check_plan_run(Path(tmp), replaced(text, path, value))


# About one example in 75 puts a list or an object into a kind or a mode,
# so 400 examples reach one with a 99% chance.
@settings(max_examples=400, deadline=None)
@given(data=st.data(), value=st.sampled_from(NODE_VALUES))
def test_plan_nodes_render_or_exit(data, value):
    text = documents()[1]
    path = data.draw(st.sampled_from(node_paths(json.loads(text))))
    with tempfile.TemporaryDirectory() as tmp:
        render_run(Path(tmp), replaced(text, path, value))


@pytest.mark.parametrize("path, value, code, message", [
    # A float field given as an integer beyond float range.
    (("config", "d_max"), HUGE, 2, "d_max is an integer beyond float range"),
    # Converted to 1e30 when read; as an int it overflowed in numpy.
    (("config", "recharge_rate"), 10 ** 30, 0, "plan cost"),
    (("cells", 0, "end_a", "x"), HUGE, 2,
     "cells[0].end_a.x is an integer beyond float range"),
    # A JSON true or 1.0 is not the integer version 1.
    (("version",), True, 2, "instance.version must be a JSON integer"),
    (("version",), 1.0, 2, "instance.version must be a JSON integer"),
], ids=["huge-d_max", "1e30-recharge_rate", "huge-x", "true-version",
        "float-version"])
def test_instance_numbers(tmp_path, path, value, code, message):
    got, err = check_plan_run(tmp_path, replaced(documents()[0], path, value))
    assert got == code
    assert message in err


@pytest.mark.parametrize("path, value, message", [
    (("uav_legs", 0, "duration"), HUGE,
     "plan.uav_legs[0].duration is an integer beyond float range"),
    (("version",), True, "plan.version must be a JSON integer"),
    (("version",), 1.0, "plan.version must be a JSON integer"),
    (("uav_legs", 0, "end_site", "x"), math.nan,
     "plan.uav_legs[0].end_site.x must be a finite number"),
    (("uav_legs", 0, "end_site", "x"), math.inf,
     "plan.uav_legs[0].end_site.x must be a finite number"),
    (("uav_legs", 0, "end_site", "x"), -math.inf,
     "plan.uav_legs[0].end_site.x must be a finite number"),
    (("total_time",), math.nan, "plan.total_time must be a finite number"),
    (("total_time",), math.inf, "plan.total_time must be a finite number"),
    (("total_time",), -math.inf, "plan.total_time must be a finite number"),
], ids=["huge-duration", "true-version", "float-version", "nan-x", "inf-x",
        "minus-inf-x", "nan-total_time", "inf-total_time",
        "minus-inf-total_time"])
def test_plan_numbers(tmp_path, path, value, message):
    code, err = render_run(tmp_path, replaced(documents()[1], path, value))
    assert code == 2
    assert message in err


@pytest.mark.parametrize("argv, code, message", [
    (("--restarts", "0"), 2, "restarts must be at least 1"),
    (("--restarts", "-1"), 2, "restarts must be at least 1"),
    (("--time-budget", "nan"), 2, "time_budget must be positive"),
    (("--time-budget", "0"), 2, "time_budget must be positive"),
    # argparse reads a bare -inf as an option; = passes it as the value.
    (("--time-budget", "-inf"), 2, "expected one argument"),
    (("--time-budget=-inf",), 2, "time_budget must be positive"),
    (("--time-budget", "inf"), 0, "plan cost"),
    # Runs until the budget: the restart indices are never listed.
    (("--restarts", "1000000000", "--time-budget", "1"), 0, "plan cost"),
    # A range of more than sys.maxsize restart indices has no len.
    (("--restarts", "99999999999999999999"), 2, "restarts must be at most"),
], ids=["zero-restarts", "negative-restarts", "nan-budget", "zero-budget",
        "minus-inf-budget", "minus-inf-budget-value", "inf-budget",
        "billion-restarts", "restarts-past-maxsize"])
def test_glns_flags(tmp_path, argv, code, message):
    got, err = check_plan_run(tmp_path, documents()[0],
                              ("--mode", "fast", *argv))
    assert got == code
    assert message in err


def test_integer_config_plan_round_trips(tmp_path):
    # Config times written as JSON integers read as floats, so the plan's
    # leg durations are floats and its JSON reads back unchanged.
    text = documents()[0]
    for path, value in ((("config", "t_land"), 45),
                        (("config", "recharge_rate"), 2)):
        text = replaced(text, path, value)
    assert check_plan_run(tmp_path, text)[0] == 0
    written = (tmp_path / "plan.json").read_text(encoding="utf-8")
    plan = parse_plan(written)
    assert all(isinstance(leg.duration, float) for leg in plan.uav_legs)
    assert serialize_plan(plan) == written

"""End-to-end CLI tests through main(argv)."""

import json
import time
from dataclasses import replace

import pytest

from airmule.cli import _build_parser, _params_from_args, main
from airmule.energy import PlannerConfig
from airmule.errors import Infeasible, NoFeasibleTour
from airmule.geometry import Cell, Site
from airmule.graph import build_instance
from airmule.instances import (gen_random, load_instance, parse_plan,
                               serialize_instance)
from airmule.plan import baseline_plan, validate
from airmule.solver import SolverParams, solve_exact


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def gen_instance(tmp_path, capsys, n=3, extra=()):
    path = tmp_path / "inst.json"
    code, _, _ = run(capsys, "gen", "-n", str(n), "--extent", "30",
                     "--max-len", "7", "--gen-seed", "3", "-o", str(path),
                     "--d-max", "60", "--levels", "4", *extra)
    assert code == 0
    return path


def test_gen_writes_instance(tmp_path, capsys):
    path = gen_instance(tmp_path, capsys)
    cells, cfg = load_instance(str(path))
    assert len(cells) == 3
    assert cfg.d_max == 60.0
    assert cfg.battery_levels == 4


def test_gen_to_stdout(capsys):
    code, out, _ = run(capsys, "gen", "-n", "2", "--extent", "20",
                       "--max-len", "5", "--gen-seed", "1")
    assert code == 0
    assert json.loads(out)["version"] == 1


def test_plan_exact_pipeline(tmp_path, capsys):
    inst = gen_instance(tmp_path, capsys)
    plan_path = tmp_path / "plan.json"
    code, _, err = run(capsys, "plan", str(inst), "--solver", "exact",
                       "-o", str(plan_path))
    assert code == 0
    assert "plan cost" in err
    plan = parse_plan(plan_path.read_text(encoding="utf-8"))
    assert plan.total_time > 0


def test_plan_glns_deterministic_output(tmp_path, capsys):
    inst = gen_instance(tmp_path, capsys, n=4)
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    for target in (p1, p2):
        code, _, _ = run(capsys, "plan", str(inst), "--solver", "glns",
                         "--mode", "fast", "--restarts", "2", "--seed", "9",
                         "-o", str(target))
        assert code == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_plan_infeasible_exit_code(tmp_path, capsys):
    inst = tmp_path / "bad.json"
    body = {
        "version": 1,
        "config": {"t_takeoff": 5.0, "t_land": 45.0, "recharge_rate": 2.0,
                   "d_max": 8.0, "battery_levels": 2, "fixed_wing_ratio": 1.0,
                   "turn_radius": 1.0, "ugv_speed_ratio": 0.2,
                   "fixed_wing_speed": 1.0},
        "cells": [
            {"index": 0,
             "end_a": {"id": 0, "x": 0.0, "y": 0.0, "on_road": False},
             "end_b": {"id": 1, "x": 5.0, "y": 0.0, "on_road": False}},
            {"index": 1,
             "end_a": {"id": 2, "x": 100.0, "y": 0.0, "on_road": False},
             "end_b": {"id": 3, "x": 105.0, "y": 0.0, "on_road": False}},
        ],
    }
    inst.write_text(json.dumps(body), encoding="utf-8")
    code, _, err = run(capsys, "plan", str(inst), "--solver", "exact")
    assert code == 1
    assert "error" in err


def far_apart_cells():
    # Short on-road cells about 1e200 apart: no flight joins them, but the
    # UGV can carry the UAV.
    return [Cell(0, Site(0, 0.0, 0.0, True), Site(1, 5.0, 0.0, True)),
            Cell(1, Site(2, 1e200, 0.0, True), Site(3, 1e200, 5.0, True)),
            Cell(2, Site(4, 0.0, 10.0, True), Site(5, 5.0, 10.0, True))]


def float_edge_cells():
    # A cell from x=-1e308 to x=1e308 is longer than a float holds.
    return [Cell(0, Site(0, -1e308, 0.0, True), Site(1, 1e308, 0.0, True)),
            Cell(1, Site(2, 0.0, 5.0, True), Site(3, 5.0, 5.0, True))]


@pytest.mark.parametrize("solver", ["exact", "glns"])
@pytest.mark.parametrize("kind", ["tiny-d-max", "far-apart", "float-edge"])
def test_unflyable_legs_plan_or_report_infeasible(tmp_path, capsys, kind,
                                                  solver):
    # Leg level counts beyond any integer used to escape as a traceback.
    inst = tmp_path / "inst.json"
    if kind == "tiny-d-max":
        code, _, _ = run(capsys, "gen", "-n", "3", "--d-max", "1e-300",
                         "-o", str(inst))
        assert code == 0
    else:
        cells = far_apart_cells() if kind == "far-apart" else float_edge_cells()
        inst.write_text(serialize_instance(cells, PlannerConfig(
            d_max=60.0, battery_levels=4, turn_radius=1.0)), encoding="utf-8")
    cells, cfg = load_instance(str(inst))
    with pytest.raises(Infeasible):
        baseline_plan(cells, cfg)
    out = tmp_path / "plan.json"
    code, _, err = run(capsys, "plan", str(inst), "--solver", solver,
                       "--mode", "fast", "-o", str(out))
    assert "Traceback" not in err
    if code == 0:
        plan = parse_plan(out.read_text(encoding="utf-8"))
        assert not [i for i in validate(plan, cells, cfg)
                    if i.severity == "violation"]
    else:
        assert code == 1
        assert "infeasible" in err and "error" in err


def test_bad_json_reports_position(tmp_path, capsys):
    inst = tmp_path / "broken.json"
    inst.write_text('{"version": 1,\n  "cells": [}', encoding="utf-8")
    code, _, err = run(capsys, "plan", str(inst))
    assert code == 2
    assert "line 2" in err and "column" in err


def test_missing_file_exit_code(tmp_path, capsys):
    code, _, err = run(capsys, "plan", str(tmp_path / "nope.json"))
    assert code == 2
    assert "error" in err


def test_usage_error_exit_code(capsys):
    assert run(capsys, "plan")[0] == 2
    assert run(capsys, "frobnicate")[0] == 2


def forbid_build(monkeypatch):
    def build_instance(cells, cfg):
        raise AssertionError("built the graph")

    monkeypatch.setattr("airmule.experiments.build_instance", build_instance)


@pytest.mark.parametrize("command", ["plan", "compare", "sweep"])
@pytest.mark.parametrize("solver", ["glns", "exact"])
def test_solver_flags_checked_before_build(tmp_path, capsys, monkeypatch,
                                           command, solver):
    # A bad flag is refused before the graph build, which takes seconds on
    # a large farm.
    inst = gen_instance(tmp_path, capsys)
    forbid_build(monkeypatch)
    argv = ((command, str(inst)) if command != "sweep" else
            ("sweep", "dmax", "--instance", str(inst), "--values", "40"))
    code, _, err = run(capsys, *argv, "--solver", solver, "--restarts", "0")
    assert code == 2
    assert "restarts must be at least 1" in err


def test_exact_plans_nine_cells(tmp_path, capsys):
    # The DP tables' byte bound is the exact solver's only limit: 9 cells at
    # C=20 take 2.2 MB of tables and solve.
    inst = tmp_path / "inst.json"
    assert run(capsys, "gen", "-n", "9", "--gen-seed", "1",
               "-o", str(inst))[0] == 0
    plan_path = tmp_path / "plan.json"
    code, _, err = run(capsys, "plan", str(inst), "--solver", "exact",
                       "-o", str(plan_path))
    assert code == 0, err
    cells, cfg = load_instance(str(inst))
    plan = parse_plan(plan_path.read_text(encoding="utf-8"))
    assert sorted(cell for cell, _ in plan.cell_order) == list(range(9))
    assert not [i for i in validate(plan, cells, cfg)
                if i.severity == "violation"]


def test_exact_table_bound_exit_code(tmp_path, capsys):
    # 30 cells' DP tables would take terabytes: the exact solver refuses
    # them up front instead of running.
    inst = tmp_path / "inst.json"
    assert run(capsys, "gen", "-n", "30", "--extent", "200", "--max-len", "6",
               "--gen-seed", "1", "-o", str(inst))[0] == 0
    start = time.monotonic()
    code, _, err = run(capsys, "plan", str(inst), "--solver", "exact")
    assert code == 2
    assert "bytes" in err and "glns" in err
    assert time.monotonic() - start < 30.0


def test_matrix_bound_exit_code(tmp_path, capsys):
    # 10**9 battery levels: the build refuses the matrices before allocating
    # them, whichever solver is asked for, so the hint to use GLNS is absent.
    inst = gen_instance(tmp_path, capsys)
    data = json.loads(inst.read_text(encoding="utf-8"))
    data["config"]["battery_levels"] = 10**9
    inst.write_text(json.dumps(data), encoding="utf-8")
    for solver in ("exact", "glns"):
        code, _, err = run(capsys, "plan", str(inst), "--solver", solver)
        assert code == 2
        assert "bytes of matrices" in err and "glns" not in err


def test_compare_reports_improvement(tmp_path, capsys):
    inst = gen_instance(tmp_path, capsys)
    code, out, _ = run(capsys, "compare", str(inst), "--solver", "exact")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("optimized ")
    assert lines[1].startswith("baseline ")
    assert lines[2].startswith("improvement ")
    assert float(lines[2].split()[1].rstrip("%")) >= -1e-9


def test_compare_with_infeasible_baseline(tmp_path, capsys):
    # The myopic baseline needs more levels than a battery holds for cell
    # 1, but the farm itself plans: compare reports both and succeeds.
    inst = tmp_path / "inst.json"
    assert run(capsys, "gen", "-n", "4", "--gen-seed", "1", "--d-max", "30",
               "-o", str(inst))[0] == 0
    cells, cfg = load_instance(str(inst))
    with pytest.raises(Infeasible):
        baseline_plan(cells, cfg)
    code, out, err = run(capsys, "compare", str(inst), "--solver", "exact")
    assert code == 0, err
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("optimized ")
    assert lines[1] == "baseline infeasible"


def test_sweep_dmax_csv(tmp_path, capsys):
    inst = gen_instance(tmp_path, capsys)
    out_path = tmp_path / "sweep.csv"
    code, _, _ = run(capsys, "sweep", "dmax", "--instance", str(inst),
                     "--values", "40,60,80", "--solver", "exact",
                     "-o", str(out_path))
    assert code == 0
    lines = out_path.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == "# version 1"
    assert lines[1].startswith("seed,n,C,d_max,")
    assert len(lines) == 5


def test_sweep_requires_instance(capsys):
    for kind in ("dmax", "levels"):
        code, _, err = run(capsys, "sweep", kind, "--values", "10,20")
        assert code == 2
        assert "instance" in err


@pytest.mark.parametrize("kind, extra", [
    ("dmax", ("--values", "30,60", "--levels", "3")),
    ("levels", ("--values", "3", "--gen-seed", "7")),
    ("cells", ("--values", "3"))])
def test_sweep_refuses_flags_its_kind_ignores(tmp_path, capsys, kind, extra):
    # dmax and levels read the instance's config and cells generates its
    # farms, so a flag the kind would not read is a usage error.
    inst = gen_instance(tmp_path, capsys)
    code, _, err = run(capsys, "sweep", kind, "--instance", str(inst), *extra)
    assert code == 2
    assert err.startswith(f"usage: airmule sweep {kind} [-h]")
    assert f"airmule sweep {kind}: error: unrecognized arguments" in err


@pytest.mark.parametrize("argv", [
    ("gen", "-n", "2", "--seed", "1"),
    ("plan", "{inst}", "--levels", "3"),
    ("compare", "{inst}", "--gen-seed", "3"),
    ("render", "{inst}", "-o", "x.svg", "--solver", "exact"),
    ("plan", "{inst}", "extra")], ids=lambda argv: argv[0])
def test_unknown_flag_prints_its_command_usage(tmp_path, capsys, argv):
    inst = gen_instance(tmp_path, capsys)
    code, _, err = run(capsys, *(a.format(inst=inst) for a in argv))
    assert code == 2
    assert err.startswith(f"usage: airmule {argv[0]} [-h]")
    assert f"airmule {argv[0]}: error: unrecognized arguments" in err


@pytest.mark.parametrize("argv, usage", [
    (("--bogus", "plan", "{inst}"),
     "usage: airmule [-h] {gen,plan,compare,sweep,render} ...\n"
     "airmule: error: unrecognized arguments: --bogus\n"),
    (("plan", "--bogus", "{inst}"), "usage: airmule plan [-h]"),
    (("sweep", "--bogus", "dmax", "--values", "60", "--instance", "{inst}"),
     "usage: airmule sweep [-h] {dmax,cells,levels} ...\n"
     "airmule sweep: error: unrecognized arguments: --bogus\n")],
    ids=["root", "command", "sweep"])
def test_unknown_flag_prints_usage_of_the_parser_given_it(tmp_path, capsys,
                                                          argv, usage):
    # A flag given before the command word belongs to the root parser (or,
    # before a sweep kind, to sweep's), which reports it with its own usage
    # line; after the command word, to the command's.
    inst = gen_instance(tmp_path, capsys)
    code, _, err = run(capsys, *(a.format(inst=inst) for a in argv))
    assert code == 2
    assert err.startswith(usage)


@pytest.mark.parametrize("argv", [
    ("plan", "i.json"), ("compare", "i.json"),
    ("sweep", "levels", "--instance", "i.json", "--values", "3")])
def test_solver_flag_defaults_are_solver_params(argv):
    args = _build_parser().parse_args(argv)
    assert _params_from_args(args) == SolverParams()
    assert args.solver == "glns"


def test_sweep_dmax_rejects_unsorted(tmp_path, capsys, monkeypatch):
    inst = gen_instance(tmp_path, capsys)
    forbid_build(monkeypatch)
    code, _, err = run(capsys, "sweep", "dmax", "--instance", str(inst),
                       "--values", "60,30")
    assert code == 2
    assert "ascending" in err


def direct_row(cells, cfg, seed):
    # The row that building, solving and the baseline give for one instance,
    # without the sweep code: every CSV column but wall_time_s.
    try:
        cost = repr(solve_exact(build_instance(cells, cfg)).cost)
    except (Infeasible, NoFeasibleTour):
        cost = "infeasible"
    try:
        base = repr(baseline_plan(cells, cfg).total_time)
    except Infeasible:
        base = "infeasible"
    return [str(seed), str(len(cells)), str(cfg.battery_levels),
            repr(cfg.d_max), cost, base, "exact"]


@pytest.mark.parametrize("kind", ["dmax", "levels", "cells"])
def test_sweep_rows_match_direct_solve(tmp_path, capsys, kind):
    inst = gen_instance(tmp_path, capsys, n=4)
    cells, cfg = load_instance(str(inst))
    if kind == "dmax":
        argv = ("--instance", str(inst), "--values", "0.5,30,60")
        family = [(cells, replace(cfg, d_max=v)) for v in (0.5, 30.0, 60.0)]
        seed = 0
    elif kind == "levels":
        argv = ("--instance", str(inst), "--values", "2,5")
        family = [(cells, replace(cfg, battery_levels=v)) for v in (2, 5)]
        seed = 0
    else:
        argv = ("--values", "3,5", "--gen-seed", "4", "--extent", "40",
                "--max-len", "8", "--road-fraction", "0.5", "--d-max", "60",
                "--levels", "6", "--ugv-speed-ratio", "0.3")
        cfg = PlannerConfig(d_max=60.0, battery_levels=6, ugv_speed_ratio=0.3)
        family = [(gen_random(n, 40.0, 8.0, 4, 0.5), cfg) for n in (3, 5)]
        seed = 4
    out_path = tmp_path / "sweep.csv"
    code, _, err = run(capsys, "sweep", kind, *argv, "--solver", "exact",
                       "-o", str(out_path))
    assert code == 0, err
    lines = out_path.read_text(encoding="utf-8").splitlines()[2:]
    got = [line.split(",") for line in lines]
    assert [row[:6] + row[7:] for row in got] == [
        direct_row(c, k, seed) for c, k in family]


def test_render_pipeline(tmp_path, capsys):
    inst = gen_instance(tmp_path, capsys)
    plan_path = tmp_path / "plan.json"
    assert run(capsys, "plan", str(inst), "--solver", "exact",
               "-o", str(plan_path))[0] == 0
    svg_path = tmp_path / "out.svg"
    code, _, _ = run(capsys, "render", str(inst), "--plan", str(plan_path),
                     "-o", str(svg_path))
    assert code == 0
    text = svg_path.read_text(encoding="utf-8")
    assert text.startswith("<svg ")
    code2, _, _ = run(capsys, "render", str(inst), "-o", str(svg_path))
    assert code2 == 0


def test_render_deterministic_bytes(tmp_path, capsys):
    inst = gen_instance(tmp_path, capsys)
    a = tmp_path / "a.svg"
    b = tmp_path / "b.svg"
    for target in (a, b):
        assert run(capsys, "render", str(inst), "-o", str(target))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_string_road_flag_exit_code(tmp_path, capsys):
    # "false" is a truthy string; it must be rejected, not read as on-road.
    inst = gen_instance(tmp_path, capsys)
    data = json.loads(inst.read_text(encoding="utf-8"))
    data["cells"][1]["end_b"]["on_road"] = "false"
    inst.write_text(json.dumps(data), encoding="utf-8")
    code, _, err = run(capsys, "plan", str(inst))
    assert code == 2
    assert "cells[1].end_b.on_road" in err and "boolean" in err


def test_missing_cell_end_exit_code(tmp_path, capsys):
    inst = gen_instance(tmp_path, capsys)
    data = json.loads(inst.read_text(encoding="utf-8"))
    del data["cells"][0]["end_a"]
    inst.write_text(json.dumps(data), encoding="utf-8")
    code, _, err = run(capsys, "plan", str(inst))
    assert code == 2
    assert "cells[0].end_a is missing" in err


def planned(tmp_path, capsys):
    inst = gen_instance(tmp_path, capsys)
    plan_path = tmp_path / "plan.json"
    assert run(capsys, "plan", str(inst), "--solver", "exact",
               "-o", str(plan_path))[0] == 0
    return inst, plan_path, json.loads(plan_path.read_text(encoding="utf-8"))


def test_missing_plan_legs_exit_code(tmp_path, capsys):
    inst, plan_path, data = planned(tmp_path, capsys)
    del data["uav_legs"]
    plan_path.write_text(json.dumps(data), encoding="utf-8")
    code, _, err = run(capsys, "render", str(inst), "--plan", str(plan_path),
                       "-o", str(tmp_path / "out.svg"))
    assert code == 2
    assert "plan.uav_legs is missing" in err


def test_string_via_ride_exit_code(tmp_path, capsys):
    # "false" is a truthy string; it must be rejected, not read as a ride.
    inst, plan_path, data = planned(tmp_path, capsys)
    assert data["ugv_waypoints"]
    data["ugv_waypoints"][0]["via_ride"] = "false"
    plan_path.write_text(json.dumps(data), encoding="utf-8")
    code, _, err = run(capsys, "render", str(inst), "--plan", str(plan_path),
                       "-o", str(tmp_path / "out.svg"))
    assert code == 2
    assert "plan.ugv_waypoints[0].via_ride" in err and "boolean" in err


def test_unknown_leg_kind_exit_code(tmp_path, capsys):
    inst, plan_path, data = planned(tmp_path, capsys)
    data["uav_legs"][0]["kind"] = "hover"
    plan_path.write_text(json.dumps(data), encoding="utf-8")
    code, _, err = run(capsys, "render", str(inst), "--plan", str(plan_path),
                       "-o", str(tmp_path / "out.svg"))
    assert code == 2
    assert "plan.uav_legs[0].kind must be one of" in err and "'hover'" in err


@pytest.mark.parametrize("start, end", [(0.5, None), (None, 0.5)])
def test_fixed_wing_leg_with_one_heading_exit_code(tmp_path, capsys, start,
                                                   end):
    # A fixed-wing leg with headings is drawn as the Dubins path between
    # them, so a leg with only one of the two is malformed input.
    inst, plan_path, data = planned(tmp_path, capsys)
    k = next(k for k, leg in enumerate(data["uav_legs"])
             if leg["kind"] == "fly")
    data["uav_legs"][k].update(mode="fixed_wing", start_heading=start,
                               end_heading=end)
    plan_path.write_text(json.dumps(data), encoding="utf-8")
    svg_path = tmp_path / "out.svg"
    code, _, err = run(capsys, "render", str(inst), "--plan", str(plan_path),
                       "-o", str(svg_path))
    assert code == 2
    assert f"plan.uav_legs[{k}] is a fixed-wing leg" in err
    assert not svg_path.exists()


def test_boolean_config_value_exit_code(tmp_path, capsys):
    # JSON true is a Python bool, an int subclass; it must not pass as 1.
    inst = gen_instance(tmp_path, capsys)
    data = json.loads(inst.read_text(encoding="utf-8"))
    data["config"]["battery_levels"] = True
    inst.write_text(json.dumps(data), encoding="utf-8")
    code, _, err = run(capsys, "plan", str(inst))
    assert code == 2
    assert "battery_levels" in err


def test_nan_time_budget_exit_code(tmp_path, capsys):
    # A NaN deadline is never reached and fails every deadline check.
    inst = gen_instance(tmp_path, capsys)
    code, _, err = run(capsys, "plan", str(inst), "--time-budget", "nan")
    assert code == 2
    assert "time_budget" in err


@pytest.mark.parametrize("argv", [
    ("gen", "-n", "3", "--extent", "nan"),
    ("gen", "-n", "3", "--max-len", "inf"),
    ("sweep", "cells", "--values", "3", "--extent", "nan")])
def test_non_finite_gen_size_exit_code(capsys, argv):
    start = time.monotonic()
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "finite" in err
    assert time.monotonic() - start < 5.0  # refused, not sampled to the cap


@pytest.mark.parametrize("argv", [
    ("gen", "-n", "99999999999999999999"),
    ("sweep", "cells", "--values", "99999999999999999999")])
def test_gen_size_past_attempt_cap_exit_code(capsys, argv):
    # Each attempt places at most one cell, so more cells than attempts
    # are refused before the first draw.
    start = time.monotonic()
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert "attempts" in err
    assert time.monotonic() - start < 5.0

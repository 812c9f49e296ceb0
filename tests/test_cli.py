"""End-to-end CLI tests through main(argv)."""

import json
import time

import pytest

from airmule.cli import main
from airmule.instances import load_instance, parse_plan


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


def test_cluster_cap_exit_code(tmp_path, capsys):
    inst = gen_instance(tmp_path, capsys, n=4)
    code, _, err = run(capsys, "plan", str(inst), "--solver", "exact",
                       "--cluster-cap", "2")
    assert code == 2
    assert "glns" in err


def test_exact_table_bound_exit_code(tmp_path, capsys):
    # 30 cells pass a cap of 64, but their DP tables would take terabytes:
    # the exact solver refuses them up front instead of running.
    inst = tmp_path / "inst.json"
    assert run(capsys, "gen", "-n", "30", "--extent", "200", "--max-len", "6",
               "--gen-seed", "1", "-o", str(inst))[0] == 0
    start = time.monotonic()
    code, _, err = run(capsys, "plan", str(inst), "--solver", "exact",
                       "--cluster-cap", "64")
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
    code, _, err = run(capsys, "sweep", "dmax", "--values", "10,20")
    assert code == 2
    assert "instance" in err


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

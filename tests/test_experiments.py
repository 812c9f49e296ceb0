"""Sweep and CSV report tests."""

from dataclasses import replace

from airmule.energy import PlannerConfig
from airmule.experiments import ExperimentRow, report_to_csv, sweep
from airmule.instances import gen_random


def small():
    cfg = PlannerConfig(d_max=60.0, battery_levels=4, ugv_speed_ratio=0.4)
    cells = gen_random(3, 25.0, 7.0, seed=2)
    return cells, cfg


def dmax_family(cells, cfg, values):
    return [(cells, replace(cfg, d_max=v)) for v in values]


def test_sweep_dmax_monotone():
    cells, cfg = small()
    rows = sweep(dmax_family(cells, cfg, [30.0, 60.0, 90.0]), "exact", None)
    costs = [row.optimal_cost for row in rows]
    assert all(c is not None for c in costs)
    for lo, hi in zip(costs[1:], costs):
        assert lo <= hi + 1e-9
    assert [row.d_max for row in rows] == [30.0, 60.0, 90.0]


def test_sweep_dmax_marks_infeasible():
    cells, cfg = small()
    rows = sweep(dmax_family(cells, cfg, [0.5, 60.0]), "exact", None)
    assert rows[0].optimal_cost is None
    assert rows[0].baseline_cost is None
    csv = report_to_csv(rows)
    assert "infeasible" in csv


def test_sweep_levels():
    cells, cfg = small()
    rows = sweep([(cells, replace(cfg, battery_levels=v)) for v in (3, 4)],
                 "exact", None)
    assert [row.levels for row in rows] == [3, 4]
    assert all(row.optimal_cost is not None for row in rows)


def test_sweep_cells_uses_generator():
    cfg = PlannerConfig(d_max=120.0, battery_levels=5)
    rows = sweep([(gen_random(n, 25.0, 6.0, 4), cfg) for n in (2, 3)],
                 "exact", None, seed=4)
    assert [row.n for row in rows] == [2, 3]
    assert [row.seed for row in rows] == [4, 4]


def test_csv_layout():
    rows = [
        ExperimentRow(7, 3, 4, 60.0, 12.5, 20.0, 0.01, "exact"),
        ExperimentRow(7, 3, 4, 90.0, None, None, 0.02, "glns"),
    ]
    lines = report_to_csv(rows).strip().splitlines()
    assert lines[0] == "# version 1"
    assert lines[1] == "seed,n,C,d_max,optimal_cost,baseline_cost,wall_time_s,solver_mode"
    assert lines[2].startswith("7,3,4,60.0,12.5,20.0,")
    assert lines[2].endswith(",exact")
    assert lines[3].startswith("7,3,4,90.0,infeasible,infeasible,")

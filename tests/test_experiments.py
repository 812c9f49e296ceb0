"""Sweep and CSV report tests."""

import pytest

from airmule.energy import PlannerConfig
from airmule.experiments import (ExperimentReport, ExperimentRow,
                                 report_to_csv, sweep_cells, sweep_dmax,
                                 sweep_levels)
from airmule.instances import gen_random


def small():
    cfg = PlannerConfig(d_max=60.0, battery_levels=4, ugv_speed_ratio=0.4)
    cells = gen_random(3, 25.0, 7.0, seed=2)
    return cells, cfg


def test_sweep_dmax_monotone():
    cells, cfg = small()
    report = sweep_dmax(cells, cfg, [30.0, 60.0, 90.0], solver="exact")
    costs = [row.optimal_cost for row in report.rows]
    assert all(c is not None for c in costs)
    for lo, hi in zip(costs[1:], costs):
        assert lo <= hi + 1e-9
    assert [row.d_max for row in report.rows] == [30.0, 60.0, 90.0]


def test_sweep_dmax_rejects_unsorted():
    cells, cfg = small()
    with pytest.raises(ValueError):
        sweep_dmax(cells, cfg, [60.0, 30.0])


def test_sweep_dmax_marks_infeasible():
    cells, cfg = small()
    report = sweep_dmax(cells, cfg, [0.5, 60.0], solver="exact")
    assert report.rows[0].optimal_cost is None
    assert report.rows[0].baseline_cost is None
    csv = report_to_csv(report)
    assert "infeasible" in csv


def test_sweep_levels():
    cells, cfg = small()
    report = sweep_levels([3, 4], cells, cfg, solver="exact")
    assert [row.levels for row in report.rows] == [3, 4]
    assert all(row.optimal_cost is not None for row in report.rows)


def test_sweep_cells_uses_generator():
    cfg = PlannerConfig(d_max=120.0, battery_levels=5)
    report = sweep_cells([2, 3], cfg, extent=25.0, max_len=6.0, seed=4,
                         solver="exact")
    assert [row.n for row in report.rows] == [2, 3]


def test_csv_layout():
    report = ExperimentReport((
        ExperimentRow(7, 3, 4, 60.0, 12.5, 20.0, 0.01, "exact"),
        ExperimentRow(7, 3, 4, 90.0, None, None, 0.02, "glns"),
    ))
    lines = report_to_csv(report).strip().splitlines()
    assert lines[0] == "# version 1"
    assert lines[1] == "seed,n,C,d_max,optimal_cost,baseline_cost,wall_time_s,solver_mode"
    assert lines[2].startswith("7,3,4,60.0,12.5,20.0,")
    assert lines[2].endswith(",exact")
    assert lines[3].startswith("7,3,4,90.0,infeasible,infeasible,")

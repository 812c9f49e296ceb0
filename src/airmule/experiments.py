"""Parameter sweeps producing CSV reports.

A sweep solves each instance of a family and records the solver cost
against the myopic baseline.  The caller builds the family, so the sweep
does not know which input it varies.
"""

from __future__ import annotations

import time
from collections.abc import Iterable
from dataclasses import dataclass

from .energy import PlannerConfig
from .errors import Infeasible, NoFeasibleTour
from .geometry import Cell
from .graph import ClusteredGraph, build_instance
from .plan import baseline_plan
from .solver import GtspTour, SolverParams, solve_exact, solve_glns

_CSV_HEADER = "seed,n,C,d_max,optimal_cost,baseline_cost,wall_time_s,solver_mode"


@dataclass(frozen=True)
class ExperimentRow:
    seed: int
    n: int
    levels: int
    d_max: float
    optimal_cost: float | None
    baseline_cost: float | None
    wall_time_s: float
    solver_mode: str


def solve(cells: list[Cell], cfg: PlannerConfig, solver: str,
          params: SolverParams | None) -> tuple[ClusteredGraph, GtspTour]:
    """Build the clustered graph and solve it exactly or with GLNS."""
    g = build_instance(cells, cfg)
    if solver == "exact":
        return g, solve_exact(g)
    return g, solve_glns(g, params)


def baseline_cost(cells: list[Cell], cfg: PlannerConfig) -> float | None:
    """Makespan of the myopic multi-rotor baseline; None when it cannot
    fly the farm."""
    try:
        return baseline_plan(cells, cfg).total_time
    except Infeasible:
        return None


def sweep(family: Iterable[tuple[list[Cell], PlannerConfig]], solver: str,
          params: SolverParams | None, seed: int = 0) -> list[ExperimentRow]:
    """One row per (cells, cfg) instance; an infeasible cost is None."""
    rows = []
    for cells, cfg in family:
        start = time.perf_counter()
        try:
            cost = solve(cells, cfg, solver, params)[1].cost
        except (Infeasible, NoFeasibleTour):
            cost = None
        wall = time.perf_counter() - start
        rows.append(ExperimentRow(seed, len(cells), cfg.battery_levels,
                                  cfg.d_max, cost, baseline_cost(cells, cfg),
                                  wall, solver))
    return rows


def report_to_csv(rows: list[ExperimentRow]) -> str:
    def cost(value: float | None) -> str:
        return "infeasible" if value is None else repr(value)

    lines = [f"# version {1}", _CSV_HEADER]
    for r in rows:
        lines.append(
            f"{r.seed},{r.n},{r.levels},{r.d_max!r},{cost(r.optimal_cost)},"
            f"{cost(r.baseline_cost)},{r.wall_time_s:.6f},{r.solver_mode}")
    return "\n".join(lines) + "\n"

"""Benchmark workloads: seeded farm batches for the airmule pipeline.

Importing this module puts the repository's own ``src`` directory first on
``sys.path`` so the benchmark always plans with the checkout's sources, and
exits with an error when those sources are missing.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_SRC = ROOT / "src"
if not (_SRC / "airmule" / "__init__.py").is_file():
    sys.exit(f"perfbench: airmule sources not found under {_SRC}")
sys.path.insert(0, str(_SRC))

from airmule import PlannerConfig, SolverParams, instances  # noqa: E402
from airmule.geometry import Cell  # noqa: E402

# Wall-clock budgets handed to solve_glns, at least four times what a solve
# needs on a 2-core machine even when that machine runs slow. Reaching one
# means the result came from a cut search and depends on machine speed.
N50_BUDGET_S = 120.0
N20_BUDGET_S = 40.0


@dataclass(frozen=True)
class Farm:
    """One planning request: cells, config and the solver to run."""

    index: int
    cells: list[Cell]
    cfg: PlannerConfig
    params: SolverParams | None  # None selects solve_exact


def _glns_n50(seed: int, tiny: bool) -> list[Farm]:
    # Seed 9 gives gen seed 90 and rng seed 9: the acceptance-9 farm.
    cfg = PlannerConfig(d_max=400.0, battery_levels=20, ugv_speed_ratio=0.3)
    cells = instances.gen_random(6 if tiny else 50, 100.0, 10.0,
                                 seed=10 * seed)
    params = SolverParams(mode="default", restarts=1, rng_seed=seed,
                          time_budget=N50_BUDGET_S)
    return [Farm(0, cells, cfg, params)]


def _exact_small(seed: int, tiny: bool) -> list[Farm]:
    rng = random.Random(f"exact-small:{seed}")
    cfg = PlannerConfig(d_max=120.0, battery_levels=20, ugv_speed_ratio=0.3)
    farms = []
    for k in range(3 if tiny else 300):
        # Equal thirds of n = 4, 5, 6 in a fixed order, so that every seed
        # and every partial repeat pass plans the same mix of sizes.
        n = 4 + k % 3
        cells = instances.gen_random(n, 40.0, 8.0, seed=rng.randrange(2**32),
                                     road_fraction=1.0)
        farms.append(Farm(k, cells, cfg, None))
    return farms


def _glns_n20_recharge(seed: int, tiny: bool) -> list[Farm]:
    rng = random.Random(f"glns-n20-recharge:{seed}")
    cfg = PlannerConfig(d_max=60.0, battery_levels=20, ugv_speed_ratio=0.2)
    farms = []
    for k in range(1 if tiny else 4):
        cells = instances.gen_random(5 if tiny else 20, 100.0, 10.0,
                                     seed=rng.randrange(2**32),
                                     road_fraction=0.7)
        params = SolverParams(mode="default", restarts=3,
                              rng_seed=rng.randrange(2**32),
                              time_budget=N20_BUDGET_S)
        farms.append(Farm(k, cells, cfg, params))
    return farms


WORKLOADS = {
    "glns-n50": _glns_n50,
    "exact-small": _exact_small,
    "glns-n20-recharge": _glns_n20_recharge,
}


def make_farms(workload: str, seed: int, tiny: bool = False) -> list[Farm]:
    """The workload's farm batch; the same seed always gives the same farms.

    tiny shrinks every farm and batch for the benchmark's self-test.
    """
    return WORKLOADS[workload](seed, tiny)

"""Battery discretization loss: what rounding each leg up to a level costs.

24 pinned farms, each solved by solve_exact at C = 10, 20, 40, 80 and
160 battery levels with recharge_rate = 40 / C seconds a level, so that
a full charge takes 40 s at every C.  The loss at C is a farm's optimum
at C over its optimum at 160, less one.  Prints one line per C:

    C=20: median +x%, worst +y% (farm s) against C=160

Farm s, for s in 0..23, is gen_random(n, 100.0, 10.0, 700 + s, road)
with n = 3 + s mod 4 cells, d_max 45, 60, 75 or 90, UGV speed ratio 0.2
or 0.5 and road fraction 0.7 or 1.0.

    python tests/battery_loss.py

Importing this module puts the checkout's own src directory first on
sys.path, so the table reads the model next to it.
"""

from __future__ import annotations

import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from airmule.energy import PlannerConfig  # noqa: E402
from airmule.graph import build_instance  # noqa: E402
from airmule.instances import gen_random  # noqa: E402
from airmule.solver import solve_exact  # noqa: E402

FARMS = range(24)
LEVELS = (10, 20, 40, 80)
FINEST = 160

# Seconds of a full charge, the same at every C.
FULL_CHARGE = 40.0


def optimum(s: int, levels: int) -> float:
    """solve_exact's cost of farm s at the given number of levels."""
    cells = gen_random(3 + s % 4, 100.0, 10.0, 700 + s,
                       (0.7, 1.0)[(s // 12) % 2])
    cfg = PlannerConfig(d_max=(45.0, 60.0, 75.0, 90.0)[(s // 4) % 4],
                        battery_levels=levels,
                        ugv_speed_ratio=(0.2, 0.5)[(s // 2) % 2],
                        recharge_rate=FULL_CHARGE / levels)
    return solve_exact(build_instance(cells, cfg)).cost


def losses() -> dict[int, dict[int, float]]:
    """losses[C][s]: farm s's relative loss at C levels against FINEST."""
    best = {s: optimum(s, FINEST) for s in FARMS}
    return {c: {s: optimum(s, c) / best[s] - 1.0 for s in FARMS}
            for c in LEVELS}


def main() -> int:
    for c, row in losses().items():
        worst = max(row, key=row.get)
        print(f"C={c}: median {statistics.median(row.values()):+.1%}, "
              f"worst {row[worst]:+.1%} (farm {worst}) against C={FINEST}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

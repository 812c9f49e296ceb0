"""Gap suite: how far solve_glns lands from the exact optimum.

32 farms of 10 to 12 cells, most with a tight battery and partial roads,
each solved by solve_glns (default mode, 3 restarts) with rng seed
s + 1000 * o for farm s and offset o, and compared with its Held-Karp
optimum, pinned in OPTIMA.  A miss is a tour that costs more than the
optimum beyond a relative 1e-9, which covers the two solvers' different
summation orders.  The gaps are heavy-tailed, so the suite reports the
misses and the worst gap beside the mean.

    python tests/gap_suite.py --offsets 10

prints one line: GAP SUITE: misses m/320, mean x%, worst y%.  Importing
this module puts the checkout's own src directory first on sys.path, so
the suite measures the solver next to it.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from airmule.energy import PlannerConfig  # noqa: E402
from airmule.graph import ClusteredGraph, build_instance  # noqa: E402
from airmule.instances import gen_random  # noqa: E402
from airmule.solver import SolverParams, solve_glns  # noqa: E402

FARMS = range(1, 33)

# solve_exact's cost of each farm, in farm order.
OPTIMA = (
    438.9580472288667, 508.0749371058555, 425.74440506476566, 383.9213523157,
    448.1317046948931, 386.7407545944167, 446.49450195106016, 519.2710788596216,
    341.2824088425112, 361.19703622652275, 370.3410852914658, 378.7858085102414,
    412.90066381716844, 412.4117428072109, 368.61926123850316, 393.6858910338569,
    419.44693065392465, 383.90494517334986, 408.0592748072582, 510.922493417617,
    408.5609703629364, 410.72192026685036, 426.5921721485956, 391.05129650745624,
    451.83414027353405, 448.3873849285162, 448.0632922701924, 511.37595618049755,
    383.35039188755866, 399.99882374784426, 351.3719706752341, 451.24324132691663,
)

_MISS_TOLERANCE = 1e-9


def farm(s: int) -> ClusteredGraph:
    """The clustered graph of farm s in FARMS.

    Cells 10 + s mod 3, road fraction 0.5, 0.75 or 1 and UGV speed ratio
    0.2 or 0.5.  Farms 1 to 20 have 10 battery levels and d_max 80 (odd
    s) or 60 (even s); farms 21 to 32 have 20 levels and d_max 60 or 45.
    """
    road = (0.5, 0.75, 1.0)[s % 3 if s % 2 else (s // 2) % 3]
    ratio = (0.2, 0.5)[(s // 3) % 2]
    if s <= 20:
        levels, d_max = 10, (80.0 if s % 2 else 60.0)
    else:
        levels, d_max = 20, (60.0 if s % 2 else 45.0)
    cells = gen_random(10 + s % 3, 100.0, 10.0, 1000 + s, road)
    return build_instance(cells, PlannerConfig(
        d_max=d_max, battery_levels=levels, ugv_speed_ratio=ratio))


def gaps(offsets: range) -> list[list[float]]:
    """gaps[k][i]: relative gap of farm FARMS[k] at offset offsets[i]."""
    rows = []
    for s, best in zip(FARMS, OPTIMA):
        g = farm(s)
        rows.append([solve_glns(g, SolverParams(rng_seed=s + 1000 * o)).cost
                     / best - 1.0 for o in offsets])
    return rows


def misses(rows: list[list[float]]) -> int:
    return sum(gap > _MISS_TOLERANCE for row in rows for gap in row)


def summary(rows: list[list[float]]) -> str:
    flat = [gap for row in rows for gap in row]
    return (f"GAP SUITE: misses {misses(rows)}/{len(flat)}, "
            f"mean {100 * sum(flat) / len(flat):.3f}%, "
            f"worst {100 * max(flat):.2f}%")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--offsets", type=int, default=10,
                        help="rng seed offsets per farm, from 0")
    args = parser.parse_args(argv)
    if args.offsets < 1:
        parser.error("--offsets must be at least 1")
    print(summary(gaps(range(args.offsets))))
    return 0


if __name__ == "__main__":
    sys.exit(main())

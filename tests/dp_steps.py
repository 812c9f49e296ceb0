"""DP step counts of the GLNS search on the benchmark's search farms.

For glns-n50 seed 9 and farms 0 and 1 of glns-n20-recharge seed 9, each
planned by solve_glns with the benchmark's solver settings, prints one line
per farm:

    glns-n50 farm 0: dp calls 2881, forward steps ..., backward steps ...,
    stopped at join ..., stopped before join ...

A DP call is a re-pick of the vertices along an order of at least one
cluster.  A forward step is one min-plus product of a cluster block with a
forward DP vector (the steps reused along a shared prefix are not counted),
a backward step one with a backward vector.  A candidate stopped at the
join is one whose last bound looked at is the join at the first step q of
the suffix it shares with the current tour; one stopped before the join
was judged out by an earlier bound.  The restarts run in this process, so
every step is counted, and the counts repeat exactly from run to run.

    python tests/dp_steps.py

Importing this module puts the checkout's own src directory first on
sys.path, and its perfbench directory after it for the workload farms.
"""

from __future__ import annotations

import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "src"))

import farms as farmlib  # noqa: E402
from airmule import solver, workers  # noqa: E402
from airmule.graph import build_instance  # noqa: E402

# (workload, farm indices), all at seed 9.
RUNS = (("glns-n50", (0,)), ("glns-n20-recharge", (0, 1)))


def counted(counts: Counter) -> None:
    """Wrap the solver's DP parts so that they add to counts."""
    forward, backward = solver._forward, solver._backward
    reoptimize = solver._Search.reoptimize_vertices

    def forward_counted(into, order, steps, stop, look=None):
        before = len(steps)
        stopped = forward(into, order, steps, stop, look)
        counts["forward steps"] += len(steps) - before
        return stopped

    def backward_counted(into, arrive, tail, back, stop):
        # The vector of the last position is the closing edges, no step.
        before = max(len(back), 1)
        backward(into, arrive, tail, back, stop)
        counts["backward steps"] += len(back) - before

    def reoptimize_counted(self, rejects=None):
        order = self.order
        held = [c for c, _, _ in self.steps]
        done = reoptimize(self, rejects)
        n = len(order) - 1
        if n < 1:
            return done
        counts["dp calls"] += 1
        if not done:
            # The join is looked at on step q, where the order starts to
            # run as held does to its end, and only when q < n - 1; every
            # earlier look leaves at most q steps.
            keep = solver._common(held, order[1:])
            q = n - solver._common(reversed(held[keep:]),
                                   reversed(order[keep + 1:]))
            joined = q < n - 1 and len(self.steps) == q + 1
            counts["stopped at join" if joined
                   else "stopped before join"] += 1
        return done

    solver._forward = forward_counted
    solver._backward = backward_counted
    solver._Search.reoptimize_vertices = reoptimize_counted


def main() -> int:
    workers.usable_cpus = lambda: 1
    counts: Counter = Counter()
    counted(counts)
    for workload, indices in RUNS:
        for farm in farmlib.make_farms(workload, 9):
            if farm.index not in indices:
                continue
            counts.clear()
            solver.solve_glns(build_instance(farm.cells, farm.cfg),
                              farm.params)
            print(f"{workload} farm {farm.index}: " + ", ".join(
                f"{key} {counts[key]}" for key in (
                    "dp calls", "forward steps", "backward steps",
                    "stopped at join", "stopped before join")))
    return 0


if __name__ == "__main__":
    sys.exit(main())

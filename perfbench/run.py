"""airmule benchmark: plan seeded farm batches and print the metrics.

Run from the repository root:

    python3 perfbench/run.py --workload glns-n50 --seed 9 --seconds 20 --trace 0

One client plans farms one after another (a closed loop) in this process,
running build_instance -> solve_exact/solve_glns -> decode -> validate for
each. The first pass over the workload's batch always completes; later
passes re-plan the same farms until --seconds have passed and must
reproduce the first pass byte for byte.

Plan times are reported in reference seconds: speed.SpeedProbe runs a
fixed reference computation on a timer between the benchmark's own steps
and scales each plan's time by the host speed it measured around that
plan, so that drift in the shared host's speed cancels. Wall-clock values
are printed as well, with the suffix _wall.

--trace 0 prints the end-to-end metrics. --trace 1 plans every farm twice,
untraced and then with spans around each layer, prints the per-layer
metrics and the tracing overhead, and writes the spans to
perfbench/out/trace-<workload>-<seed>.json.

Every plan goes through a correctness gate. The last stdout line is one
JSON object with the keys correct, attempted, failed and metrics; the exit
code is 1 when any farm failed.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import farms as farmlib  # puts the checkout's src first on sys.path
from airmule import graph, instances, solver
from airmule import plan as planning
from airmule.errors import Infeasible
from airmule.geometry import FlightMode
from airmule.graph import EdgeType
from airmule.plan import LegKind
from speed import SpeedProbe, scale, time_blocks
from tracing import Tracer

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 9
SETUP_BLOCKS = 20  # reference blocks timed before and after each probe
# tour.cost may sit this far above the baseline's time, as in the
# acceptance test that compares the two.
BASELINE_TOL = 1e-9
# plan_s_p90 is reported only with at least this many samples beyond it.
TAIL_SAMPLES = 10
STOP_KINDS = ("none", "exit", "entry", "both", "ride")

UNITS = {
    "setup_s": "s", "plan_s_p50": "s", "plan_s_p90": "s",
    "plans_per_s": "1/s", "makespan": "s", "ugv_late_s": "s",
    "peak_rss_mb": "MB", "failed_frac": "fraction",
    "setup_s_wall": "s", "plan_s_p50_wall": "s", "plans_per_s_wall": "1/s",
    "host_speed": "ratio",
    "instances.gen_s": "s", "graph.build_s": "s", "graph.self_s": "s",
    "graph.pairs": "count", "graph.matrix_mb": "MB",
    "graph.feasible_frac": "fraction",
    **{f"graph.wins.{k}": "count" for k in (*STOP_KINDS, "fw_cover")},
    "geometry.dubins_calls": "count", "geometry.dubins_s": "s",
    "energy.consumption_calls": "count", "energy.consumption_s": "s",
    "solver.solve_s": "s", "solver.glns_s": "s", "solver.restart_s": "s",
    "solver.exact_s": "s", "solver.deadline_hits": "count",
    "plan.decode_s": "s", "plan.validate_s": "s", "plan.legs": "count",
    "plan.stops": "count", "plan.rides": "count",
    "plan.ugv_waypoints": "count", "plan.ugv_late_count": "count",
    "trace.coverage_pct": "%", "trace_overhead_pct": "%",
}


@dataclass
class Planned:
    g: graph.ClusteredGraph
    tour: solver.GtspTour
    plan: planning.Plan
    issues: list[planning.Issue]
    start: float  # on the clock plan_farm was given
    plan_s: float  # build_instance start to validate return
    solve_wall_s: float  # on the solver's own deadline clock


def plan_farm(farm: farmlib.Farm, clock=time.perf_counter) -> Planned:
    """The timed pipeline: cells and config in, validated plan out.

    Layer functions are looked up on their modules at call time so that a
    tracer's wrappers take effect.
    """
    t0 = clock()
    g = graph.build_instance(farm.cells, farm.cfg)
    s1 = time.monotonic()
    if farm.params is None:
        tour = solver.solve_exact(g)
    else:
        tour = solver.solve_glns(g, farm.params)
    s2 = time.monotonic()
    p = planning.decode(g, tour, farm.cfg)
    issues = planning.validate(p, farm.cells, farm.cfg)
    t3 = clock()
    return Planned(g, tour, p, issues, t0, t3 - t0, s2 - s1)


def deadline_hit(farm: farmlib.Farm, planned: Planned) -> bool:
    return (farm.params is not None
            and planned.solve_wall_s >= farm.params.time_budget)


def gate(farm: farmlib.Farm, planned: Planned) -> list[str]:
    """Why this plan is wrong; empty when it passes every check."""
    tour, p = planned.tour, planned.plan
    bad = [f"violation {i.code}: {i.message}"
           for i in planned.issues if i.severity == "violation"]
    if p.total_time != tour.cost:
        bad.append(f"total_time {p.total_time!r} != tour.cost {tour.cost!r}")
    recomputed = solver.tour_cost(planned.g, tour)
    if tour.cost != recomputed:
        bad.append(f"tour.cost {tour.cost!r} != tour_cost {recomputed!r}")
    if deadline_hit(farm, planned):
        bad.append(f"solve_glns reached its {farm.params.time_budget} s budget")
    if farm.params is None:
        try:
            base = planning.baseline_plan(farm.cells, farm.cfg)
        except Infeasible:
            base = None
        if base is not None and tour.cost > base.total_time + BASELINE_TOL:
            bad.append(f"exact cost {tour.cost!r} above baseline "
                       f"{base.total_time!r}")
    return bad


def plan_counts(planned: Planned) -> dict[str, float]:
    kinds = [leg.kind for leg in planned.plan.uav_legs]
    late = [i.wait for i in planned.issues if i.code == "ugv-late"]
    return {
        "makespan": planned.plan.total_time,
        "ugv_late_s": sum(late),
        "plan.legs": len(kinds),
        "plan.stops": kinds.count(LegKind.RECHARGE_IN_PLACE),
        "plan.rides": kinds.count(LegKind.RIDE_AND_RECHARGE),
        "plan.ugv_waypoints": len(planned.plan.ugv_waypoints),
        "plan.ugv_late_count": len(late),
    }


def graph_counts(g: graph.ClusteredGraph) -> dict[str, float]:
    """Size, feasibility and winning-template counts of the cell-to-cell edges."""
    n, levels = g.n_cells, g.levels
    entries = 4 * n * (n - 1) * levels * levels  # same-cell entries excluded
    wins = np.bincount(g.best_type[1:, 1:].ravel() + 1,
                       minlength=len(EdgeType) + 1)[1:]
    counts = {f"graph.wins.{k}": 0 for k in STOP_KINDS}
    counts["graph.wins.fw_cover"] = 0
    for t in EdgeType:
        counts[f"graph.wins.{t.stops}"] += int(wins[t.value])
        if t.cover_mode is FlightMode.FIXED_WING:
            counts["graph.wins.fw_cover"] += int(wins[t.value])
    counts["graph.pairs"] = 4 * n * (n - 1)
    counts["graph.matrix_mb"] = (g.cost.nbytes + g.best_type.nbytes) / 1e6
    counts["graph.feasible_frac"] = int(wins.sum()) / entries if entries else 1.0
    return counts


LAYERS = (
    (instances, "gen_random", "instances.gen"),
    (graph, "build_instance", "graph.build"),
    (solver, "solve_exact", "solver.exact"),
    (solver, "solve_glns", "solver.glns"),
    (planning, "decode", "plan.decode"),
    (planning, "validate", "plan.validate"),
)
# Leaf calls, counted on the span that makes them. These are the names
# airmule.graph calls, so calls made elsewhere are not counted.
LEAVES = (
    (graph, "dubins_shortest", "geometry.dubins"),
    (graph, "consumption_levels", "energy.consumption"),
)


def install(tracer: Tracer) -> None:
    for module, attr, name in LAYERS:
        tracer.wrap(module, attr, name)
    for module, attr, name in LEAVES:
        tracer.wrap_leaf(module, attr, name)


@dataclass
class Loop:
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    # (start, seconds) on the work clock: every untraced attempt, failed
    # ones included, and the plan times of valid untraced and traced plans
    busy: list[tuple[float, float]] = field(default_factory=list)
    plan_s: list[tuple[float, float]] = field(default_factory=list)
    traced_s: list[tuple[float, float]] = field(default_factory=list)
    first: list[dict] = field(default_factory=list)  # first pass, per farm
    traced: list[dict] = field(default_factory=list)  # per traced plan
    shas: dict[int, str] = field(default_factory=dict)
    fingerprint: "hashlib._Hash" = field(default_factory=hashlib.sha256)
    deadline_hits: int = 0


def attempt(loop: Loop, farm: farmlib.Farm, pass_no: int,
            tracer: Tracer | None, clock=time.perf_counter) -> bool:
    """Plan one farm, gate it and record it; False when it failed."""
    loop.attempted += 1
    label = f"farm {farm.index} pass {pass_no}{' traced' if tracer else ''}"
    t0 = clock()
    try:
        if tracer is None:
            planned = plan_farm(farm, clock)
        else:
            tracer.trace_id = f"{farm.index}/{pass_no}"
            install(tracer)
            try:
                with tracer.span("plan"):
                    planned = plan_farm(farm, clock)
            finally:
                tracer.remove()
    except Exception as exc:  # a raising farm is a failed farm
        traceback.print_exc(file=sys.stderr)
        loop.failed += 1
        loop.failures.append(f"{label}: {type(exc).__name__}: {exc}")
        return False
    finally:
        if tracer is None:
            loop.busy.append((t0, clock() - t0))

    bad = gate(farm, planned)
    loop.deadline_hits += deadline_hit(farm, planned)
    text = instances.serialize_plan(planned.plan)
    digest = hashlib.sha256(text.encode()).hexdigest()
    first = loop.shas.setdefault(farm.index, digest)
    if digest != first:
        bad.append("plan differs from this farm's first plan")
    if bad:
        loop.failed += 1
        loop.failures.extend(f"{label}: {b}" for b in bad)
        return False

    if tracer is not None:
        loop.traced_s.append((planned.start, planned.plan_s))
        loop.traced.append({**plan_counts(planned), **graph_counts(planned.g)})
    else:
        loop.plan_s.append((planned.start, planned.plan_s))
        if pass_no == 0:
            loop.first.append(plan_counts(planned))
            loop.fingerprint.update(text.encode())
    return True


def closed_loop(farms: list[farmlib.Farm], seconds: float,
                tracer: Tracer | None, clock=time.perf_counter) -> Loop:
    """Plan the batch once, then again until seconds have passed.

    With a tracer each farm is planned untraced and then traced. The loop
    stops at the first failed farm.
    """
    loop = Loop()
    end = time.monotonic() + seconds
    for pass_no in itertools.count():
        for farm in farms:
            if pass_no and time.monotonic() >= end:
                return loop
            if not attempt(loop, farm, pass_no, None, clock):
                return loop
            if tracer is not None and not attempt(loop, farm, pass_no,
                                                  tracer, clock):
                return loop
    raise AssertionError("unreachable")


def in_reference_s(timed: list[tuple[float, float]],
                   probe: SpeedProbe) -> list[float]:
    """(start, seconds) pairs on the work clock, in reference seconds."""
    return [s * probe.factor(t, t + s) for t, s in timed]


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def mean(values: list[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def end_to_end(loop: Loop, setup: list[tuple[float, float]],
               probe: SpeedProbe) -> dict[str, float]:
    plan_s = in_reference_s(loop.plan_s, probe)
    busy_s = sum(in_reference_s(loop.busy, probe))
    busy_wall_s = sum(s for _, s in loop.busy)
    m = {
        "setup_s": median([s for s, _ in setup]),
        "plan_s_p50": median(plan_s),
        "plans_per_s": len(plan_s) / busy_s if busy_s else 0.0,
        "makespan": mean([f["makespan"] for f in loop.first]),
        "ugv_late_s": mean([f["ugv_late_s"] for f in loop.first]),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "failed_frac": loop.failed / loop.attempted,
    }
    if len(plan_s) >= 10 * TAIL_SAMPLES:
        m["plan_s_p90"] = statistics.quantiles(plan_s, n=10)[-1]
    m.update({
        "setup_s_wall": median([s for _, s in setup]),
        "plan_s_p50_wall": median([s for _, s in loop.plan_s]),
        "plans_per_s_wall":
            len(loop.plan_s) / busy_wall_s if busy_wall_s else 0.0,
        "host_speed": probe.host_speed(),
    })
    return m


def per_layer(loop: Loop, tracer: Tracer, farms: list[farmlib.Farm],
              probe: SpeedProbe) -> dict[str, float]:
    per_plan: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    gen_s = []
    covered = total = 0.0
    for idx, s in enumerate(tracer.spans):
        if s.name == "instances.gen":
            gen_s.append(s.duration)
            continue
        d = per_plan[s.trace_id]
        d[s.name] += s.duration
        for leaf, (calls, seconds) in s.leaves.items():
            d[f"{leaf}_calls"] += calls
            d[f"{leaf}_s"] += seconds
        if s.name == "graph.build":
            d["graph.self"] += tracer.self_time(idx)
        if s.parent is None:
            total += s.duration
        elif tracer.spans[s.parent].parent is None:
            covered += s.duration
    plans = list(per_plan.values())

    def med(key: str) -> float:
        return median([d[key] for d in plans])

    glns_s = med("solver.glns")
    restarts = max((f.params.restarts for f in farms if f.params), default=1)
    m = {
        "instances.gen_s": median(gen_s),
        "graph.build_s": med("graph.build"),
        "graph.self_s": med("graph.self"),
        "geometry.dubins_calls": mean([d["geometry.dubins_calls"] for d in plans]),
        "geometry.dubins_s": med("geometry.dubins_s"),
        "energy.consumption_calls":
            mean([d["energy.consumption_calls"] for d in plans]),
        "energy.consumption_s": med("energy.consumption_s"),
        "solver.solve_s": median([d["solver.exact"] + d["solver.glns"]
                                  for d in plans]),
        "solver.glns_s": glns_s,
        "solver.restart_s": glns_s / restarts,
        "solver.exact_s": med("solver.exact"),
        "solver.deadline_hits": loop.deadline_hits,
        "plan.decode_s": med("plan.decode"),
        "plan.validate_s": med("plan.validate"),
        "trace.coverage_pct": 100.0 * covered / total if total else 0.0,
        "trace_overhead_pct":
            100.0 * (median(in_reference_s(loop.traced_s, probe))
                     / median(in_reference_s(loop.plan_s, probe)) - 1.0)
            if loop.plan_s and loop.traced_s else 0.0,
    }
    for key in loop.traced[0] if loop.traced else ():
        if key not in ("makespan", "ugv_late_s"):
            m[key] = mean([t[key] for t in loop.traced])
    return m


def setup_probe(args: argparse.Namespace) -> tuple[float, float]:
    """Seconds from starting a fresh interpreter to its farms being ready,
    in reference seconds and on the wall clock.

    The host's speed is taken from reference blocks run right before and
    right after the probe.
    """
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        cmd.append("--tiny")
    blocks = time_blocks(SETUP_BLOCKS)
    t0 = time.monotonic()
    out = subprocess.run(cmd, capture_output=True, text=True, check=True,
                         timeout=120)
    # CLOCK_MONOTONIC is shared by all processes on the machine.
    wall = float(out.stdout.split()[-1]) - t0
    blocks += time_blocks(SETUP_BLOCKS)
    return wall * scale(blocks), wall


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(farmlib.WORKLOADS))
    ap.add_argument("--seed", type=int, default=9)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="shrink every farm and batch (self-test only)")
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def benchmark_metrics(trace: bool) -> list[str]:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        farmlib.make_farms(args.workload, args.seed, args.tiny)
        print(repr(time.monotonic()))
        return 0

    names = benchmark_metrics(bool(args.trace))
    setup = [] if args.trace else [setup_probe(args) for _ in range(SETUP_PROBES)]
    probe = SpeedProbe()
    tracer = Tracer(probe.work_clock) if args.trace else None
    if tracer is not None:
        tracer.trace_id = "setup"
        tracer.wrap(instances, "gen_random", "instances.gen")
    try:
        farms = farmlib.make_farms(args.workload, args.seed, args.tiny)
    finally:
        if tracer is not None:
            tracer.remove()
    with probe.running():
        loop = closed_loop(farms, args.seconds, tracer, probe.work_clock)
    if tracer is None:
        metrics = end_to_end(loop, setup, probe)
    else:
        metrics = per_layer(loop, tracer, farms, probe)
        out = HERE / "out" / f"trace-{args.workload}-{args.seed}.json"
        out.parent.mkdir(exist_ok=True)
        out.write_text(json.dumps(tracer.to_json()))

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(farms)} farms, {loop.attempted} plans attempted, "
          f"{loop.failed} failed")
    for failure in loop.failures:
        print(f"FAILED {failure}")
    for name, value in metrics.items():
        print(f"  {name:<26} {value!r} {UNITS[name]}")
    print("fields " + json.dumps({
        "makespans": [f["makespan"] for f in loop.first],
        "plans_sha256": loop.fingerprint.hexdigest(),
    }))
    correct = loop.failed == 0
    missing = [n for n in names if n not in metrics]
    if correct and missing:
        raise RuntimeError(f"metrics not computed: {missing}")
    print(json.dumps({
        "correct": correct,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {n: {"value": metrics.get(n, 0.0), "unit": UNITS[n]}
                    for n in names},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

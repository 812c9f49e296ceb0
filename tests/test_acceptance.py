"""Acceptance gate: one test per advertised guarantee of the package.

Each test records a single PASS or FAIL line, echoed as a checklist in
the terminal summary (see conftest), and then asserts.  The checklist
covers the core promises: heuristic optimality on small instances,
edge-cost correctness, battery safety, baseline dominance,
battery-capacity trends, flight-mode limits, Dubins geometry,
deterministic serialization, and large-instance performance.
"""

import math
import random
import time

import numpy as np

from conftest import ACCEPTANCE_LINES
from oracle18 import oracle_edge_cost

from airmule import (Cell, FlightMode, Infeasible, LegKind, PlannerConfig,
                     Pose, Site, SolverParams, baseline_plan, build_instance,
                     decode, dubins_shortest, euclid, gen_random,
                     parse_instance, parse_plan, render_svg_str,
                     serialize_instance, serialize_plan, solve_exact,
                     solve_glns, validate)
from airmule.graph import EdgeType, Vertex


def _verdict(num: int, name: str, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


def _violations(plan, cells, cfg):
    return [i for i in validate(plan, cells, cfg) if i.severity == "violation"]


def _mixed_config(rng: random.Random) -> PlannerConfig:
    return PlannerConfig(
        d_max=rng.choice([60.0, 80.0, 100.0]),
        battery_levels=rng.randint(3, 5),
        fixed_wing_ratio=rng.choice([1.5, 3.0]),
        fixed_wing_speed=rng.choice([1.0, 2.0]),
        ugv_speed_ratio=rng.choice([0.25, 0.5, 1.0]),
        turn_radius=rng.choice([0.5, 1.5]),
    )


def test_heuristic_matches_exact_on_small_instances():
    t0 = time.perf_counter()
    matches = 0
    below = 0
    done = 0
    seed = 0
    while done < 25:
        seed += 1
        rng = random.Random(1000 + seed)
        n = rng.randint(3, 6)
        cfg = _mixed_config(rng)
        cells = gen_random(n, 35.0, 8.0, seed=7000 + seed,
                           road_fraction=rng.choice([0.6, 0.8, 1.0]))
        g = build_instance(cells, cfg)
        try:
            opt = solve_exact(g)
        except Infeasible:
            continue
        heur = solve_glns(g, SolverParams(mode="default", time_budget=60.0,
                                          restarts=3, rng_seed=seed))
        done += 1
        if heur.cost < opt.cost - 1e-9:
            below += 1
        elif heur.cost <= opt.cost + 1e-9:
            matches += 1
    elapsed = time.perf_counter() - t0
    ok = matches >= 23 and below == 0 and elapsed < 180.0
    _verdict(1, "heuristic-matches-exact", ok,
             f"{matches}/25 exact matches, {below} below exact, "
             f"{elapsed:.1f}s of 180s")


def test_edge_costs_match_independent_oracle():
    rng = random.Random(2024)
    checked = 0
    mismatches = 0
    while checked < 10_000:
        cfg = _mixed_config(rng)
        n = rng.randint(3, 5)
        cells = gen_random(n, 30.0, 8.0, seed=2000 + checked,
                           road_fraction=rng.choice([0.7, 1.0]))
        g = build_instance(cells, cfg)
        for _ in range(500):
            ci, cj = rng.sample(range(n), 2)
            u = Vertex(ci, rng.choice("AB"), rng.randint(1, cfg.battery_levels))
            v = Vertex(cj, rng.choice("AB"), rng.randint(1, cfg.battery_levels))
            uid = g.vertex_id(ci, u.entry_end, u.level)
            vid = g.vertex_id(cj, v.entry_end, v.level)
            expect_cost, expect_idx = oracle_edge_cost(u, v, cells, cfg)
            got = float(g.cost[uid, vid])
            bt = int(g.best_type[uid, vid])
            if math.isinf(expect_cost):
                if not math.isinf(got) or bt != -1:
                    mismatches += 1
            elif got != expect_cost or bt < 0:
                mismatches += 1
            else:
                realized = g.typed(uid, vid, EdgeType(bt))
                if realized is None or realized.cost != got:
                    mismatches += 1
            checked += 1
            if checked == 10_000:
                break
    ok = mismatches == 0
    _verdict(2, "edge-cost-oracle", ok,
             f"{checked} vertex pairs, {mismatches} mismatches")


def test_decoded_plans_have_zero_violations():
    rng = random.Random(33)
    decoded = 0
    bad = 0
    seed = 0
    while decoded < 200:
        seed += 1
        n = rng.randint(3, 5)
        cfg = PlannerConfig(
            d_max=rng.choice([60.0, 90.0]),
            battery_levels=rng.randint(3, 5),
            fixed_wing_ratio=rng.choice([1.5, 3.0]),
            fixed_wing_speed=rng.choice([1.0, 2.0]),
            ugv_speed_ratio=rng.choice([0.3, 1.0]),
            turn_radius=rng.choice([0.5, 1.5]),
        )
        cells = gen_random(n, 30.0, 8.0, seed=3000 + seed,
                           road_fraction=rng.choice([0.7, 1.0]))
        g = build_instance(cells, cfg)
        try:
            tour = solve_exact(g)
        except Infeasible:
            continue
        plan = decode(g, tour, cfg)
        decoded += 1
        bad += len(_violations(plan, cells, cfg))
    ok = decoded == 200 and bad == 0
    _verdict(3, "battery-safety", ok,
             f"{decoded} decoded plans, {bad} validation violations")


def test_planned_cost_never_exceeds_baseline():
    cfg = PlannerConfig(d_max=200.0, battery_levels=20)
    wins = 0
    improvements = []
    for seed in range(10):
        cells = gen_random(15, 100.0, 10.0, seed=400 + seed)
        g = build_instance(cells, cfg)
        tour = solve_glns(g, SolverParams(time_budget=120.0, restarts=3,
                                          rng_seed=seed))
        base = baseline_plan(cells, cfg)
        improvements.append((base.total_time - tour.cost) / base.total_time)
        if tour.cost <= base.total_time + 1e-9:
            wins += 1
    mean_imp = sum(improvements) / len(improvements)
    ok = wins == 10
    _verdict(4, "beats-baseline", ok,
             f"{wins}/10 at or below baseline, mean improvement "
             f"{100 * mean_imp:.1f}%")


def _recharge_count(plan) -> int:
    return sum(1 for leg in plan.uav_legs
               if leg.kind in (LegKind.RECHARGE_IN_PLACE,
                               LegKind.RIDE_AND_RECHARGE))


def test_cost_non_increasing_in_battery_range():
    d_values = [10.0, 20.0, 30.0, 40.0, 50.0]
    monotone = 0
    for seed in range(5):
        cells = gen_random(4, 20.0, 6.0, seed=500 + seed)
        costs = []
        for d_max in d_values:
            cfg = PlannerConfig(d_max=d_max, battery_levels=10)
            tour = solve_exact(build_instance(cells, cfg))
            costs.append(tour.cost)
        if all(b <= a + 1e-9 for a, b in zip(costs, costs[1:])):
            monotone += 1

    # Two short strips with a gap: at small d_max the transit forces a
    # recharge; once the budget covers cover+transit+cover the recharge
    # disappears and the cost drops by more than the saved recharge time.
    # Fixed-wing mode is pinned to no range or speed advantage so the
    # battery budget alone decides where the step lands.
    cells = [Cell(0, Site(0, 0.0, 0.0), Site(1, 5.0, 0.0)),
             Cell(1, Site(2, 15.0, 0.0), Site(3, 20.0, 0.0))]
    costs = []
    recharges = []
    for d_max in d_values:
        cfg = PlannerConfig(d_max=d_max, battery_levels=10,
                            fixed_wing_ratio=1.0, fixed_wing_speed=1.0)
        g = build_instance(cells, cfg)
        tour = solve_exact(g)
        plan = decode(g, tour, cfg)
        costs.append(plan.total_time)
        recharges.append(_recharge_count(plan))
    step = any(recharges[i] > recharges[i + 1]
               and costs[i + 1] < costs[i] - 1e-9
               for i in range(len(d_values) - 1))
    ok = monotone == 5 and step
    _verdict(5, "dmax-monotone", ok,
             f"{monotone}/5 non-increasing sweeps, recharge-drop step="
             f"{step} (counts {recharges})")


def test_flight_mode_limits():
    fw_legs = 0
    for seed in range(10):
        cfg = PlannerConfig(d_max=90.0, battery_levels=4,
                            fixed_wing_ratio=0.5, fixed_wing_speed=1.0)
        cells = gen_random(4, 30.0, 7.0, seed=600 + seed)
        g = build_instance(cells, cfg)
        for tour in (solve_exact(g),
                     solve_glns(g, SolverParams(rng_seed=seed))):
            plan = decode(g, tour, cfg)
            fw_legs += sum(1 for leg in plan.uav_legs
                           if leg.mode is FlightMode.FIXED_WING)

    waypoints = 0
    for seed in range(10):
        cfg = PlannerConfig(d_max=1e6, battery_levels=20)
        cells = gen_random(4, 30.0, 7.0, seed=650 + seed)
        g = build_instance(cells, cfg)
        plan = decode(g, solve_exact(g), cfg)
        waypoints += len(plan.ugv_waypoints)
    ok = fw_legs == 0 and waypoints == 0
    _verdict(6, "flight-mode-limits", ok,
             f"slow-wide-wing fixed-wing legs={fw_legs}, "
             f"huge-battery UGV waypoints={waypoints}")


def _chord_length(start: Pose, word: str, segs, radius: float,
                  samples: int = 4096) -> float:
    """Path length by fine chord sampling; independent of the formulas."""
    x, y = start.position
    heading = start.heading
    total = 0.0
    for seg, length in zip(word, segs):
        if length <= 0.0:
            continue
        ts = np.linspace(0.0, length, samples + 1)
        if seg == "S":
            xs = x + ts * math.cos(heading)
            ys = y + ts * math.sin(heading)
        else:
            sign = 1.0 if seg == "L" else -1.0
            cx = x + radius * math.cos(heading + sign * math.pi / 2)
            cy = y + radius * math.sin(heading + sign * math.pi / 2)
            phi0 = math.atan2(y - cy, x - cx)
            phis = phi0 + sign * ts / radius
            xs = cx + radius * np.cos(phis)
            ys = cy + radius * np.sin(phis)
            heading += sign * length / radius
        total += float(np.hypot(np.diff(xs), np.diff(ys)).sum())
        x, y = float(xs[-1]), float(ys[-1])
    return total


def test_dubins_lengths():
    rng = random.Random(77)
    worst_rel = 0.0
    below_euclid = 0
    for _ in range(1000):
        start = Pose((rng.uniform(-20, 20), rng.uniform(-20, 20)),
                     rng.uniform(0, 2 * math.pi))
        goal = Pose((rng.uniform(-20, 20), rng.uniform(-20, 20)),
                    rng.uniform(0, 2 * math.pi))
        radius = rng.choice([0.5, 1.0, 3.0])
        path = dubins_shortest(start, goal, radius)
        if path.total_length < euclid(start, goal) - 1e-9:
            below_euclid += 1
        sampled = _chord_length(start, path.word, path.segment_lengths, radius)
        rel = abs(path.total_length - sampled) / max(path.total_length, 1e-12)
        worst_rel = max(worst_rel, rel)

    collinear_bad = 0
    for _ in range(200):
        x, y = rng.uniform(-20, 20), rng.uniform(-20, 20)
        theta = rng.uniform(0, 2 * math.pi)
        dist = rng.uniform(0.0, 30.0)
        start = Pose((x, y), theta)
        goal = Pose((x + dist * math.cos(theta), y + dist * math.sin(theta)),
                    theta)
        path = dubins_shortest(start, goal, rng.choice([0.5, 1.0, 3.0]))
        if not math.isclose(path.total_length, dist,
                            rel_tol=1e-9, abs_tol=1e-9):
            collinear_bad += 1
    ok = below_euclid == 0 and worst_rel <= 1e-6 and collinear_bad == 0
    _verdict(7, "dubins-geometry", ok,
             f"worst sampling error {worst_rel:.2e}, {below_euclid} below "
             f"euclid, {collinear_bad} collinear mismatches")


def test_determinism_and_round_trip():
    cfg = PlannerConfig(d_max=80.0, battery_levels=6, ugv_speed_ratio=0.4)

    def produce():
        cells = gen_random(5, 30.0, 8.0, seed=808)
        g = build_instance(cells, cfg)
        tour = solve_glns(g, SolverParams(rng_seed=8))
        plan = decode(g, tour, cfg)
        return (serialize_instance(cells, cfg), serialize_plan(plan),
                render_svg_str(cells, plan, cfg), cells, plan)

    inst_a, plan_a, svg_a, cells, plan = produce()
    inst_b, plan_b, svg_b, _, _ = produce()
    identical = inst_a == inst_b and plan_a == plan_b and svg_a == svg_b

    cells_rt, cfg_rt = parse_instance(inst_a)
    lossless = (cells_rt == cells and cfg_rt == cfg
                and parse_plan(plan_a) == plan)
    ok = identical and lossless
    _verdict(8, "determinism-round-trip", ok,
             f"byte-identical={identical}, lossless round-trip={lossless}")


def test_large_instance_within_budget():
    cfg = PlannerConfig(d_max=400.0, battery_levels=20, ugv_speed_ratio=0.3)
    cells = gen_random(50, 100.0, 10.0, seed=90)
    g = build_instance(cells, cfg)
    t0 = time.perf_counter()
    tour = solve_glns(g, SolverParams(time_budget=600.0, restarts=3,
                                      rng_seed=9))
    elapsed = time.perf_counter() - t0
    plan = decode(g, tour, cfg)
    bad = len(_violations(plan, cells, cfg))
    ok = elapsed < 600.0 and bad == 0 and math.isfinite(plan.total_time)
    _verdict(9, "large-instance-smoke", ok,
             f"50 cells solved in {elapsed:.1f}s of 600s, cost "
             f"{plan.total_time:.1f}, {bad} violations")

"""Plan decoding, validation and baseline tests."""

import hashlib
import math
import random
import tracemalloc

import pytest

from airmule.energy import PlannerConfig
from airmule.errors import Infeasible
from airmule.geometry import Cell, FlightMode, Site
from airmule.graph import EdgeType, build_instance
from airmule.instances import gen_random, serialize_plan
from airmule.plan import (Leg, LegKind, Plan, UgvWaypoint, _Builder,
                          baseline_plan, decode, validate)
from airmule.solver import GtspTour, SolverParams, solve_exact, solve_glns, tour_cost


def two_cells():
    return [
        Cell(0, Site(0, 0.0, 0.0), Site(1, 10.0, 0.0)),
        Cell(1, Site(2, 20.0, 0.0), Site(3, 30.0, 0.0)),
    ]


def test_decode_ride_edge_expansion():
    """A tight battery and slow fixed wing make the ride option win; its
    expansion is fly, land, ride-and-recharge, take off."""
    cells = two_cells()
    cfg = PlannerConfig(d_max=11.0, battery_levels=20, ugv_speed_ratio=0.2,
                        fixed_wing_speed=0.1)
    g = build_instance(cells, cfg)
    u = g.vertex_id(0, "A", 20)
    v = g.vertex_id(1, "A", 20)
    assert g.best_type[u, v] == EdgeType.M_DTU.value
    assert float(g.cost[u, v]) == 110.0

    tour = GtspTour((0, u, v), 0.0)
    tour = GtspTour(tour.vertices, tour_cost(g, tour))
    plan = decode(g, tour, cfg)

    kinds = [leg.kind for leg in plan.uav_legs]
    assert kinds == [LegKind.FLY, LegKind.LAND, LegKind.RIDE_AND_RECHARGE,
                     LegKind.TAKE_OFF, LegKind.FLY]
    assert [leg.duration for leg in plan.uav_legs] == [10.0, 45.0, 50.0, 5.0, 10.0]
    assert plan.total_time == tour.cost == 120.0

    assert len(plan.ugv_waypoints) == 2
    pick, drop = plan.ugv_waypoints
    assert pick.site.id == 1 and not pick.via_ride
    assert pick.arrive_by == 10.0 and pick.depart_at == 55.0
    assert drop.site.id == 2 and drop.via_ride
    assert drop.arrive_by == 105.0 and drop.depart_at == 110.0

    assert not validate(plan, cells, cfg)


def test_decode_stop_edge_waypoints():
    cells = two_cells()
    cfg = PlannerConfig(d_max=100.0, battery_levels=20, fixed_wing_speed=0.1)
    g = build_instance(cells, cfg)
    u = g.vertex_id(0, "A", 20)
    v = g.vertex_id(1, "A", 20)
    assert g.best_type[u, v] == EdgeType.M_MDU.value
    tour = GtspTour((0, u, v), 0.0)
    tour = GtspTour(tour.vertices, tour_cost(g, tour))
    plan = decode(g, tour, cfg)
    kinds = [leg.kind for leg in plan.uav_legs]
    assert kinds == [LegKind.FLY, LegKind.FLY, LegKind.LAND,
                     LegKind.RECHARGE_IN_PLACE, LegKind.TAKE_OFF, LegKind.FLY]
    assert len(plan.ugv_waypoints) == 1
    wp = plan.ugv_waypoints[0]
    assert wp.site.id == 2
    assert wp.arrive_by == 20.0  # lands right after the two flights
    assert wp.depart_at == plan.total_time - 10.0  # leaves after take-off
    assert not validate(plan, cells, cfg)


def test_decode_rejects_infeasible_tour():
    cells = two_cells()
    cfg = PlannerConfig(d_max=100.0, battery_levels=20)
    g = build_instance(cells, cfg)
    bad = GtspTour((0, g.vertex_id(0, "A", 3), g.vertex_id(1, "A", 20)), 0.0)
    with pytest.raises(ValueError):
        decode(g, bad, cfg)  # depot must leave at full battery


def test_decode_rejects_missing_cluster():
    cells = two_cells()
    cfg = PlannerConfig(d_max=100.0, battery_levels=20)
    g = build_instance(cells, cfg)
    with pytest.raises(ValueError):
        decode(g, GtspTour((0, g.vertex_id(0, "A", 20)), 0.0), cfg)
    with pytest.raises(ValueError):
        decode(g, GtspTour((g.vertex_id(0, "A", 20),
                            g.vertex_id(1, "A", 20)), 0.0), cfg)


def test_decode_rejects_repeated_cluster():
    # (0, a, b, a') covers cell 0 twice and never cell 2 over feasible
    # edges, so only the one-vertex-per-cluster check can refuse it.
    cells = two_cells() + [Cell(2, Site(4, 40.0, 0.0), Site(5, 50.0, 0.0))]
    cfg = PlannerConfig(d_max=100.0, battery_levels=20)
    g = build_instance(cells, cfg)
    a = g.vertex_id(0, "A", 20)
    b = next(v for v in (g.vertex_id(1, "A", k) for k in range(20, 0, -1))
             if math.isfinite(g.cost[a, v]))
    a2 = next(v for v in (g.vertex_id(0, "B", k) for k in range(20, 0, -1))
              if math.isfinite(g.cost[b, v]) and math.isfinite(g.cost[v, 0]))
    tour = GtspTour((0, a, b, a2), 0.0)
    assert math.isfinite(tour_cost(g, tour))
    with pytest.raises(ValueError, match="exactly once"):
        decode(g, tour, cfg)


def test_decode_rejects_vertex_ids_out_of_range():
    # A negative id must not wrap around to the last vertex.
    cells = two_cells()[:1]
    cfg = PlannerConfig(d_max=100.0, battery_levels=1)
    g = build_instance(cells, cfg)
    for bad in (-1, len(g.cost)):
        with pytest.raises(ValueError, match="out of range"):
            decode(g, GtspTour((0, bad), 0.0), cfg)


def test_decode_total_time_equals_tour_cost_seeded():
    rng = random.Random(31)
    for trial in range(12):
        cfg = PlannerConfig(d_max=rng.choice([40.0, 70.0]),
                            battery_levels=rng.choice([3, 4]),
                            fixed_wing_ratio=rng.choice([1.5, 3.0]),
                            turn_radius=rng.choice([0.5, 1.5]),
                            ugv_speed_ratio=rng.choice([0.3, 1.0]),
                            fixed_wing_speed=rng.choice([1.0, 2.0]))
        cells = gen_random(rng.randint(2, 4), 28.0, 8.0, seed=trial,
                           road_fraction=rng.choice([0.8, 1.0]))
        g = build_instance(cells, cfg)
        try:
            tour = solve_exact(g)
        except Infeasible:
            continue
        plan = decode(g, tour, cfg)
        assert plan.total_time == tour.cost
        assert not [i for i in validate(plan, cells, cfg)
                    if i.severity == "violation"]
        assert sorted(index for index, _ in plan.cell_order) == \
            list(range(len(cells)))


def test_decode_rotates_depot_first():
    cells = two_cells()
    cfg = PlannerConfig(d_max=100.0, battery_levels=20)
    g = build_instance(cells, cfg)
    u = g.vertex_id(0, "A", 20)
    v = g.vertex_id(1, "A", 16)
    rotated = GtspTour((v, 0, u), 0.0)
    rotated = GtspTour(rotated.vertices, tour_cost(g, rotated))
    plan = decode(g, rotated, cfg)
    assert plan.cell_order[0][0] == 0


def test_decoded_plans_pinned():
    # sha256 of the serialized plans, recorded before decode and the edge
    # breakdown moved onto the build's templates; any change to a leg's
    # duration, battery levels, headings or the UGV schedule shows up here.
    cases = [
        # Tight battery, off-road ends: the tour rides the UGV once and
        # stops to recharge once.
        (gen_random(5, 40.0, 8.0, seed=0, road_fraction=0.7),
         PlannerConfig(d_max=30.0, battery_levels=4, ugv_speed_ratio=1.0),
         "e27ecf000fee582321a4d366dd80ca64bae1524517e76c86249857742336b82f",
         solve_exact),
        # Fast fixed wing: the closing leg flies fixed-wing.
        (gen_random(4, 40.0, 8.0, seed=0),
         PlannerConfig(d_max=80.0, battery_levels=4, fixed_wing_speed=2.0),
         "cf2e03d76ae50bc0001b1073cbe34aa314c64d90822d3c08f045098d4812e98e",
         solve_exact),
        # Equal speeds: both modes can close and tie on time; multi-rotor wins.
        (gen_random(4, 40.0, 8.0, seed=0),
         PlannerConfig(d_max=80.0, battery_levels=4, fixed_wing_speed=1.0),
         "6a5a79e727263a262223e17bd58870a0327e34f0d9d4d230da3c30f997ad761d",
         solve_exact),
        # A GLNS tour that rides once, stops at an exit and at an entry, and
        # closes fixed-wing: every branch of decode in one plan.
        (gen_random(8, 40.0, 8.0, seed=2, road_fraction=0.6),
         PlannerConfig(d_max=30.0, battery_levels=4, ugv_speed_ratio=1.0,
                       fixed_wing_speed=2.0),
         "76dcc019a69c5e58d60ffdd486e89367b7df4abfdd629e9bdc8e0e7b78ef5720",
         lambda g: solve_glns(g, SolverParams(mode="fast", restarts=1,
                                              rng_seed=1))),
    ]
    for cells, cfg, digest, solve in cases:
        g = build_instance(cells, cfg)
        plan = decode(g, solve(g), cfg)
        text = serialize_plan(plan)
        assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("fw_speed,faster", [
    (0.5, EdgeType.M_M), (1.0, EdgeType.M_M), (2.0, EdgeType.F_F)])
def test_closing_mode_stored_and_decoded(fw_speed, faster):
    # A 10 m pass costs 4 levels multi-rotor and 2 levels fixed-wing.
    cells = two_cells()
    cfg = PlannerConfig(d_max=25.0, battery_levels=10, fixed_wing_ratio=2.0,
                        fixed_wing_speed=fw_speed)
    g = build_instance(cells, cfg)
    for level in range(1, 11):
        code = int(g.best_type[g.vertex_id(1, "A", level), 0])
        if level < 2:
            assert code == -1
        elif level < 4:
            assert code == EdgeType.F_F.value
        else:
            # the faster mode; multi-rotor on a tie
            assert code == faster.value

    u = g.vertex_id(0, "A", 10)
    v = g.vertex_id(1, "A", 10)
    assert math.isfinite(float(g.cost[u, v]))
    tour = GtspTour((0, u, v), 0.0)
    tour = GtspTour(tour.vertices, tour_cost(g, tour))
    # decode types the closing edge itself, by the rule of column 0: at a
    # full battery it flies the faster mode and spends that mode's levels
    last = decode(g, tour, cfg).uav_legs[-1]
    assert last.mode is faster.cover_mode
    assert last.battery_before - last.battery_after == (
        4 if faster is EdgeType.M_M else 2)
    assert last.duration == float(g.cost[v, 0])
    assert g.edge_costs([v], [0])[1].tolist() == [faster.value]


@pytest.mark.parametrize("solve", [
    solve_exact,
    lambda g: solve_glns(g, SolverParams(mode="fast", restarts=2, rng_seed=1)),
], ids=["exact", "glns"])
def test_plan_run_never_types_the_matrix(solve):
    # best_type takes 2 bytes per vertex pair and reruns the templates; a
    # plan run types only its own tour edges and never reads it.
    cells = gen_random(6, 40.0, 8.0, seed=4, road_fraction=0.7)
    cfg = PlannerConfig(d_max=40.0, battery_levels=6, ugv_speed_ratio=0.3)
    g = build_instance(cells, cfg)
    plan = decode(g, solve(g), cfg)
    assert not [i for i in validate(plan, cells, cfg)
                if i.severity == "violation"]
    assert "best_type" not in vars(g)


def test_glns_plan_holds_one_vertex_matrix():
    # A GLNS plan holds one V x V array, the search's penalized transpose:
    # the build allocates no dense matrix, and build, search and decode
    # together peak well below two matrices.  A later read of g.cost on
    # this path would show here.
    cells = gen_random(30, 100.0, 10.0, seed=3)
    cfg = PlannerConfig(d_max=400.0, battery_levels=20)
    matrix = (1 + 2 * 30 * 20) ** 2 * 8
    tracemalloc.start()
    try:
        g = build_instance(cells, cfg)
        build_peak = tracemalloc.get_traced_memory()[1]
        tour = solve_glns(g, SolverParams(mode="fast", restarts=1))
        decode(g, tour, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert build_peak < matrix / 4
    assert peak < 1.25 * matrix
    assert "cost" not in vars(g)


def make_leg(kind=LegKind.FLY, start=None, end=None, duration=1.0,
             before=5, after=5, **kw):
    start = start or Site(0, 0.0, 0.0)
    end = end or Site(1, 1.0, 0.0)
    return Leg(kind, start, end, duration, before, after, **kw)


def plan_of(legs, total=None, waypoints=()):
    total = sum(l.duration for l in legs) if total is None else total
    return Plan(((0, "A"),), tuple(legs), tuple(waypoints), total,
                (("start", 5),))


def test_validate_flags_battery_range():
    cfg = PlannerConfig(battery_levels=5)
    cells = [Cell(0, Site(0, 0.0, 0.0), Site(1, 1.0, 0.0))]
    legs = [make_leg(covers_cell=0, mode=FlightMode.MULTI_ROTOR, after=-1)]
    issues = validate(plan_of(legs), cells, cfg)
    assert [i.code for i in issues] == ["battery-range"]


def test_validate_flags_coverage():
    cfg = PlannerConfig(battery_levels=5)
    cells = [Cell(0, Site(0, 0.0, 0.0), Site(1, 1.0, 0.0)),
             Cell(1, Site(2, 2.0, 0.0), Site(3, 3.0, 0.0))]
    legs = [make_leg(covers_cell=0, mode=FlightMode.MULTI_ROTOR),
            make_leg(covers_cell=0, mode=FlightMode.MULTI_ROTOR)]
    codes = sorted(i.code for i in validate(plan_of(legs), cells, cfg))
    assert codes == ["cell-recovered", "cell-uncovered"]


def test_validate_flags_off_road_recharge():
    cfg = PlannerConfig(battery_levels=5)
    off = Site(0, 0.0, 0.0, on_road=False)
    cells = [Cell(0, off, Site(1, 1.0, 0.0))]
    legs = [make_leg(covers_cell=0, mode=FlightMode.MULTI_ROTOR),
            make_leg(kind=LegKind.RECHARGE_IN_PLACE, start=off, end=off,
                     levels=1)]
    codes = [i.code for i in validate(plan_of(legs), cells, cfg)]
    assert codes == ["recharge-off-road"]


def test_validate_flags_time_mismatch():
    cfg = PlannerConfig(battery_levels=5)
    cells = [Cell(0, Site(0, 0.0, 0.0), Site(1, 1.0, 0.0))]
    legs = [make_leg(covers_cell=0, mode=FlightMode.MULTI_ROTOR)]
    issues = validate(plan_of(legs, total=99.0), cells, cfg)
    assert [i.code for i in issues] == ["time-mismatch"]


def test_validate_warns_late_ugv():
    cfg = PlannerConfig(battery_levels=5, ugv_speed_ratio=0.1)
    cells = [Cell(0, Site(0, 0.0, 0.0), Site(1, 1.0, 0.0))]
    legs = [make_leg(covers_cell=0, mode=FlightMode.MULTI_ROTOR)]
    wps = (UgvWaypoint(Site(0, 0.0, 0.0), 0.0, 0.0),
           UgvWaypoint(Site(9, 100.0, 0.0), 1.0, 1.0))
    issues = validate(plan_of(legs, waypoints=wps), cells, cfg)
    assert [i.severity for i in issues] == ["warning"]
    assert issues[0].wait == pytest.approx(999.0)


def test_validate_fast_ugv_never_late_seeded():
    """With the UGV as fast as the UAV every rendezvous is met."""
    rng = random.Random(77)
    checked = 0
    for trial in range(10):
        cfg = PlannerConfig(d_max=rng.choice([25.0, 45.0]),
                            battery_levels=3, ugv_speed_ratio=1.0,
                            fixed_wing_speed=1.0)
        cells = gen_random(3, 22.0, 7.0, seed=400 + trial)
        g = build_instance(cells, cfg)
        try:
            tour = solve_exact(g)
        except Infeasible:
            continue
        plan = decode(g, tour, cfg)
        issues = validate(plan, cells, cfg)
        assert not issues
        checked += 1
    assert checked >= 5


def test_builder_merges_consecutive_same_site_stops():
    b = _Builder(5)
    site = Site(0, 0.0, 0.0)
    b.add_waypoint(site, 1.0, 2.0)
    b.add_waypoint(site, 3.0, 4.0)
    assert len(b.waypoints) == 1
    assert b.waypoints[0].arrive_by == 1.0
    assert b.waypoints[0].depart_at == 4.0
    # ride hops never merge
    b.add_waypoint(site, 5.0, 6.0, via_ride=True)
    assert len(b.waypoints) == 2


def test_baseline_simple_route():
    cells = two_cells()
    cfg = PlannerConfig(d_max=100.0, battery_levels=20)
    plan = baseline_plan(cells, cfg)
    assert plan.cell_order == ((0, "A"), (1, "A"))
    assert plan.total_time == 30.0
    assert all(leg.mode is FlightMode.MULTI_ROTOR
               for leg in plan.uav_legs if leg.kind is LegKind.FLY)
    assert not [i for i in validate(plan, cells, cfg)
                if i.severity == "violation"]


def test_baseline_inserts_recharge():
    cells = two_cells()
    # 30 units of flying at 2 levels per 10 units exceeds 4 levels
    cfg = PlannerConfig(d_max=30.0, battery_levels=4)
    plan = baseline_plan(cells, cfg)
    kinds = [leg.kind for leg in plan.uav_legs]
    assert LegKind.RECHARGE_IN_PLACE in kinds
    assert len(plan.ugv_waypoints) == 1
    assert not [i for i in validate(plan, cells, cfg)
                if i.severity == "violation"]
    # recharge happens at cell 0's exit, before the transit leg
    assert kinds.index(LegKind.RECHARGE_IN_PLACE) < kinds.index(LegKind.FLY) + 3


def test_baseline_nearest_end_entry():
    cells = [
        Cell(0, Site(0, 0.0, 0.0), Site(1, 10.0, 0.0)),
        Cell(1, Site(2, 30.0, 0.0), Site(3, 12.0, 0.0)),
    ]
    cfg = PlannerConfig(d_max=200.0, battery_levels=20)
    plan = baseline_plan(cells, cfg)
    # end B of cell 1 is nearer to cell 0's exit
    assert plan.cell_order == ((0, "A"), (1, "B"))


def test_baseline_infeasible_cell_too_long():
    cells = [Cell(0, Site(0, 0.0, 0.0), Site(1, 100.0, 0.0))]
    cfg = PlannerConfig(d_max=50.0, battery_levels=5)
    with pytest.raises(Infeasible):
        baseline_plan(cells, cfg)


def test_baseline_infeasible_off_road_stop():
    cells = [
        Cell(0, Site(0, 0.0, 0.0), Site(1, 10.0, 0.0, on_road=False)),
        Cell(1, Site(2, 20.0, 0.0), Site(3, 30.0, 0.0)),
    ]
    cfg = PlannerConfig(d_max=30.0, battery_levels=4)
    with pytest.raises(Infeasible):
        baseline_plan(cells, cfg)


def test_baseline_never_beats_optimal_seeded():
    rng = random.Random(41)
    compared = 0
    for trial in range(8):
        cfg = PlannerConfig(d_max=rng.choice([60.0, 120.0]),
                            battery_levels=4,
                            ugv_speed_ratio=0.4)
        cells = gen_random(rng.randint(2, 4), 30.0, 8.0, seed=600 + trial)
        g = build_instance(cells, cfg)
        try:
            tour = solve_exact(g)
            base = baseline_plan(cells, cfg)
        except Infeasible:
            continue
        assert tour.cost <= base.total_time + 1e-9
        compared += 1
    assert compared >= 4

"""Properties of the whole pipeline on small random farms: exact plans
are valid and cost what the solver says, GLNS never beats the exact
optimum, a plan's JSON round-trips unchanged, and decode types its edges
as the matrix of best types does."""

import math
import random
from dataclasses import replace

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from airmule.energy import PlannerConfig
from airmule.errors import Infeasible, NoFeasibleTour
from airmule.graph import EdgeType, build_instance
from airmule.instances import gen_random, parse_plan, serialize_plan
from airmule.plan import decode, validate
from airmule.solver import SolverParams, solve_exact, solve_glns, tour_cost

_SETTINGS = settings(max_examples=40, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


@st.composite
def farms(draw):
    """(cells, config) of 2-6 cells, 1-5 battery levels and 50-100% of
    the cell ends on the road."""
    cells = gen_random(draw(st.integers(2, 6)), 60.0, 8.0,
                       seed=draw(st.integers(0, 2**16)),
                       road_fraction=draw(st.floats(0.5, 1.0)))
    cfg = PlannerConfig(d_max=draw(st.sampled_from([60.0, 120.0, 400.0])),
                        battery_levels=draw(st.integers(1, 5)),
                        ugv_speed_ratio=draw(st.sampled_from([0.2, 0.3, 1.0])))
    return cells, cfg


def exact_plan(cells, cfg):
    """(graph, exact tour, decoded plan), or None when infeasible."""
    g = build_instance(cells, cfg)
    try:
        tour = solve_exact(g)
    except Infeasible:
        return None
    return g, tour, decode(g, tour, cfg)


@_SETTINGS
@given(farm=farms())
def test_exact_plan_is_valid(farm):
    cells, cfg = farm
    solved = exact_plan(cells, cfg)
    if solved is None:
        return
    g, tour, plan = solved
    assert not [i for i in validate(plan, cells, cfg)
                if i.severity == "violation"]
    assert plan.total_time == tour.cost
    assert tour_cost(g, tour) == tour.cost


@settings(max_examples=20, deadline=None)
@given(farm=farms(), seed=st.integers(0, 2**16))
def test_glns_never_below_exact(farm, seed):
    cells, cfg = farm
    g = build_instance(cells, cfg)
    params = SolverParams(mode="fast", restarts=1, rng_seed=seed)
    try:
        exact = solve_exact(g).cost
    except Infeasible:
        exact = math.inf
    try:
        heur = solve_glns(g, params).cost
    except NoFeasibleTour:
        assert math.isinf(exact)
        return
    assert heur >= exact


@_SETTINGS
@given(farm=farms())
def test_plan_json_round_trip(farm):
    solved = exact_plan(*farm)
    if solved is None:
        return
    text = serialize_plan(solved[2])
    assert serialize_plan(parse_plan(text)) == text


def tight_farm(n, levels, seed, roads, d_max):
    """A farm whose short battery makes edges stop, ride, stop at both
    ends or fail, next to plain flights."""
    return (gen_random(n, 40.0, 8.0, seed=seed, road_fraction=roads),
            PlannerConfig(d_max=d_max, battery_levels=levels,
                          ugv_speed_ratio=0.3))


def test_tight_farms_reach_every_stop_kind():
    # The farms of the next test, at fixed draws: between them their
    # matrices hold every stop layout and infeasible edges.
    kinds = set()
    for seed, d_max in enumerate((15.0, 25.0, 40.0)):
        cells, cfg = tight_farm(4, 4, seed, 0.7, d_max)
        g = build_instance(cells, cfg)
        kinds.update(EdgeType(code).stops if code >= 0 else "infeasible"
                     for code in np.unique(g.best_type[1:, 1:]))
    assert kinds == {"none", "exit", "entry", "both", "ride", "infeasible"}


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 5), levels=st.integers(1, 6),
       seed=st.integers(0, 2**16), roads=st.floats(0.5, 1.0),
       d_max=st.sampled_from([15.0, 25.0, 40.0]))
def test_breakdown_types_edges_as_best_type(n, levels, seed, roads, d_max):
    # edge_costs picks an edge's type, which typed expands, as decode does
    # for every edge after the departure, the closing one included; both
    # must agree with the matrix of types.
    cells, cfg = tight_farm(n, levels, seed, roads, d_max)
    g = build_instance(cells, cfg)
    rng = random.Random(seed)
    pairs = []
    while len(pairs) < 40:
        u, v = rng.randrange(1, len(g.cost)), rng.randrange(1, len(g.cost))
        if g.vertex(u).cell_index != g.vertex(v).cell_index:
            pairs.append((u, v))
    try:
        tour = solve_exact(g)
    except Infeasible:
        tour = None
    else:
        verts = tour.vertices[tour.vertices.index(0):] \
            + tour.vertices[:tour.vertices.index(0)]
        pairs += list(zip(verts[1:], verts[2:] + verts[:1]))
        last = decode(g, tour, cfg).uav_legs[-1]
    us, vs = zip(*pairs)
    _, codes = g.edge_costs(us, vs)
    for u, v, code in zip(us, vs, codes.tolist()):
        assert code == int(g.best_type[u, v])
        if code == -1:
            assert math.isinf(g.cost[u, v])
        else:
            bd = g.typed(u, v, EdgeType(code))
            assert bd.edge_type.value == code
            assert bd.cost == float(g.cost[u, v])
    if tour is not None:
        assert last.mode is EdgeType(int(g.best_type[verts[-1], 0])).cover_mode


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 5), levels=st.integers(2, 5),
       k=st.sampled_from([2, 4]), seed=st.integers(0, 2**16),
       roads=st.floats(0.5, 1.0), d_max=st.sampled_from([15.0, 25.0, 40.0]))
def test_finer_battery_never_dearer(n, levels, k, seed, roads, d_max):
    # k times the levels at 1/k of the seconds per level keep the time of a
    # full charge, and a plan at C levels flies at kC: a leg costs
    # ceil(k x) <= k ceil(x) levels there.  So the optimum at kC is never
    # dearer, up to the rounding of the recharge times.
    cells, cfg = tight_farm(n, levels, seed, roads, d_max)
    try:
        coarse = solve_exact(build_instance(cells, cfg)).cost
    except Infeasible:
        return
    fine = replace(cfg, battery_levels=k * levels,
                   recharge_rate=cfg.recharge_rate / k)
    finer = solve_exact(build_instance(cells, fine)).cost
    assert finer <= coarse * (1 + 1e-12)

"""Properties of the whole pipeline on small random farms: exact plans
are valid and cost what the solver says, GLNS never beats the exact
optimum, and a plan's JSON round-trips unchanged."""

import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from airmule.energy import PlannerConfig
from airmule.errors import Infeasible, NoFeasibleTour
from airmule.graph import build_instance
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

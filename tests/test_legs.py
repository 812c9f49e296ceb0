"""The array Dubins paths and the farm's legs, bit for bit against the
frozen scalar reference in dubins_reference."""

import ast
import inspect
import math

import dubins_reference as ref
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from airmule import PlannerConfig, decode, gen_random, solve_exact
from airmule import energy, geometry, graph
from airmule.energy import consumption_levels
from airmule.geometry import DUBINS_WORDS, FlightMode, dubins_arrays
from airmule.graph import build_instance

TWO_PI = 2.0 * math.pi


def _bits(values) -> list[str]:
    """Each float's hex form, which tells -0.0 from 0.0 and keeps inf."""
    return [float(v).hex() for v in values]


headings = st.one_of(
    st.floats(-10.0, 10.0).map(ref.mod2pi),
    st.sampled_from([0.0, -0.0, math.nextafter(TWO_PI, 0.0), math.pi]))
coords = st.floats(-1e3, 1e3)


@st.composite
def pose_pairs(draw):
    """((x, y), heading) of a start and a goal, of one of the kinds the
    word formulas treat apart."""
    start = ((draw(coords), draw(coords)), draw(headings))
    (x, y), h = start
    kind = draw(st.sampled_from(["random", "identical", "turn-in-place",
                                 "far", "collinear"]))
    if kind == "random":
        goal = ((draw(coords), draw(coords)), draw(headings))
    elif kind == "identical":
        goal = start
    elif kind == "turn-in-place":
        goal = ((x, y), draw(headings))
    elif kind == "far":
        # d * d overflows at the larger distances, and at 1e308 dx does.
        far = draw(st.sampled_from([1e155, 1e200, 1e300, 1e308]))
        start = ((-far, y), h)
        goal = ((far, y), draw(headings))
    else:
        dist = draw(st.floats(0.0, 1e3))
        goal = ((x + dist * math.cos(h), y + dist * math.sin(h)), h)
    return start, goal


@settings(max_examples=150, deadline=None)
@given(pairs=st.lists(pose_pairs(), min_size=1, max_size=12),
       radius=st.one_of(st.sampled_from([1e-3, 1e3]),
                        st.floats(1e-3, 1e3)))
def test_dubins_arrays_match_the_scalar_reference(pairs, radius):
    poses = [(geometry.Pose(*start), geometry.Pose(*goal))
             for start, goal in pairs]
    columns = [[*s.position, s.heading, *g.position, g.heading]
               for s, g in poses]
    word, segments, total = dubins_arrays(*np.array(columns).T, radius)
    for k, (start, goal) in enumerate(poses):
        want = ref.dubins_shortest(ref.Pose(start.position, start.heading),
                                   ref.Pose(goal.position, goal.heading),
                                   radius)
        assert DUBINS_WORDS[word[k]] == want.word
        assert _bits(segments[:, k]) == _bits(want.segment_lengths)
        assert _bits([total[k]]) == _bits([want.total_length])
        one = geometry.dubins_shortest(start, goal, radius)
        assert one.word == want.word
        assert _bits(one.segment_lengths) == _bits(want.segment_lengths)
        assert _bits([one.total_length]) == _bits([want.total_length])


def test_dubins_arrays_broadcast_and_reject_a_bad_radius():
    word, segments, total = dubins_arrays(0.0, 0.0, np.zeros((2, 3)),
                                          5.0, 1.0, 1.0, 2.0)
    assert word.shape == total.shape == (2, 3)
    assert segments.shape == (3, 2, 3)
    with pytest.raises(ValueError):
        dubins_arrays(0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(2, 12), levels=st.integers(1, 25),
       turn_radius=st.floats(0.5, 40.0), fw_speed=st.floats(1.0, 1.7),
       d_max=st.floats(25.0, 400.0), seed=st.integers(0, 10_000),
       roads=st.sampled_from([0.5, 1.0]))
def test_farm_legs_match_the_per_pair_reference(n, levels, turn_radius,
                                                fw_speed, d_max, seed, roads):
    cfg = PlannerConfig(battery_levels=levels, turn_radius=turn_radius,
                        fixed_wing_speed=fw_speed, d_max=d_max)
    cells = gen_random(n, 60.0, 8.0, seed=seed, road_fraction=roads)
    legs = graph._farm_legs(cells, cfg)
    ends = ("A", "B")
    for i, cell in enumerate(cells):
        want = ((cell.length, ref.consumption_levels(cell.length, False, cfg)),
                (cell.length / fw_speed,
                 ref.consumption_levels(cell.length, True, cfg)))
        assert legs.covers[i] == want
        assert all(type(t) is float and type(c) is int
                   for t, c in legs.covers[i])
        assert legs.headings[i].tolist() == [
            geometry.traversal_heading(cell, e) for e in ends]
        for x, j, y in np.ndindex(2, n, 2):
            got_t = legs.transit_t[:, i, x, j, y]
            got_c = legs.transit_c[:, i, x, j, y].tolist()
            if j == i:
                assert not got_t.any() and not any(got_c)
                continue
            want = ref.pair_legs(cell.other_end(ends[x]), cells[j].end(ends[y]),
                                 float(legs.headings[i, x]),
                                 float(legs.headings[j, y]), cfg)
            assert _bits(got_t) == _bits([t for t, _ in want])
            assert got_c == [c for _, c in want]


@pytest.mark.parametrize("distances", [
    [0.0, 4.999, 5.0, 5.0001, 99.9999999, 100.0, 100.1],
    [1e200, 1e308, math.inf, math.nan, 0.0],
])
def test_consumption_levels_is_one_formula_for_arrays_and_scalars(distances):
    for cfg in (PlannerConfig(d_max=100.0), PlannerConfig(d_max=1e-300),
                PlannerConfig(d_max=1e308)):
        for mode in FlightMode:
            got = consumption_levels(np.array(distances), mode, cfg)
            assert got.dtype == np.int64
            one = [consumption_levels(d, mode, cfg) for d in distances]
            assert all(type(c) is int for c in one)
            fw = mode is FlightMode.FIXED_WING
            assert got.tolist() == one == [
                ref.consumption_levels(d, fw, cfg) for d in distances]


def test_decode_evaluates_no_dubins_path(monkeypatch):
    # A tight farm, so that the tour has fixed-wing transits and stops.
    cfg = PlannerConfig(d_max=30.0, battery_levels=6, ugv_speed_ratio=0.2)
    cells = gen_random(6, 40.0, 8.0, seed=5, road_fraction=0.7)
    g = build_instance(cells, cfg)
    tour = solve_exact(g)
    want = decode(g, tour, cfg)

    def refuse(*args, **kwargs):
        raise AssertionError("decode evaluated a Dubins path")

    for module in (geometry, graph):
        monkeypatch.setattr(module, "dubins_arrays", refuse)
        monkeypatch.setattr(module, "dubins_shortest", refuse)
    assert decode(g, tour, cfg) == want
    assert g.best_type.shape == g.cost.shape


# numpy's transcendental functions need not round as math's do, and
# differ between CPUs; the equality tests above pass on this CPU only,
# while this rule keeps the legs' bytes the same on any CPU.
_NOT_NUMPY = {"sin", "cos", "tan", "arcsin", "arccos", "arctan", "arctan2",
              "hypot", "exp", "log", "power", "sinh", "cosh", "tanh"}


@pytest.mark.parametrize("module", [geometry, graph, energy],
                         ids=lambda m: m.__name__)
def test_legs_take_transcendentals_from_math_only(module):
    tree = ast.parse(inspect.getsource(module))
    used = {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in ("np", "numpy")}
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                and (node.module or "").startswith("numpy")
                for alias in node.names}
    assert not (used | imported) & _NOT_NUMPY

"""Solver tests: exact solver against brute force, heuristic against
exact, determinism and error paths."""

import collections
import functools
import gc
import itertools
import math
import os
import random
import subprocess
import sys
import textwrap
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import held_karp_reference

from airmule.energy import PlannerConfig
from airmule.errors import Infeasible, InstanceTooLarge, NoFeasibleTour
from airmule.geometry import Cell, Site
from airmule.graph import build_instance, cluster_views
from airmule import solver, workers
from airmule.instances import gen_random
from airmule.solver import (_NOISE, BIG, GtspTour, SolverParams, _held_karp,
                            _Insertions, _layered_dp, _Search, solve_exact,
                            solve_glns, tour_cost)


def brute_force(g):
    """Enumerate every cluster order and every vertex choice."""
    best = math.inf
    best_tour = None
    clusters = [cluster_vertices(c, 2 * g.levels)
                for c in range(1, g.n_cells + 1)]
    for order in itertools.permutations(range(len(clusters))):
        for picks in itertools.product(*(clusters[c] for c in order)):
            verts = (0,) + picks
            cost = tour_cost(g, GtspTour(verts, 0.0))
            if cost < best:
                best = cost
                best_tour = verts
    return best, best_tour


def cells_hit(g, tour):
    """The sorted cell indices of a tour's vertices, -1 for the depot."""
    return sorted(g.vertex(v).cell_index for v in tour.vertices)


def small_instance(trial, rng):
    cfg = PlannerConfig(d_max=rng.choice([35.0, 60.0]),
                        battery_levels=rng.choice([2, 3]),
                        fixed_wing_ratio=rng.choice([1.5, 3.0]),
                        turn_radius=1.0,
                        ugv_speed_ratio=rng.choice([0.3, 1.0]),
                        fixed_wing_speed=rng.choice([1.0, 2.0]))
    cells = gen_random(rng.randint(2, 3), 20.0, 6.0, seed=trial,
                       road_fraction=rng.choice([0.7, 1.0]))
    return cells, cfg


def test_exact_matches_brute_force_seeded():
    rng = random.Random(4)
    solved = 0
    for trial in range(10):
        cells, cfg = small_instance(trial, rng)
        g = build_instance(cells, cfg)
        expect, _ = brute_force(g)
        try:
            tour = solve_exact(g)
        except Infeasible:
            assert math.isinf(expect)
            continue
        solved += 1
        assert tour.cost == expect
        assert tour.vertices[0] == 0
        assert tour_cost(g, tour) == tour.cost
        # one vertex per cluster
        assert cells_hit(g, tour) == list(range(-1, g.n_cells))
    assert solved >= 5


def test_exact_table_bound_checked_before_allocation(monkeypatch):
    # 30 clusters of 8 vertices would need 30 * 8 * 2**30 table entries; the
    # bound must refuse them before numpy is asked for any table.
    g = build_instance(gen_random(30, 200.0, 6.0, seed=1),
                       PlannerConfig(d_max=90.0, battery_levels=4))

    def no_table(*args, **kwargs):
        raise AssertionError("table allocated")

    monkeypatch.setattr(np, "full", no_table)
    monkeypatch.setattr(np, "zeros", no_table)
    with pytest.raises(InstanceTooLarge, match="bytes"):
        solve_exact(g)


def test_exact_twelve_clusters():
    # 12 clusters of C=20 levels fit the table bound.  The farm is as in
    # the glns-n20-recharge benchmark: tight battery, 30% off-road ends.
    cells = gen_random(12, 100.0, 10.0, seed=0, road_fraction=0.7)
    g = build_instance(cells, PlannerConfig(d_max=60.0, battery_levels=20,
                                            ugv_speed_ratio=0.2))
    tour = solve_exact(g)
    assert cells_hit(g, tour) == list(range(-1, 12))
    assert tour.cost == tour_cost(g, tour)
    heur = solve_glns(g, SolverParams(mode="fast", restarts=1))
    assert heur.cost >= tour.cost


def test_exact_fourteen_clusters():
    # Two layers of 14 clusters at C=20 fit the table bound (41.4 MB of
    # 64 MiB); the farm is twelve_clusters' recipe with two more cells.
    cells = gen_random(14, 100.0, 10.0, seed=0, road_fraction=0.7)
    g = build_instance(cells, PlannerConfig(d_max=60.0, battery_levels=20,
                                            ugv_speed_ratio=0.2))
    tour = solve_exact(g)
    assert cells_hit(g, tour) == list(range(-1, 14))
    assert tour.cost == tour_cost(g, tour)
    heur = solve_glns(g, SolverParams(mode="fast", restarts=1))
    assert heur.cost >= tour.cost


def test_exact_leaves_no_reference_cycle():
    # Garbage in a cycle waits for the cyclic collector; the exact search
    # holds the cost matrix, which must be freed as soon as it returns.
    # The first solve of a process may leave numpy's own first-call garbage
    # in cycles, so only the second is counted.
    g = build_instance(gen_random(4, 30.0, 6.0, seed=1),
                       PlannerConfig(d_max=90.0, battery_levels=3))
    solve_exact(g)
    gc.collect()
    gc.disable()
    try:
        solve_exact(g)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_exact_infeasible_instance():
    # an isolated off-road pair too far for any battery
    cells = [
        Cell(0, Site(0, 0.0, 0.0, False), Site(1, 5.0, 0.0, False)),
        Cell(1, Site(2, 500.0, 0.0, False), Site(3, 505.0, 0.0, False)),
    ]
    cfg = PlannerConfig(d_max=30.0, battery_levels=3, fixed_wing_ratio=2.0)
    g = build_instance(cells, cfg)
    with pytest.raises(Infeasible):
        solve_exact(g)


def test_tour_cost_infinite_on_bad_edge():
    cells = gen_random(2, 20.0, 6.0, seed=2)
    cfg = PlannerConfig(d_max=40.0, battery_levels=3)
    g = build_instance(cells, cfg)
    # jumping depot -> level 1 vertex is forbidden
    vid = g.vertex_id(0, "A", 1)
    other = g.vertex_id(1, "A", 3)
    assert math.isinf(tour_cost(g, GtspTour((0, vid, other), 0.0)))


def test_tour_cost_refuses_vertex_ids_out_of_range():
    # A negative id must not wrap around to a vertex from the end, and an
    # id past the last vertex is refused the same way.
    cells = gen_random(2, 20.0, 6.0, seed=2)
    g = build_instance(cells, PlannerConfig(d_max=40.0, battery_levels=3))
    assert g.n_vertices == 13
    for bad in (-6, 99):
        with pytest.raises(ValueError, match=f"vertex id {bad} out of range"):
            tour_cost(g, GtspTour((0, bad, 4), 0.0))


def test_glns_matches_exact_seeded():
    rng = random.Random(17)
    matched = 0
    for trial in range(8):
        cells, cfg = small_instance(trial + 50, rng)
        g = build_instance(cells, cfg)
        try:
            exact = solve_exact(g)
        except Infeasible:
            with pytest.raises(NoFeasibleTour):
                solve_glns(g, SolverParams(mode="fast", restarts=1))
            continue
        heur = solve_glns(g, SolverParams(mode="fast", restarts=2,
                                          rng_seed=trial))
        assert heur.cost >= exact.cost - 1e-9
        if heur.cost <= exact.cost + 1e-9:
            matched += 1
    assert matched >= 6


def test_glns_deterministic():
    cells = gen_random(6, 40.0, 8.0, seed=3)
    cfg = PlannerConfig(d_max=80.0, battery_levels=4)
    g = build_instance(cells, cfg)
    params = SolverParams(mode="fast", restarts=2, rng_seed=11)
    a = solve_glns(g, params)
    b = solve_glns(g, params)
    assert a.vertices == b.vertices
    assert a.cost == b.cost


def test_glns_tiny_budget_still_valid():
    cells = gen_random(5, 40.0, 8.0, seed=4)
    cfg = PlannerConfig(d_max=100.0, battery_levels=4)
    g = build_instance(cells, cfg)
    tour = solve_glns(g, SolverParams(mode="fast", restarts=1,
                                      time_budget=1e-6))
    assert cells_hit(g, tour) == list(range(-1, g.n_cells))
    assert math.isfinite(tour.cost)


def test_glns_no_feasible_tour():
    cells = [
        Cell(0, Site(0, 0.0, 0.0, False), Site(1, 5.0, 0.0, False)),
        Cell(1, Site(2, 500.0, 0.0, False), Site(3, 505.0, 0.0, False)),
    ]
    cfg = PlannerConfig(d_max=30.0, battery_levels=3, fixed_wing_ratio=2.0)
    g = build_instance(cells, cfg)
    with pytest.raises(NoFeasibleTour):
        solve_glns(g, SolverParams(mode="fast", restarts=2))


@pytest.mark.parametrize("distance", [1e200, 1e306])
def test_glns_penalty_above_real_edges(distance):
    # On-road cells this far apart join only by UGV rides of about
    # distance / 0.2, far above 1e9, so the search must price an infinite
    # edge above them.  At 1e306, 4 (m + 1) times that price would
    # overflow, so it stays 1e9: the search may miss the tour, but no
    # float overflows (a warning fails the test).
    cells = [Cell(0, Site(0, 0.0, 0.0, True), Site(1, 5.0, 0.0, True)),
             Cell(1, Site(2, distance, 0.0, True),
                  Site(3, distance, 5.0, True)),
             Cell(2, Site(4, 0.0, 10.0, True), Site(5, 5.0, 10.0, True))]
    g = build_instance(cells, PlannerConfig(d_max=60.0, battery_levels=4,
                                            turn_radius=1.0))
    exact = solve_exact(g).cost
    for mode in ("fast", "default"):
        tour = glns_or_none(g, SolverParams(mode=mode, restarts=1))
        if distance == 1e200:
            assert tour.cost == exact == 4.9999999999999995e+200
        else:
            assert tour is None or tour.cost == exact


def test_solver_params_validation():
    with pytest.raises(ValueError):
        SolverParams(mode="turbo")
    with pytest.raises(ValueError):
        SolverParams(time_budget=0.0)
    with pytest.raises(ValueError):
        SolverParams(time_budget=math.nan)
    with pytest.raises(ValueError):
        SolverParams(restarts=0)


def test_glns_output_pinned():
    # Values recorded when the search dropped remove_worst and its
    # adaptive operator weights; any change to the search's float
    # operations, tie-breaks or RNG stream shows up here as a different
    # tour or a different last digit.
    params = SolverParams(mode="fast", restarts=2, rng_seed=11)
    g = build_instance(gen_random(6, 40.0, 8.0, seed=3),
                       PlannerConfig(d_max=80.0, battery_levels=4))
    tour = solve_glns(g, params)
    assert tour.vertices == (0, 21, 39, 41, 27, 2, 12)
    assert repr(tour.cost) == "195.93468471595133"

    # Tight battery and off-road cells: over a third of the cell-to-cell
    # entries are infinite, so the search prices BIG penalty edges.
    g = build_instance(gen_random(6, 100.0, 10.0, seed=2, road_fraction=0.7),
                       PlannerConfig(d_max=60.0, battery_levels=4,
                                     ugv_speed_ratio=0.2))
    blocks = g.cost[1:, 1:].reshape(6, 8, 6, 8).transpose(0, 2, 1, 3)
    assert np.isinf(blocks[~np.eye(6, dtype=bool)]).mean() > 0.3
    tour = solve_glns(g, params)
    assert tour.vertices == (0, 37, 11, 25, 42, 18, 8)
    assert repr(tour.cost) == "345.59111677268976"

    # Longer searches: many-round insertions and long DP prefixes, on a
    # plain farm and on a tight-battery off-road one.
    g = build_instance(gen_random(15, 60.0, 8.0, seed=5),
                       PlannerConfig(d_max=120.0, battery_levels=5))
    tour = solve_glns(g, SolverParams(mode="default", restarts=1, rng_seed=3))
    assert tour.vertices == (0, 71, 28, 45, 97, 144, 81, 53, 10, 127, 109, 16,
                             113, 36, 68, 140)
    assert repr(tour.cost) == "541.8819760153125"

    g = build_instance(gen_random(12, 100.0, 10.0, seed=8, road_fraction=0.7),
                       PlannerConfig(d_max=60.0, battery_levels=5,
                                     ugv_speed_ratio=0.2))
    tour = solve_glns(g, SolverParams(mode="fast", restarts=2, rng_seed=4))
    assert tour.vertices == (0, 16, 74, 61, 59, 101, 33, 10, 27, 84, 46, 118,
                             95)
    assert repr(tour.cost) == "492.05789769786156"

    g = build_instance(gen_random(5, 40.0, 8.0, seed=7, road_fraction=0.7),
                       PlannerConfig(d_max=60.0, battery_levels=3,
                                     ugv_speed_ratio=0.3))
    tour = solve_exact(g)
    assert tour.vertices == (0, 16, 12, 29, 4, 21)
    assert repr(tour.cost) == "188.97046233273937"


@st.composite
def block_matrices(draw, values, max_clusters, max_levels=2):
    """(m, 2C, matrix) laid out like build_instance: depot row/column 0,
    then cluster c on ids 1 + (c - 1) * 2C ... c * 2C."""
    m = draw(st.integers(1, max_clusters))
    width = 2 * draw(st.integers(1, max_levels))
    size = 1 + m * width
    entries = draw(st.lists(values, min_size=size * size,
                            max_size=size * size))
    return m, width, np.array(entries, dtype=float).reshape(size, size)


def cluster_vertices(c, width):
    return range(1 + (c - 1) * width, 1 + c * width)


def incoming(mat, m):
    """_layered_dp's arguments as _held_karp passes them for mat: the
    transposed view of its cluster blocks, its depot row and column."""
    blocks, depart, arrive = cluster_views(mat, m)
    return blocks.transpose(2, 3, 0, 1), depart, arrive


def penalized(cost):
    """The search's view of cost: BIG for inf, and that matrix transposed
    into a C-ordered copy (solve_glns's tmat)."""
    pmat = np.where(np.isfinite(cost), cost, BIG)
    return pmat, np.ascontiguousarray(pmat.T)


def cycle_cost(mat, vertices):
    total = 0.0
    for u, v in zip(vertices, vertices[1:] + vertices[:1]):
        total += float(mat[u, v])
    return total


# Small repeated values force ties; inf marks infeasible edges, which the
# search prices as BIG.
_DP_VALUES = st.one_of(st.sampled_from([0.0, 1.0, 2.5, math.inf]),
                       st.floats(0.0, 100.0))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), exact_sums=st.booleans())
def test_layered_dp_matches_brute_force(data, exact_sums):
    values = (st.sampled_from([0.0, 1.0, 2.5, math.inf]) if exact_sums
              else _DP_VALUES)
    m, width, mat = data.draw(block_matrices(values, 3))
    order = [0] + list(data.draw(st.permutations(range(1, m + 1))))
    total, choice = _layered_dp(*incoming(mat, m), order)
    picks = [choice[c] for c in order]
    assert order[1:] == [1 + (v - 1) // width for v in picks[1:]]
    assert cycle_cost(mat, picks) == total
    costs = {vs: cycle_cost(mat, [0] + list(vs)) for vs in itertools.product(
        *(cluster_vertices(c, width) for c in order[1:]))}
    expect = min(costs.values())
    assert total == expect
    if exact_sums and math.isfinite(expect):
        # First-min tie-breaks: the first closing vertex, then the first
        # cheapest predecessor of each, backward along the order.
        assert picks[:0:-1] == list(min(vs[::-1] for vs, c in costs.items()
                                        if c == expect))
    # The search runs the same DP on the blocks of its transposed copy.
    pmat, tmat = penalized(mat)
    search = _Search(tmat, m, random.Random(0))
    assert _layered_dp(search.into, search.depart, search.arrive, order) \
        == _layered_dp(*incoming(pmat, m), order)


def scan_insertion(pmat, width, tour, clusters, noisy, nearest, rng):
    """Per-cluster, per-position, per-vertex insertion scan over pmat, the
    cost matrix with BIG for inf."""
    def price(c, noisy):
        noise = [1.0 + _NOISE * rng.random() for _ in tour] \
            if noisy and len(tour) > 1 else None
        best = None
        for pos, a in enumerate(tour):
            b = tour[(pos + 1) % len(tour)]
            for v in cluster_vertices(c, width):
                delta = float(pmat[a, v]) + float(pmat[v, b])
                if len(tour) > 1:
                    delta -= float(pmat[a, b])
                    if noise:
                        delta *= noise[pos]
                if best is None or delta < best[0]:
                    best = (delta, c, pos, v)
        return best

    if nearest:
        prox = [min(min(float(pmat[t, v]), float(pmat[v, t]))
                    for t in tour for v in cluster_vertices(c, width))
                for c in clusters]
        return price(clusters[prox.index(min(prox))], False)
    best = None
    for c in clusters:
        cand = price(c, noisy)
        if best is None or cand[0] < best[0]:
            best = cand
    return best


_INSERT_VALUES = st.sampled_from([0.0, 1.0, 2.0, 3.0, 7.5, BIG, math.inf])


@settings(max_examples=200, deadline=None)
@given(data=st.data(), case=block_matrices(_INSERT_VALUES, 5),
       rule=st.sampled_from(["cheapest", "noisy", "nearest"]),
       seed=st.integers(0, 2**32))
def test_batched_insertion_matches_scan(data, case, rule, seed):
    m, width, cost = case
    pmat, tmat = penalized(cost)
    perm = data.draw(st.permutations(range(1, m + 1)))
    split = data.draw(st.integers(0, m - 1))
    search = _Search(tmat, m, random.Random(seed))
    search.order = [0] + list(perm[:split])
    for c in perm[:split]:
        search.choice[c] = data.draw(st.sampled_from(
            cluster_vertices(c, width)))
    clusters = sorted(perm[split:])
    ref_rng = random.Random(seed)
    expect = scan_insertion(pmat, width, search.tour_vertices(), clusters,
                            rule == "noisy", rule == "nearest", ref_rng)
    delta, row, pos, vertex = _Insertions(
        search, clusters, rule == "nearest").best(rule == "noisy")
    assert (delta, clusters[row], pos, vertex) == expect
    assert search.rng.random() == ref_rng.random()


class RecordingSearch(_Search):
    """_Search that logs every (cluster, pos, vertex) it inserts."""

    def __init__(self, *args):
        super().__init__(*args)
        self.log = []

    def insert(self, cluster, pos, vertex):
        self.log.append((cluster, pos, vertex))
        super().insert(cluster, pos, vertex)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), case=block_matrices(_INSERT_VALUES, 6),
       rule=st.sampled_from(["cheapest", "noisy", "nearest"]),
       seed=st.integers(0, 2**32))
def test_insert_greedy_matches_scan_loop(data, case, rule, seed):
    # insert_greedy keeps its deltas across rounds; a loop that scans the
    # whole tour afresh each round must insert the same clusters at the
    # same positions and vertices, drawing the same random numbers.
    m, width, cost = case
    pmat, tmat = penalized(cost)
    perm = data.draw(st.permutations(range(1, m + 1)))
    split = data.draw(st.integers(0, m - 1))
    search = RecordingSearch(tmat, m, random.Random(seed))
    ref = RecordingSearch(tmat, m, random.Random(seed))
    for c in perm[:split]:
        v = data.draw(st.sampled_from(cluster_vertices(c, width)))
        search.insert(c, len(search.order) - 1, v)
        ref.insert(c, len(ref.order) - 1, v)
    search.log.clear()
    ref.log.clear()
    remaining = sorted(perm[split:])
    while remaining:
        _, c, pos, v = scan_insertion(pmat, width, ref.tour_vertices(),
                                      remaining, rule == "noisy",
                                      rule == "nearest", ref.rng)
        ref.insert(c, pos, v)
        remaining.remove(c)
    search.insert_greedy(list(perm[split:]), noisy=rule == "noisy",
                         nearest=rule == "nearest")
    assert search.log == ref.log
    assert search.order == ref.order
    assert search.rng.random() == ref.rng.random()


@settings(max_examples=150, deadline=None)
@given(data=st.data(), case=block_matrices(_DP_VALUES, 5))
def test_reoptimize_matches_fresh_dp(data, case):
    # reoptimize_vertices reuses the forward DP along the prefix the order
    # shares with its last call, and snapshot/restore carry that state;
    # after any sequence of moves it must pick what a fresh DP picks.
    m, width, mat = case
    pmat, tmat = penalized(mat)
    search = _Search(tmat, m, random.Random(0))
    for c in data.draw(st.permutations(range(1, m + 1))):
        search.insert(c, len(search.order) - 1, cluster_vertices(c, width)[0])
    snaps = [search.snapshot()]
    moves = st.sampled_from(["remove", "insert", "reverse", "reoptimize",
                             "snapshot", "restore"])
    for move in data.draw(st.lists(moves, max_size=25)) + ["reoptimize"]:
        missing = sorted(set(range(1, m + 1)) - set(search.order))
        if move == "remove" and len(search.order) > 1:
            search.remove_clusters(data.draw(st.lists(
                st.sampled_from(search.order[1:]), min_size=1, unique=True)))
        elif move == "insert" and missing:
            c = data.draw(st.sampled_from(missing))
            search.insert(c, data.draw(st.integers(0, len(search.order) - 1)),
                          data.draw(st.sampled_from(
                              cluster_vertices(c, width))))
        elif move == "reverse":
            search.order = [0] + search.order[:0:-1]
        elif move == "reoptimize" and len(search.order) > 1:
            search.reoptimize_vertices()
            total, expect = _layered_dp(*incoming(pmat, m), search.order)
            assert search.choice == expect
            assert search.total == total
        elif move == "snapshot":
            snaps.append(search.snapshot())
        elif move == "restore":
            search.restore(data.draw(st.sampled_from(snaps)))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 6), levels=st.integers(1, 6),
       farm_seed=st.integers(0, 2**16),
       d_max=st.sampled_from([25.0, 40.0, 60.0, 400.0]), data=st.data())
def test_dp_lower_bound_never_exceeds_total(n, levels, farm_seed, d_max,
                                            data):
    # Tight d_max on a 100 m farm with off-road ends leaves many edges
    # infinite, which the search prices at the penalty.
    g = build_instance(gen_random(n, 100.0, 10.0, seed=farm_seed,
                                  road_fraction=0.7),
                       PlannerConfig(d_max=d_max, battery_levels=levels,
                                     ugv_speed_ratio=0.2))
    _, tmat = penalized(g.cost)
    search = _Search(tmat, n, random.Random(0))
    search.order = [0] + list(data.draw(st.permutations(range(1, n + 1))))
    checked = []

    def rejects(bound):
        checked.append(bound)
        return False

    assert search.reoptimize_vertices(rejects)
    # With no tour held before, the order shares no suffix with one.  The
    # bound of step j: the least cost it reaches, plus the cheapest edge of
    # each later cluster pair and the last cluster's cheapest closing edge,
    # summed from the end.
    c = [x - 1 for x in search.order[1:]]
    hops = [search.block_min[b][a] for a, b in zip(c, c[1:])]
    hops.append(search.close_min[c[-1]])
    tails = list(itertools.accumulate(reversed(hops)))[::-1]
    bounds = [float(dp.min()) + tail
              for (_, dp, _), tail in zip(search.steps, tails)]
    assert len(bounds) == n
    assert checked == bounds[:-1:solver._BOUND_EVERY]
    assert all(b * (1 - 1e-12) <= search.total for b in bounds)


def moved(data, order):
    """order after one random move: a cluster relocated, or a segment
    reversed."""
    ring = order[1:]
    if data.draw(st.booleans()):
        c = ring.pop(data.draw(st.integers(0, len(ring) - 1)))
        ring.insert(data.draw(st.integers(0, len(ring))), c)
    else:
        i = data.draw(st.integers(0, len(ring) - 1))
        k = data.draw(st.integers(i, len(ring)))
        ring[i:k] = ring[i:k][::-1]
    return [0] + ring


@settings(max_examples=100, deadline=None)
@given(n=st.integers(2, 7), levels=st.integers(1, 4),
       farm_seed=st.integers(0, 2**16),
       d_max=st.sampled_from([25.0, 40.0, 60.0, 400.0]), data=st.data())
def test_moved_candidates_bounds_never_exceed_total(n, levels, farm_seed,
                                                    d_max, data):
    # A run of candidates, each a random move from the current tour, judged
    # by every bound with no stop, then accepted or put back, so each
    # reuses the forward steps along the prefix it shares with the tour
    # held.  Each must pick what a fresh DP picks, and no bound looked at
    # may exceed its full DP total.  Tight d_max leaves many edges
    # infinite, which the search prices at the penalty.
    g = build_instance(gen_random(n, 100.0, 10.0, seed=farm_seed,
                                  road_fraction=0.7),
                       PlannerConfig(d_max=d_max, battery_levels=levels,
                                     ugv_speed_ratio=0.2))
    pmat, tmat = penalized(g.cost)
    search = _Search(tmat, n, random.Random(0))
    search.order = [0] + list(data.draw(st.permutations(range(1, n + 1))))
    search.reoptimize_vertices()
    bounds = []

    def rejects(bound):
        bounds.append(bound)
        return False

    for _ in range(data.draw(st.integers(1, 8))):
        snap = search.snapshot()
        search.order = moved(data, snap[0])
        if search.order == snap[0]:
            continue
        start = max(1, solver._common([c for c, _, _ in search.steps],
                                      search.order[1:]))
        bounds.clear()
        assert search.reoptimize_vertices(rejects)
        total, choice = _layered_dp(*incoming(pmat, n), search.order)
        assert (search.total, search.choice) == (total, choice)
        assert all(b <= total * (1 + 1e-12) for b in bounds)
        # The looks start at the last step kept (or the first), each the
        # bound of test_dp_lower_bound_never_exceeds_total.
        c = [x - 1 for x in search.order[1:]]
        hops = [search.block_min[b][a] for a, b in zip(c, c[1:])]
        tails = list(itertools.accumulate(
            reversed(hops), initial=search.close_min[c[-1]]))[::-1]
        assert bounds == [float(search.steps[j][1].min()) + tails[j]
                          for j in range(start - 1, n - 1,
                                         solver._BOUND_EVERY)]
        if data.draw(st.booleans()):
            search.restore(snap)
    if n > 3:
        # An order one cluster shorter that ends as the tour does.
        search.order = [0] + search.order[2:]
        bounds.clear()
        assert search.reoptimize_vertices(rejects)
        total, _ = _layered_dp(*incoming(pmat, n), search.order)
        assert bounds and all(b <= total * (1 + 1e-12) for b in bounds)


# The GLNS farms of test_glns_output_pinned, with their solver settings.
_PINNED_FARMS = [
    ((6, 40.0, 8.0, 3, 1.0), dict(d_max=80.0, battery_levels=4),
     SolverParams(mode="fast", restarts=2, rng_seed=11)),
    ((6, 100.0, 10.0, 2, 0.7),
     dict(d_max=60.0, battery_levels=4, ugv_speed_ratio=0.2),
     SolverParams(mode="fast", restarts=2, rng_seed=11)),
    ((15, 60.0, 8.0, 5, 1.0), dict(d_max=120.0, battery_levels=5),
     SolverParams(mode="default", restarts=1, rng_seed=3)),
    ((12, 100.0, 10.0, 8, 0.7),
     dict(d_max=60.0, battery_levels=5, ugv_speed_ratio=0.2),
     SolverParams(mode="fast", restarts=2, rng_seed=4)),
]


@pytest.mark.parametrize("farm, cfg, params", _PINNED_FARMS)
def test_stopped_dp_only_skips_rejected_candidates(monkeypatch, farm, cfg,
                                                   params):
    # Every candidate whose DP the bound stops must be one that the full
    # DP's total and the same draw reject: cost >= cur and
    # u >= exp(-(cost - cur) / T).
    n, extent, max_len, seed, roads = farm
    g = build_instance(gen_random(n, extent, max_len, seed=seed,
                                  road_fraction=roads), PlannerConfig(**cfg))
    stopped = []
    reoptimize = _Search.reoptimize_vertices

    def recorded(self, rejects=None):
        done = reoptimize(self, rejects)
        if not done:
            test = rejects.__self__
            stopped.append((self, self.order.copy(), test.cur,
                            test.temperature, test.u))
        return done

    monkeypatch.setattr(_Search, "reoptimize_vertices", recorded)
    monkeypatch.setattr(workers, "usable_cpus", lambda: 1)
    solve_glns(g, params)
    assert stopped
    for search, order, cur, temperature, u in stopped:
        total, _ = _layered_dp(search.into, search.depart, search.arrive,
                               order)
        assert total >= cur
        assert u >= math.exp(-(total - cur) / temperature)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), exact_sums=st.booleans())
def test_held_karp_matches_brute_force(data, exact_sums):
    # Sums of {0, 1, 2.5, inf} are exact, so equal-cost orders really tie
    # there and the tie-break is checked: the lexicographically smallest
    # optimal order, with _layered_dp's vertices along it.
    values = (st.sampled_from([0.0, 1.0, 2.5, math.inf]) if exact_sums
              else _DP_VALUES)
    m, width, mat = data.draw(block_matrices(values, 4))
    costs = {order: min(cycle_cost(mat, [0] + list(vs))
                        for vs in itertools.product(
                            *(cluster_vertices(c, width) for c in order)))
             for order in itertools.permutations(range(1, m + 1))}
    expect = min(costs.values())
    if math.isinf(expect):
        with pytest.raises(Infeasible):
            _held_karp(mat, m)
        return
    total, vertices = _held_karp(mat, m)
    assert total == expect
    assert cycle_cost(mat, vertices) == total
    order = [0] + [1 + (v - 1) // width for v in vertices[1:]]
    assert vertices[0] == 0 and sorted(order) == list(range(m + 1))
    if exact_sums:
        assert tuple(order[1:]) == min(o for o, c in costs.items()
                                       if c == expect)
        _, choice = _layered_dp(*incoming(mat, m), order)
        assert vertices == [choice[c] for c in order]


def same_as_reference(mat, m):
    """_held_karp gives the frozen full-table solver's cost, bit for bit,
    and its vertices, or raises Infeasible where that finds no tour."""
    expect, vertices = held_karp_reference.held_karp(mat, m)
    if vertices is None:
        with pytest.raises(Infeasible):
            _held_karp(mat, m)
        return
    total, got = _held_karp(mat, m)
    assert repr(total) == repr(expect)
    assert got == vertices


@settings(max_examples=300, deadline=None)
@given(m=st.integers(1, 8), levels=st.integers(1, 2),
       seed=st.integers(0, 2**32 - 1), reach=st.floats(0.0, 1.0))
def test_held_karp_matches_reference_on_ties(m, levels, seed, reach):
    # Sums of {0, 1, 2.5, inf} are exact, so equal-cost orders really tie
    # and the rank order of a set's gathered states decides the tour.  The
    # depot reaches only a random share of the vertices, so some states
    # and whole sets have no finite state, and some a single one.
    rng = np.random.default_rng(seed)
    size = 1 + m * 2 * levels
    mat = np.array([0.0, 1.0, 2.5, math.inf])[rng.integers(0, 4, (size, size))]
    mat[0, 1:][rng.random(size - 1) >= reach] = math.inf
    same_as_reference(mat, m)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 9), levels=st.integers(1, 20),
       seed=st.integers(0, 10**6), roads=st.sampled_from([0.0, 0.5, 1.0]),
       d_max=st.sampled_from([30.0, 60.0, 120.0]))
def test_held_karp_matches_reference_on_farms(n, levels, seed, roads, d_max):
    cells = gen_random(n, 60.0, 8.0, seed=seed, road_fraction=roads)
    g = build_instance(cells, PlannerConfig(d_max=d_max, battery_levels=levels,
                                            ugv_speed_ratio=0.3))
    same_as_reference(g.cost, n)


def test_held_karp_lattice_is_built_once_per_size():
    # The set tables depend only on the number of clusters and their
    # width, so solves of interleaved sizes share them, one build a size;
    # each solve must still give the frozen full-table solver's result bit
    # for bit, and no solve can write to the shared tables.
    solver._lattice.cache_clear()
    cfg = PlannerConfig(d_max=60.0, battery_levels=5, ugv_speed_ratio=0.3)
    for seed, n in enumerate((4, 6, 5, 4, 6)):
        g = build_instance(gen_random(n, 60.0, 8.0, seed=400 + seed,
                                      road_fraction=0.7), cfg)
        same_as_reference(g.cost, n)
    info = solver._lattice.cache_info()
    assert (info.misses, info.hits) == (3, 2)
    for layer in solver._lattice(6, 10):
        for table in layer[1:]:
            with pytest.raises(ValueError, match="read-only"):
                table[...] = 0


def distance_scan(search, count):
    """remove_distance's choice by a per-cluster loop with scalar reads."""
    ring = search.order[1:]
    sv = search.choice[search.rng.choice(ring)]
    scored = sorted((min(float(search.tmat[search.choice[c], sv]),
                         float(search.tmat[sv, search.choice[c]])), c)
                    for c in ring)
    return [c for _, c in scored[:count]]


@settings(max_examples=150, deadline=None)
@given(data=st.data(),
       case=block_matrices(st.sampled_from([0.0, 0.0, 0.0, 1.0, 2.5, BIG,
                                            math.inf]), 6),
       seed=st.integers(0, 2**32))
def test_removals_match_scan_loop(data, case, seed):
    # remove_distance scores the tour with array reads; the loop it
    # replaced must remove the same clusters in the same order and leave
    # the RNG in the same state.  Mostly-zero matrices give many zero
    # distances, which tie and go to the smaller cluster.
    m, width, cost = case
    _, tmat = penalized(cost)
    perm = data.draw(st.permutations(range(1, m + 1)))
    picks = [data.draw(st.sampled_from(cluster_vertices(c, width)))
             for c in perm]
    count = data.draw(st.integers(1, m))
    search, ref = (_Search(tmat, m, random.Random(seed))
                   for _ in "ab")
    for s in (search, ref):
        for c, v in zip(perm, picks):
            s.insert(c, len(s.order) - 1, v)
    expect = distance_scan(ref, count)
    assert search.remove_distance(count) == expect
    assert search.rng.random() == ref.rng.random()


def glns_or_none(g, params):
    try:
        return solve_glns(g, params)
    except NoFeasibleTour:
        return None


def assert_no_child_left():
    """This process has no child, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def deals_fairly(units, cpus, count):
    """count lies in [min(units, cpus), 2 * cpus - 1], and round-robin
    dealing of units to count workers gives none more than units / cpus
    units, or more than one."""
    largest = max(len(range(units)[w::count]) for w in range(count))
    return (min(units, cpus) <= count <= 2 * cpus - 1
            and largest * cpus <= max(units, cpus))


@pytest.mark.parametrize("units", [*range(1, 13), 10 ** 9])
@pytest.mark.parametrize("cpus", [1, 2, 3, 4])
def test_worker_count_is_fewest_fair_deal(units, cpus):
    count = workers.worker_count(units, cpus)
    assert deals_fairly(units, cpus, count)
    assert not any(deals_fairly(units, cpus, fewer)
                   for fewer in range(1, count))


@settings(max_examples=25, deadline=None)
@given(n=st.integers(2, 8), farm_seed=st.integers(0, 2**16),
       d_max=st.sampled_from([60.0, 120.0, 400.0]),
       levels=st.integers(1, 4), cpus=st.integers(1, 3),
       restarts=st.integers(1, 5), rng_seed=st.integers(0, 2**16))
def test_parallel_restarts_match_one_worker(n, farm_seed, d_max, levels,
                                            cpus, restarts, rng_seed):
    g = build_instance(gen_random(n, 60.0, 8.0, seed=farm_seed,
                                  road_fraction=0.7),
                       PlannerConfig(d_max=d_max, battery_levels=levels,
                                     ugv_speed_ratio=0.2))
    params = SolverParams(mode="fast", restarts=restarts, rng_seed=rng_seed)
    forks = []
    fork = os.fork

    def counted_fork():
        forks.append(1)
        return fork()

    with mock.patch.object(workers, "usable_cpus", lambda: cpus), \
            mock.patch.object(os, "fork", counted_fork):
        parallel = glns_or_none(g, params)
    # A helper needs two CPUs a restart, so at 3 CPUs or fewer only a
    # single restart gets one, and this process forks it.
    helpers = restarts if 2 * restarts <= cpus else 0
    assert len(forks) == workers.worker_count(restarts, cpus) - 1 + helpers
    assert_no_child_left()
    with mock.patch.object(workers, "usable_cpus", lambda: 1):
        assert glns_or_none(g, params) == parallel


def test_glns_hands_workers_a_range(monkeypatch):
    # A billion restarts must not become a billion ints before the first
    # one runs.  A million shows it, and would cost only 40 MB as a list.
    g = build_instance(gen_random(1, 40.0, 8.0, seed=4),
                       PlannerConfig(d_max=100.0, battery_levels=3))
    handed = []

    def in_workers(run, indices):
        handed.append(indices)
        return [(0, 1.0, [0, 1])]

    monkeypatch.setattr(solver, "in_workers", in_workers)
    solve_glns(g, SolverParams(restarts=10 ** 6))
    assert handed == [range(10 ** 6)]


@pytest.mark.parametrize("refuse_fork", [False, True])
def test_worker_shares_are_slices_of_the_range(monkeypatch, refuse_fork):
    def refused():
        raise OSError("fork refused")

    monkeypatch.setattr(workers, "usable_cpus", lambda: 2)
    if refuse_fork:
        monkeypatch.setattr(os, "fork", refused)
    # A list would have neither start nor step.
    shares = workers.in_workers(
        lambda share: [(share.start, share.step, len(share))],
        range(10 ** 6))
    assert sorted(shares) == [(0, 2, 5 * 10 ** 5), (1, 2, 5 * 10 ** 5)]
    shares = workers.in_workers(
        lambda share: [(share.start, share.step, len(share))], range(3))
    assert sorted(shares) == [(0, 3, 1), (1, 3, 1), (2, 3, 1)]
    assert_no_child_left()


def test_restart_ties_go_to_lowest_restart(monkeypatch):
    # Restarts 1 and 2 tie; worker 0 runs 0 and 2 and the child runs 1 and
    # 3, so merging in the order results arrive would pick restart 2.
    g = build_instance(gen_random(1, 40.0, 8.0, seed=4),
                       PlannerConfig(d_max=100.0, battery_levels=3))

    def fake_restarts(g, tmat, m, params, share, deadline):
        return [(r, 1.0 if r in (1, 2) else 2.0, [0, 1 + r]) for r in share]

    monkeypatch.setattr(workers, "usable_cpus", lambda: 2)
    monkeypatch.setattr(solver, "_restarts", fake_restarts)
    assert workers.worker_count(4, 2) == 2
    assert solve_glns(g, SolverParams(restarts=4)).vertices == (0, 2)


@pytest.mark.parametrize("in_child", [True, False])
def test_failing_worker_raises_and_leaves_no_child(monkeypatch, in_child):
    g = build_instance(gen_random(5, 40.0, 8.0, seed=4),
                       PlannerConfig(d_max=100.0, battery_levels=3))
    parent = os.getpid()
    polish = _Search.polish

    def polish_or_fail(self, deadline):
        if (os.getpid() != parent) == in_child:
            raise ValueError("restart failed")
        polish(self, deadline)

    monkeypatch.setattr(workers, "usable_cpus", lambda: 3)
    monkeypatch.setattr(_Search, "polish", polish_or_fail)
    with pytest.raises(ValueError, match="restart failed"):
        solve_glns(g, SolverParams(mode="fast", restarts=3))
    assert_no_child_left()


def test_failed_fork_runs_share_in_process(monkeypatch):
    g = build_instance(gen_random(5, 40.0, 8.0, seed=4),
                       PlannerConfig(d_max=100.0, battery_levels=3))
    params = SolverParams(mode="fast", restarts=3, rng_seed=5)
    monkeypatch.setattr(workers, "usable_cpus", lambda: 1)
    sequential = solve_glns(g, params)

    def refused():
        raise OSError("fork refused")

    monkeypatch.setattr(workers, "usable_cpus", lambda: 3)
    monkeypatch.setattr(os, "fork", refused)
    assert solve_glns(g, params) == sequential
    assert_no_child_left()


def test_fork_rule_gives_helpers_spare_cpus_only(monkeypatch, tmp_path):
    # solve_exact never forks.  One restart forks nothing on 1 CPU and one
    # helper on 2 or more, also when its time budget is spent before the
    # first iteration; three restarts on 2 CPUs fork their 2 workers and
    # no helper, and two on 4 CPUs one worker and a helper each.  Every
    # fork, a worker's included, appends to a file.
    g = build_instance(gen_random(5, 40.0, 8.0, seed=4),
                       PlannerConfig(d_max=100.0, battery_levels=3))
    log = tmp_path / "forks"
    fork = os.fork

    def counted_fork():
        with open(log, "a") as f:
            f.write("x")
        return fork()

    def forks(cpus, restarts=None, budget=600.0):
        log.write_text("")
        monkeypatch.setattr(workers, "usable_cpus", lambda: cpus)
        if restarts is None:
            solve_exact(g)
        else:
            solve_glns(g, SolverParams(mode="fast", restarts=restarts,
                                       time_budget=budget))
        assert_no_child_left()
        return len(log.read_text())

    monkeypatch.setattr(os, "fork", counted_fork)
    assert forks(4) == 0
    assert forks(1, 1) == 0
    assert forks(2, 1) == 1
    assert forks(4, 1) == 1
    assert forks(2, 1, budget=1e-9) == 1
    assert forks(2, 3) == 2
    assert forks(4, 2) == 3


@functools.lru_cache(maxsize=None)
def move_states(most):
    """{(removal, insertion, count): an RNG state from which _iterate draws
    that move}, for every move that removes at most most clusters."""
    states = {}
    seed = 0
    while len(states) < len(solver._REMOVALS) * len(solver._INSERTIONS) * most:
        rng = random.Random(seed)
        state = rng.getstate()
        move = (solver._REMOVALS.index(rng.choice(solver._REMOVALS)),
                solver._INSERTIONS.index(rng.choice(solver._INSERTIONS)),
                rng.randint(1, most))
        states.setdefault(move, state)
        seed += 1
    return states


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 8), levels=st.integers(1, 4),
       farm_seed=st.integers(0, 2**16),
       d_max=st.sampled_from([25.0, 60.0, 400.0]),
       scale=st.sampled_from([0.5, 1.0, 1.05]),
       temperature=st.sampled_from([0.0, 1e-3, 1.0, 100.0]), data=st.data())
def test_skip_moves_rng_as_unchanged_iterations(n, levels, farm_seed, d_max,
                                                scale, temperature, data):
    # From a drawn tour, every removal, insertion and count: an iteration
    # that leaves the tour as it was, rejected after a full or a stopped DP
    # or putting the same order back, must leave the RNG where _skip puts
    # it from the same state.  Tight d_max leaves many edges infinite,
    # which the search prices at the penalty.
    g = build_instance(gen_random(n, 100.0, 10.0, seed=farm_seed,
                                  road_fraction=0.7),
                       PlannerConfig(d_max=d_max, battery_levels=levels,
                                     ugv_speed_ratio=0.2))
    _, tmat = penalized(g.cost)
    search = _Search(tmat, n, random.Random(0))
    search.order = [0] + list(data.draw(st.permutations(range(1, n + 1))))
    search.reoptimize_vertices()
    snap = search.snapshot()
    cur_cost = search.total * scale
    most = min(n, max(2, int(round(0.3 * n))))
    for state in move_states(most).values():
        search.restore(snap)
        search.rng.setstate(state)
        if solver._iterate(search, most, cur_cost, temperature):
            continue
        assert (search.order, search.choice) == snap[:2]
        skipped = random.Random()
        skipped.setstate(state)
        solver._skip(skipped, n, most, temperature)
        assert search.rng.getstate() == skipped.getstate()


def paired_farm(seed=3):
    return build_instance(gen_random(10, 60.0, 8.0, seed=seed,
                                     road_fraction=0.7),
                          PlannerConfig(d_max=120.0, battery_levels=3,
                                        ugv_speed_ratio=0.2))


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("slow", ["caller", "helper"])
def test_forked_helper_gives_solo_tour_when_one_side_lags(monkeypatch, slow,
                                                          seed):
    # Up to 2 ms more per iteration on one side, and up to 0.2 ms on the
    # other, make each run ahead of the other at times.  With a slow
    # helper, the caller waits on the helper's iterations and drops what it
    # ran ahead of one that changed the tour; with a slow caller, the
    # helper's runs ahead are dropped in turn.  Either way the tour is the
    # one-process tour.
    g = paired_farm(seed)
    params = SolverParams(mode="fast", restarts=1, rng_seed=seed)
    monkeypatch.setattr(workers, "usable_cpus", lambda: 1)
    solo = solve_glns(g, params)
    caller = os.getpid()
    lag = random.Random(seed)
    seen = collections.Counter()
    iterate = solver._iterate
    receive = solver._Annealing._receive
    commit = solver._Annealing._commit

    def slowed(*args):
        lagging = (os.getpid() == caller) == (slow == "caller")
        time.sleep(lag.random() * (2e-3 if lagging else 2e-4))
        return iterate(*args)

    def receive_counted(self, wait):
        seen["waits"] += wait
        receive(self, wait)

    def commit_counted(self, changed):
        if changed:
            seen["dropped"] += sum(base <= self.done for base, _ in
                                   self.results.values())
            seen["dropped"] += sum(base <= self.done for base in
                                   self.claims.values())
        commit(self, changed)

    monkeypatch.setattr(solver, "_iterate", slowed)
    monkeypatch.setattr(solver._Annealing, "_receive", receive_counted)
    monkeypatch.setattr(solver._Annealing, "_commit", commit_counted)
    monkeypatch.setattr(workers, "usable_cpus", lambda: 2)
    assert solve_glns(g, params) == solo
    assert_no_child_left()
    assert seen["dropped"]
    if slow == "helper":
        assert seen["waits"]


def test_failing_helper_fork_raises_and_leaves_no_child(monkeypatch):
    caller = os.getpid()
    iterate = solver._iterate

    def fails_in_helper(*args):
        if os.getpid() != caller:
            raise ValueError("helper failed")
        return iterate(*args)

    monkeypatch.setattr(solver, "_iterate", fails_in_helper)
    monkeypatch.setattr(workers, "usable_cpus", lambda: 2)
    with pytest.raises(ValueError, match="helper failed"):
        solve_glns(paired_farm(), SolverParams(mode="fast", restarts=1))
    assert_no_child_left()


def test_refused_helper_fork_runs_alone(monkeypatch):
    g = paired_farm()
    params = SolverParams(mode="fast", restarts=1, rng_seed=5)
    monkeypatch.setattr(workers, "usable_cpus", lambda: 1)
    solo = solve_glns(g, params)

    def refused():
        raise OSError("fork refused")

    monkeypatch.setattr(workers, "usable_cpus", lambda: 2)
    monkeypatch.setattr(os, "fork", refused)
    assert solve_glns(g, params) == solo
    assert_no_child_left()


def test_workers_duplicate_no_output():
    # Block-buffered stdout still holds "before" at each fork; a worker or
    # a helper that flushed its copy on exit would print it twice.
    code = textwrap.dedent("""
        import sys
        from airmule import solver, workers
        from airmule.energy import PlannerConfig
        from airmule.graph import build_instance
        from airmule.instances import gen_random
        workers.usable_cpus = lambda: 3
        g = build_instance(gen_random(5, 40.0, 8.0, seed=4),
                           PlannerConfig(d_max=100.0, battery_levels=3))
        sys.stdout.write("before ")
        solver.solve_glns(g, solver.SolverParams(mode="fast", restarts=3))
        workers.usable_cpus = lambda: 2
        solver.solve_glns(g, solver.SolverParams(mode="fast", restarts=1))
        print("after")
    """)
    src = str(Path(solver.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, timeout=120, check=True)
    assert out.stdout == "before after\n"
    assert out.stderr == ""

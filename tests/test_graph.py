"""Graph construction tests: edge costs, the 18-option minimum, the
depot cluster and the dense matrix, checked against oracle18."""

import hashlib
import math
import mmap
import os
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle18 import oracle_edge_cost, oracle_type_cost

from airmule import graph, workers
from airmule.energy import PlannerConfig
from airmule.errors import InstanceTooLarge
from airmule.geometry import Cell, Site
from airmule.graph import (EdgeType, Vertex, build_instance, cluster_span,
                           cluster_views, edge_breakdown)
from airmule.instances import gen_random


def spec_cells():
    return [
        Cell(0, Site(0, 0.0, 0.0), Site(1, 10.0, 0.0)),
        Cell(1, Site(2, 20.0, 0.0), Site(3, 30.0, 0.0)),
    ]


def spec_cfg():
    return PlannerConfig(d_max=100.0, battery_levels=20, ugv_speed_ratio=0.2)


def test_edge_type_order_and_labels():
    assert [t.name for t in EdgeType] == [
        "M_M", "F_F", "M_F", "F_M", "M_DTU", "F_DTU",
        "M_MDU", "F_FDU", "M_FDU", "F_MDU",
        "M_DUM", "F_DUF", "M_DUF", "F_DUM",
        "M_DUMDU", "F_DUFDU", "M_DUFDU", "F_DUMDU"]
    assert EdgeType.M_DTU.label == "M-DTU"
    assert EdgeType.M_DTU.stops == "ride"
    assert EdgeType.F_DUM.transit_mode.value == "multi_rotor"
    assert EdgeType.M_FDU.cover_mode.value == "multi_rotor"


def test_pure_flight_cost_example():
    cells, cfg = spec_cells(), spec_cfg()
    u = Vertex(0, "A", 20)
    v = Vertex(1, "A", 16)
    bd = edge_breakdown(EdgeType.M_M, u, v, cells, cfg)
    assert bd.cost == 20.0
    assert bd.split.total == 0


def test_entry_stop_cost_example():
    cells, cfg = spec_cells(), spec_cfg()
    u = Vertex(0, "A", 20)
    v = Vertex(1, "A", 20)
    bd = edge_breakdown(EdgeType.M_MDU, u, v, cells, cfg)
    assert bd.cost == 78.0
    assert bd.split.at_entry == 4


def test_ride_cost_example():
    cells, cfg = spec_cells(), spec_cfg()
    u = Vertex(0, "A", 20)
    v = Vertex(1, "A", 20)
    bd = edge_breakdown(EdgeType.M_DTU, u, v, cells, cfg)
    assert bd.cost == 110.0
    assert bd.split.in_transit == 2


def test_recharge_beats_nothing_when_battery_dead():
    """With the battery exactly depleted at the exit and a fast UGV the
    winner must involve the UGV."""
    cfg = PlannerConfig(d_max=20.0, battery_levels=2, ugv_speed_ratio=1.0)
    cells = spec_cells()
    g = build_instance(cells, cfg)
    # one level left at cell 0's entry, coverage eats it
    u, v = g.vertex_id(0, "A", 1), g.vertex_id(1, "A", 2)
    assert math.isfinite(float(g.cost[u, v]))
    assert EdgeType(int(g.best_type[u, v])).stops in ("ride", "exit", "both")


def test_road_gating():
    cfg = spec_cfg()
    cells = [
        Cell(0, Site(0, 0.0, 0.0), Site(1, 10.0, 0.0, on_road=False)),
        Cell(1, Site(2, 20.0, 0.0), Site(3, 30.0, 0.0)),
    ]
    u = Vertex(0, "A", 20)  # exits at the off-road site 1
    v = Vertex(1, "A", 20)
    for t in (EdgeType.M_DTU, EdgeType.M_DUM, EdgeType.M_DUMDU):
        assert edge_breakdown(t, u, v, cells, cfg) is None
    # entry-side stops remain possible
    assert math.isfinite(edge_breakdown(EdgeType.M_MDU, u, v, cells, cfg).cost)

    # an off-road entry site rules out every layout that lands there;
    # arriving with 18 levels, each of them balances on the road
    cells = [
        Cell(0, Site(0, 0.0, 0.0), Site(1, 10.0, 0.0)),
        Cell(1, Site(2, 20.0, 0.0, on_road=False), Site(3, 30.0, 0.0)),
    ]
    v = Vertex(1, "A", 18)
    for t in (EdgeType.M_DTU, EdgeType.M_MDU, EdgeType.M_DUMDU):
        assert edge_breakdown(t, u, v, cells, cfg) is None
    assert math.isfinite(edge_breakdown(EdgeType.M_DUM, u, v, cells, cfg).cost)

    # 490 m between the cells: 98 levels multi-rotor and 33 fixed-wing
    # against C = 20, so no recharge at either end makes the leg flyable,
    # though the battery arithmetic alone would balance; riding still works.
    cells = [
        Cell(0, Site(0, 0.0, 0.0), Site(1, 10.0, 0.0)),
        Cell(1, Site(2, 500.0, 0.0), Site(3, 510.0, 0.0)),
    ]
    v = Vertex(1, "A", 20)
    for t in EdgeType:
        if t.stops == "both":
            assert edge_breakdown(t, u, v, cells, cfg) is None
    bd = edge_breakdown(EdgeType.M_DTU, u, v, cells, cfg)
    assert math.isfinite(bd.cost) and bd.split.in_transit == 2


def test_edge_breakdown_rejects_depot_and_same_cell():
    cells, cfg = spec_cells(), spec_cfg()
    depot = Vertex(-1, None, 20, is_depot=True)
    u = Vertex(0, "A", 20)
    with pytest.raises(ValueError):
        edge_breakdown(EdgeType.M_M, depot, u, cells, cfg)
    with pytest.raises(ValueError):
        edge_breakdown(EdgeType.M_M, u, Vertex(0, "B", 5), cells, cfg)


layout_graphs = st.builds(
    lambda n, C, seed: build_instance(
        gen_random(n, 40.0, 8.0, seed=seed),
        PlannerConfig(d_max=90.0, battery_levels=C)),
    st.integers(1, 5), st.integers(1, 20), st.integers(0, 2**16))


@settings(max_examples=25, deadline=None)
@given(g=layout_graphs)
def test_build_instance_shape(g):
    # The depot is vertex 0; cell c - 1 owns the 2C consecutive ids from
    # 1 + (c - 1) * 2C, end A then end B, levels descending.
    n, C = g.n_cells, g.levels
    V = 1 + 2 * n * C
    assert g.cost.shape == g.best_type.shape == (V, V)
    assert g.cost.flags.c_contiguous
    assert g.vertex(0) == Vertex(-1, None, C, is_depot=True)
    for bad in (-1, V):
        with pytest.raises(ValueError, match="out of range"):
            g.vertex(bad)
    for cell, end in ((-1, "A"), (n, "A"), (0, "X")):
        with pytest.raises(ValueError, match="out of range"):
            g.vertex_id(cell, end, C)
    for cell in range(n):
        span = range(V)[cluster_span(cell + 1, 2 * C)]
        assert list(span) == list(range(1 + cell * 2 * C,
                                        1 + (cell + 1) * 2 * C))
        assert [g.vertex(vid) for vid in span] == [
            Vertex(cell, end, level)
            for end in ("A", "B") for level in range(C, 0, -1)]
        for end in ("A", "B"):
            for level in range(1, C + 1):
                vid = g.vertex_id(cell, end, level)
                assert vid in span
                assert g.vertex(vid) == Vertex(cell, end, level)
    for vid in range(1, V):
        vert = g.vertex(vid)
        assert g.vertex_id(vert.cell_index, vert.entry_end, vert.level) == vid


@settings(max_examples=25, deadline=None)
@given(g=layout_graphs)
def test_cluster_block_layout(g):
    # The solvers read cluster blocks and the depot's row and column as
    # views of the matrices, never as copies.
    n, width = g.n_cells, 2 * g.levels
    for mat in (g.cost, g.best_type):
        blocks, row, column = cluster_views(mat, n)
        assert blocks.shape == (n, width, n, width)
        assert row.shape == column.shape == (n, width)
        assert all(np.shares_memory(view, mat)
                   for view in (blocks, row, column))
        for a in range(n):
            span_a = cluster_span(a + 1, width)
            assert np.array_equal(row[a], mat[0, span_a])
            assert np.array_equal(column[a], mat[span_a, 0])
            for b in range(n):
                assert np.array_equal(blocks[a, :, b, :],
                                      mat[span_a, cluster_span(b + 1, width)])


def test_depot_edges():
    cells = spec_cells()
    cfg = PlannerConfig(d_max=100.0, battery_levels=20, fixed_wing_speed=2.0)
    g = build_instance(cells, cfg)
    for cell in range(2):
        for end in ("A", "B"):
            for level in range(1, 21):
                vid = g.vertex_id(cell, end, level)
                out_cost = float(g.cost[0, vid])
                assert (out_cost == 0.0) == (level == 20)
                back = float(g.cost[vid, 0])
                # closing edge: cheapest affordable final coverage pass;
                # fixed-wing at speed 2 costs 5, multi-rotor costs 10
                assert back == 5.0
    assert math.isinf(float(g.cost[0, 0]))


def test_depot_closing_needs_battery():
    cells = spec_cells()
    cfg = PlannerConfig(d_max=15.0, battery_levels=3, fixed_wing_ratio=1.0)
    # a 10-unit pass costs 2 levels either way, so level 1 cannot close
    g = build_instance(cells, cfg)
    assert math.isinf(float(g.cost[g.vertex_id(0, "A", 1), 0]))
    assert float(g.cost[g.vertex_id(0, "A", 2), 0]) == 10.0


def test_build_instance_rejects_bad_indices():
    cfg = spec_cfg()
    cells = [Cell(1, Site(0, 0.0, 0.0), Site(1, 10.0, 0.0))]
    with pytest.raises(ValueError):
        build_instance(cells, cfg)
    with pytest.raises(ValueError):
        build_instance([], cfg)


@pytest.mark.parametrize("gen, cfg, cost_sha, type_sha", [
    # Tight battery, 70% off-road ends: off-road exits and entries occur,
    # stop templates win, and some transit legs need more than C levels.
    ((6, 100.0, 10.0, 2, 0.3), dict(d_max=60.0, battery_levels=4),
     "b35c44c8d08dd2c788a6577c5a4c3c65363af574f69baf52fd6e3a4ff1a227a0",
     "688934c0aab49ad62fbfdb22aa324e4b8c6c617cca4c57762b4cb75eef68b8e7"),
    ((1, 40.0, 8.0, 1, 1.0), dict(d_max=90.0, battery_levels=5),
     "d2a876ebfc0ef1611896a7d0926f93e5684d55973d93af1b4607797a3e5004ab",
     "552e3a65fa8fc1df1701b3ad2abf163867262016e5254bce24cd25614f459994"),
    ((2, 40.0, 8.0, 4, 0.5), dict(d_max=90.0, battery_levels=20),
     "5605feffd9bd2890e6f6a0c65a3b072b1c0c4581140b8ba2951f6d77a234a727",
     "eaa953611ffc9f8859f3346f13a44440ff421002b2a2fd08cf3961c0d92712f6"),
    ((4, 40.0, 8.0, 5, 1.0), dict(d_max=90.0, battery_levels=1),
     "f54b1d9b64683ad69023a4685b7036898d368d99cff717188c6560c8ae50c428",
     "dce356be16afb30cdff135d2b2a5d6a8dd5ed43d2b74820be1c512cb5cc488fe"),
    ((5, 60.0, 10.0, 6, 0.7), dict(d_max=120.0, battery_levels=6,
                                   fixed_wing_speed=1.5, turn_radius=8.0),
     "f2a19e5664a915cebc67a32f8bc7801d8af7e4373f2997e38b7c65926c42c47b",
     "d8dba2da0d7d92906eb9de9539c749d8d7aa3c4efb7319a6f5e85e7f54951005"),
    # Cells far apart for d_max: 60 end pairs have a transit leg longer
    # than a full battery, so only rides and the guard of _both decide.
    ((5, 200.0, 10.0, 8, 0.8), dict(d_max=40.0, battery_levels=4),
     "1bf2d77fc9a4a9b43fd72a41969dafe157c61131274c0f700c740a678f027c87",
     "72af0ae20be222bb6b39cb55af1480ea801289f3760b3948d218afe6f1176207"),
], ids=["tight-offroad", "n1", "n2", "C1", "fw-speed-turn", "long-legs"])
def test_build_pinned(gen, cfg, cost_sha, type_sha):
    # Values recorded before the build evaluated its templates per source
    # cell; a changed float, tie-break or mask shows up as a new digest.
    n, extent, max_len, seed, roads = gen
    g = build_instance(gen_random(n, extent, max_len, seed=seed,
                                  road_fraction=roads), PlannerConfig(**cfg))
    assert hashlib.sha256(g.cost.tobytes()).hexdigest() == cost_sha
    assert hashlib.sha256(g.best_type.tobytes()).hexdigest() == type_sha


def test_matrix_matches_scalar_seeded():
    rng = random.Random(21)
    for trial in range(6):
        cfg = PlannerConfig(d_max=rng.choice([40.0, 90.0]),
                            battery_levels=rng.choice([3, 5]),
                            fixed_wing_ratio=rng.choice([1.5, 3.0]),
                            turn_radius=rng.choice([1.0, 3.0]),
                            ugv_speed_ratio=rng.choice([0.2, 1.0]),
                            fixed_wing_speed=rng.choice([1.0, 2.0]))
        cells = gen_random(rng.randint(2, 4), 30.0, 8.0, seed=trial,
                           road_fraction=0.7)
        g = build_instance(cells, cfg)
        for _ in range(250):
            u = rng.randrange(1, len(g.cost))
            v = rng.randrange(1, len(g.cost))
            if g.vertex(u).cell_index == g.vertex(v).cell_index:
                continue
            expect_cost, expect_idx = oracle_edge_cost(
                g.vertex(u), g.vertex(v), cells, cfg)
            mat = float(g.cost[u, v])
            if math.isinf(expect_cost):
                assert math.isinf(mat)
                assert int(g.best_type[u, v]) == -1
            else:
                assert mat == expect_cost
                assert int(g.best_type[u, v]) == expect_idx
                # the scalar evaluation of the winning template agrees
                bd = edge_breakdown(EdgeType(expect_idx), g.vertex(u),
                                    g.vertex(v), cells, cfg)
                assert bd.cost == mat


def test_matches_independent_oracle_seeded():
    rng = random.Random(33)
    for trial in range(6):
        cfg = PlannerConfig(d_max=rng.choice([30.0, 70.0]),
                            battery_levels=rng.choice([4, 6]),
                            fixed_wing_ratio=rng.choice([2.0, 3.0]),
                            turn_radius=rng.choice([1.0, 2.0]),
                            ugv_speed_ratio=rng.choice([0.2, 0.5]),
                            fixed_wing_speed=rng.choice([1.0, 1.5]))
        cells = gen_random(rng.randint(2, 4), 25.0, 7.0, seed=100 + trial,
                           road_fraction=0.8)
        g = build_instance(cells, cfg)
        for _ in range(300):
            ci, cj = rng.sample(range(len(cells)), 2)
            u = Vertex(ci, rng.choice("AB"), rng.randint(1, cfg.battery_levels))
            v = Vertex(cj, rng.choice("AB"), rng.randint(1, cfg.battery_levels))
            uid = g.vertex_id(ci, u.entry_end, u.level)
            vid = g.vertex_id(cj, v.entry_end, v.level)
            expect_cost, expect_idx = oracle_edge_cost(u, v, cells, cfg)
            assert float(g.cost[uid, vid]) == expect_cost
            code = int(g.best_type[uid, vid])
            if expect_idx is None:
                assert code == -1
            else:
                assert code == expect_idx
                got = edge_breakdown(EdgeType(code), u, v, cells, cfg).cost
                assert got == expect_cost


def test_breakdown_cost_matches_matrix_seeded():
    rng = random.Random(55)
    cfg = PlannerConfig(d_max=60.0, battery_levels=5, ugv_speed_ratio=0.4)
    cells = gen_random(3, 25.0, 7.0, seed=8)
    g = build_instance(cells, cfg)
    seen = 0
    for _ in range(400):
        u = rng.randrange(1, len(g.cost))
        v = rng.randrange(1, len(g.cost))
        if g.vertex(u).cell_index == g.vertex(v).cell_index:
            continue
        bd = g.breakdown(u, v)
        if bd is None:
            assert math.isinf(float(g.cost[u, v]))
            continue
        seen += 1
        assert bd.cost == float(g.cost[u, v])
        assert bd.edge_type.value == int(g.best_type[u, v])
    assert seen > 50


def test_every_type_can_win_somewhere_seeded():
    """Sanity: across many random pairs the argmin is not constant."""
    rng = random.Random(70)
    winners = set()
    for trial in range(25):
        cfg = PlannerConfig(d_max=rng.choice([20.0, 45.0, 90.0]),
                            battery_levels=rng.choice([3, 5, 8]),
                            fixed_wing_ratio=rng.choice([1.2, 3.0]),
                            ugv_speed_ratio=rng.choice([0.2, 1.0]),
                            fixed_wing_speed=rng.choice([1.0, 2.0]),
                            turn_radius=rng.choice([0.5, 2.0]))
        cells = gen_random(3, 25.0, 8.0, seed=200 + trial, road_fraction=0.8)
        g = build_instance(cells, cfg)
        for _ in range(150):
            ci, cj = rng.sample(range(3), 2)
            u = g.vertex_id(ci, rng.choice("AB"),
                            rng.randint(1, cfg.battery_levels))
            v = g.vertex_id(cj, rng.choice("AB"),
                            rng.randint(1, cfg.battery_levels))
            code = int(g.best_type[u, v])
            if code >= 0:
                winners.add(EdgeType(code))
    assert len(winners) >= 8


def test_matrix_bound_checked_before_allocation(monkeypatch):
    # 10**9 levels would ask numpy for exabytes; the bound must refuse them
    # before any vertex or matrix is built.
    def no_alloc(*args, **kwargs):
        raise AssertionError("matrix allocated")

    monkeypatch.setattr(np, "full", no_alloc)
    monkeypatch.setattr(np, "zeros", no_alloc)
    monkeypatch.setattr(mmap, "mmap", no_alloc)
    monkeypatch.setattr(graph, "Vertex", no_alloc)
    # Two usable CPUs would give this build the shared matrices.
    monkeypatch.setattr(workers, "usable_cpus", lambda: 2)
    with pytest.raises(InstanceTooLarge, match="bytes of matrices"):
        build_instance(spec_cells(), PlannerConfig(battery_levels=10**9))


def test_matrix_bound_counts_eighteen_bytes_per_entry(monkeypatch):
    # cost (8 bytes), best_type (2) and the search's transposed copy (8)
    # per vertex pair: the bound admits n=100 cells at C=20 levels, and an
    # instance exactly at the bound builds while one byte less refuses it.
    assert (1 + 2 * 100 * 20) ** 2 * 18 <= graph._MATRIX_MAX_BYTES
    cfg = PlannerConfig(d_max=100.0, battery_levels=3)
    need = (1 + 2 * 2 * 3) ** 2 * 18
    monkeypatch.setattr(graph, "_MATRIX_MAX_BYTES", need)
    assert build_instance(spec_cells(), cfg).cost.shape == (13, 13)
    monkeypatch.setattr(graph, "_MATRIX_MAX_BYTES", need - 1)
    with pytest.raises(InstanceTooLarge, match=str(need)):
        build_instance(spec_cells(), cfg)


def matrix_bytes(g):
    return g.cost.tobytes(), g.best_type.tobytes()


def assert_no_child_left():
    """This process has no child, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def forced_workers(monkeypatch, count):
    """Make every build with at least count cells use count workers."""
    monkeypatch.setattr(workers, "usable_cpus", lambda: count)
    monkeypatch.setattr(graph, "_BUILD_ENTRIES_PER_WORKER", 1)


@settings(max_examples=20, deadline=None)
@given(n=st.integers(1, 25), levels=st.integers(1, 20),
       roads=st.floats(0.3, 1.0), farm_seed=st.integers(0, 2**16),
       d_max=st.sampled_from([40.0, 120.0, 400.0]))
def test_parallel_build_matches_one_worker(n, levels, roads, farm_seed,
                                           d_max):
    cells = gen_random(n, 100.0, 10.0, seed=farm_seed, road_fraction=roads)
    cfg = PlannerConfig(d_max=d_max, battery_levels=levels)
    with mock.patch.object(workers, "usable_cpus", lambda: 1):
        serial = matrix_bytes(build_instance(cells, cfg))
    forks = []
    fork = os.fork

    def counted_fork():
        forks.append(1)
        return fork()

    with mock.patch.object(workers, "usable_cpus", lambda: 3), \
            mock.patch.object(graph, "_BUILD_ENTRIES_PER_WORKER", 1), \
            mock.patch.object(os, "fork", counted_fork):
        assert matrix_bytes(build_instance(cells, cfg)) == serial
    assert len(forks) == min(n, 3) - 1
    assert_no_child_left()


@pytest.mark.parametrize("in_child", [True, False])
def test_failing_build_worker_raises_and_leaves_no_child(monkeypatch,
                                                         in_child):
    parent = os.getpid()
    source_rows = graph._source_rows

    def rows_or_fail(i, *args):
        if (os.getpid() != parent) == in_child:
            raise ValueError(f"cell {i} failed")
        return source_rows(i, *args)

    forced_workers(monkeypatch, 3)
    monkeypatch.setattr(graph, "_source_rows", rows_or_fail)
    with pytest.raises(ValueError, match="failed"):
        build_instance(gen_random(6, 40.0, 8.0, seed=4), spec_cfg())
    assert_no_child_left()


def test_failed_fork_builds_in_process(monkeypatch):
    cells = gen_random(6, 40.0, 8.0, seed=4)
    serial = matrix_bytes(build_instance(cells, spec_cfg()))

    def refused():
        raise OSError("fork refused")

    forced_workers(monkeypatch, 3)
    monkeypatch.setattr(os, "fork", refused)
    assert matrix_bytes(build_instance(cells, spec_cfg())) == serial
    assert_no_child_left()


def test_small_build_never_forks(monkeypatch):
    # Six cells at C=20, the largest farm of the exact solver's workload
    # size: the forks would cost more than they save.
    def forbidden(*args, **kwargs):
        raise AssertionError("forked or shared")

    monkeypatch.setattr(workers, "usable_cpus", lambda: 64)
    monkeypatch.setattr(os, "fork", forbidden)
    monkeypatch.setattr(mmap, "mmap", forbidden)
    g = build_instance(gen_random(6, 40.0, 8.0, seed=4),
                       PlannerConfig(d_max=120.0, battery_levels=20))
    assert len(g.cost) == 241

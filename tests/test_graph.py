"""Graph construction tests: edge costs, the 18-option minimum, the
depot cluster and the dense matrix, checked against oracle18."""

import hashlib
import math
import random

import numpy as np
import pytest

from oracle18 import oracle_edge_cost, oracle_type_cost

from airmule import graph
from airmule.energy import PlannerConfig
from airmule.errors import InstanceTooLarge
from airmule.geometry import Cell, Site
from airmule.graph import (EdgeType, Vertex, build_instance, edge_breakdown,
                           type_cost)
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
    cost, split = type_cost(EdgeType.M_M, u, v, cells, cfg)
    assert cost == 20.0
    assert split.total == 0


def test_entry_stop_cost_example():
    cells, cfg = spec_cells(), spec_cfg()
    u = Vertex(0, "A", 20)
    v = Vertex(1, "A", 20)
    cost, split = type_cost(EdgeType.M_MDU, u, v, cells, cfg)
    assert cost == 78.0
    assert split.at_entry == 4


def test_ride_cost_example():
    cells, cfg = spec_cells(), spec_cfg()
    u = Vertex(0, "A", 20)
    v = Vertex(1, "A", 20)
    cost, split = type_cost(EdgeType.M_DTU, u, v, cells, cfg)
    assert cost == 110.0
    assert split.in_transit == 2


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
        cost, split = type_cost(t, u, v, cells, cfg)
        assert cost == math.inf and split is None
    # entry-side stops remain possible
    cost, _ = type_cost(EdgeType.M_MDU, u, v, cells, cfg)
    assert math.isfinite(cost)

    # an off-road entry site rules out every layout that lands there;
    # arriving with 18 levels, each of them balances on the road
    cells = [
        Cell(0, Site(0, 0.0, 0.0), Site(1, 10.0, 0.0)),
        Cell(1, Site(2, 20.0, 0.0, on_road=False), Site(3, 30.0, 0.0)),
    ]
    v = Vertex(1, "A", 18)
    for t in (EdgeType.M_DTU, EdgeType.M_MDU, EdgeType.M_DUMDU):
        assert type_cost(t, u, v, cells, cfg) == (math.inf, None)
    cost, _ = type_cost(EdgeType.M_DUM, u, v, cells, cfg)
    assert math.isfinite(cost)

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
            assert type_cost(t, u, v, cells, cfg) == (math.inf, None)
    cost, split = type_cost(EdgeType.M_DTU, u, v, cells, cfg)
    assert math.isfinite(cost) and split.in_transit == 2


def test_edge_breakdown_rejects_depot_and_same_cell():
    cells, cfg = spec_cells(), spec_cfg()
    depot = Vertex(-1, None, 20, is_depot=True)
    u = Vertex(0, "A", 20)
    with pytest.raises(ValueError):
        edge_breakdown(EdgeType.M_M, depot, u, cells, cfg)
    with pytest.raises(ValueError):
        edge_breakdown(EdgeType.M_M, u, Vertex(0, "B", 5), cells, cfg)


def test_build_instance_shape():
    cells, cfg = spec_cells(), spec_cfg()
    g = build_instance(cells, cfg)
    assert g.n_cells == 2
    assert g.levels == 20
    assert g.n_vertices == 2 * 2 * 20 + 1
    assert len(g.clusters) == 3
    assert g.vertices[0].is_depot
    # vertex_id round-trips through cluster_of
    for cell in range(2):
        for end in ("A", "B"):
            for level in (1, 20):
                vid = g.vertex_id(cell, end, level)
                assert g.cluster_of(vid) == cell + 1
                vert = g.vertices[vid]
                assert (vert.cell_index, vert.entry_end, vert.level) == \
                    (cell, end, level)


def test_cluster_block_layout():
    # The solvers view cost[1:, 1:] as (n, 2C, n, 2C) cluster blocks, which
    # needs cluster c >= 1 to own exactly the 2C consecutive vertex ids
    # starting at 1 + (c - 1) * 2C.
    for n, C in ((1, 1), (2, 20), (5, 3)):
        g = build_instance(gen_random(n, 40.0, 8.0, seed=n),
                           PlannerConfig(d_max=90.0, battery_levels=C))
        assert g.clusters[0] == [0]
        assert len(g.clusters) == n + 1
        for c in range(1, n + 1):
            assert g.clusters[c] == list(range(1 + (c - 1) * 2 * C,
                                               1 + c * 2 * C))
        assert g.cost.shape == (1 + n * 2 * C, 1 + n * 2 * C)
        assert g.cost.flags.c_contiguous


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
            u = rng.randrange(1, g.n_vertices)
            v = rng.randrange(1, g.n_vertices)
            if g.cluster_of(u) == g.cluster_of(v):
                continue
            expect_cost, expect_idx = oracle_edge_cost(
                g.vertices[u], g.vertices[v], cells, cfg)
            mat = float(g.cost[u, v])
            if math.isinf(expect_cost):
                assert math.isinf(mat)
                assert int(g.best_type[u, v]) == -1
            else:
                assert mat == expect_cost
                assert int(g.best_type[u, v]) == expect_idx
                # the scalar evaluation of the winning template agrees
                got, _ = type_cost(EdgeType(expect_idx), g.vertices[u],
                                   g.vertices[v], cells, cfg)
                assert got == mat


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
                got, _ = type_cost(EdgeType(code), u, v, cells, cfg)
                assert got == expect_cost


def test_breakdown_cost_matches_matrix_seeded():
    rng = random.Random(55)
    cfg = PlannerConfig(d_max=60.0, battery_levels=5, ugv_speed_ratio=0.4)
    cells = gen_random(3, 25.0, 7.0, seed=8)
    g = build_instance(cells, cfg)
    seen = 0
    for _ in range(400):
        u = rng.randrange(1, g.n_vertices)
        v = rng.randrange(1, g.n_vertices)
        if g.cluster_of(u) == g.cluster_of(v):
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
    # before the vertex list or any matrix is built.
    def no_alloc(*args, **kwargs):
        raise AssertionError("matrix allocated")

    monkeypatch.setattr(np, "full", no_alloc)
    monkeypatch.setattr(np, "zeros", no_alloc)
    monkeypatch.setattr(graph, "Vertex", no_alloc)
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

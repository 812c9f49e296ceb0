"""Graph construction tests: edge costs, the 18-option minimum, the
depot cluster and the dense matrix, checked against oracle18."""

import hashlib
import math
import mmap
import os
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracle18 import FW, MR, PROFILES, oracle_edge_cost, oracle_type_cost

from airmule import graph, workers
from airmule.energy import PlannerConfig, RechargeSplit
from airmule.errors import InstanceTooLarge
from airmule.geometry import Cell, FlightMode, Site
from airmule.graph import (EdgeType, Vertex, build_instance, cluster_span,
                           cluster_views)
from airmule.instances import gen_random


def spec_cells():
    return [
        Cell(0, Site(0, 0.0, 0.0), Site(1, 10.0, 0.0)),
        Cell(1, Site(2, 20.0, 0.0), Site(3, 30.0, 0.0)),
    ]


def spec_cfg():
    return PlannerConfig(d_max=100.0, battery_levels=20, ugv_speed_ratio=0.2)


def typed(t, u, v, cells, cfg):
    """The edge between the vertices u and v of cells' graph as type t."""
    g = build_instance(cells, cfg)
    return g.typed(g.vertex_id(u.cell_index, u.entry_end, u.level),
                   g.vertex_id(v.cell_index, v.entry_end, v.level), t)


def cheapest(g, u, v):
    """The edge u -> v as the type edge_costs picks, or None."""
    code = int(g.edge_costs([u], [v])[1][0])
    return None if code < 0 else g.typed(u, v, EdgeType(code))


def test_edge_type_order_and_labels():
    assert [t.name for t in EdgeType] == [
        "M_M", "F_F", "M_F", "F_M", "M_DTU", "F_DTU",
        "M_MDU", "F_FDU", "M_FDU", "F_MDU",
        "M_DUM", "F_DUF", "M_DUF", "F_DUM",
        "M_DUMDU", "F_DUFDU", "M_DUFDU", "F_DUMDU"]
    # Every type's layout against the oracle's own table, so a wrong or
    # shifted row fails even for a type that never wins an edge.
    mode = {FlightMode.MULTI_ROTOR: MR, FlightMode.FIXED_WING: FW, None: None}
    assert [(mode[t.cover_mode], mode[t.transit_mode], t.stops)
            for t in EdgeType] == PROFILES


def test_pure_flight_cost_example():
    cells, cfg = spec_cells(), spec_cfg()
    u = Vertex(0, "A", 20)
    v = Vertex(1, "A", 16)
    bd = typed(EdgeType.M_M, u, v, cells, cfg)
    assert bd.cost == 20.0
    assert bd.split.total == 0


def test_entry_stop_cost_example():
    cells, cfg = spec_cells(), spec_cfg()
    u = Vertex(0, "A", 20)
    v = Vertex(1, "A", 20)
    bd = typed(EdgeType.M_MDU, u, v, cells, cfg)
    assert bd.cost == 78.0
    assert bd.split.at_entry == 4


def test_ride_cost_example():
    cells, cfg = spec_cells(), spec_cfg()
    u = Vertex(0, "A", 20)
    v = Vertex(1, "A", 20)
    bd = typed(EdgeType.M_DTU, u, v, cells, cfg)
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
        assert typed(t, u, v, cells, cfg) is None
    # entry-side stops remain possible
    assert math.isfinite(typed(EdgeType.M_MDU, u, v, cells, cfg).cost)

    # an off-road entry site rules out every layout that lands there;
    # arriving with 18 levels, each of them balances on the road
    cells = [
        Cell(0, Site(0, 0.0, 0.0), Site(1, 10.0, 0.0)),
        Cell(1, Site(2, 20.0, 0.0, on_road=False), Site(3, 30.0, 0.0)),
    ]
    v = Vertex(1, "A", 18)
    for t in (EdgeType.M_DTU, EdgeType.M_MDU, EdgeType.M_DUMDU):
        assert typed(t, u, v, cells, cfg) is None
    assert math.isfinite(typed(EdgeType.M_DUM, u, v, cells, cfg).cost)

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
            assert typed(t, u, v, cells, cfg) is None
    bd = typed(EdgeType.M_DTU, u, v, cells, cfg)
    assert math.isfinite(bd.cost) and bd.split.in_transit == 2


def test_edge_breakdown_rejects_depot_and_same_cell():
    g = build_instance(spec_cells(), spec_cfg())
    u = g.vertex_id(0, "A", 20)
    with pytest.raises(ValueError):
        g.typed(0, u, EdgeType.M_M)
    with pytest.raises(ValueError):
        g.typed(u, g.vertex_id(0, "B", 5), EdgeType.M_M)
    for bad in (-1, g.n_vertices, 10**30):
        with pytest.raises(ValueError, match="out of range"):
            g.typed(bad, u, EdgeType.M_M)
        with pytest.raises(ValueError, match="out of range"):
            g.typed(u, bad, EdgeType.M_M)


@pytest.mark.parametrize("cells, cfg", [
    # Slow and fast fixed wing: multi-rotor or fixed-wing closes from a
    # full battery, fixed-wing alone at 2-3 levels, neither at 1.
    (spec_cells(), PlannerConfig(d_max=25.0, battery_levels=10,
                                 fixed_wing_ratio=2.0, fixed_wing_speed=0.5)),
    (spec_cells(), PlannerConfig(d_max=25.0, battery_levels=10,
                                 fixed_wing_ratio=2.0, fixed_wing_speed=2.0)),
    # Equal speeds: multi-rotor closes on the tie where it fits.
    (gen_random(5, 40.0, 8.0, seed=0, road_fraction=0.7),
     PlannerConfig(d_max=20.0, battery_levels=4, fixed_wing_speed=1.0)),
], ids=["fw-slow", "fw-fast", "tight"])
def test_typed_closing_edge_is_the_last_coverage_pass(cells, cfg):
    # typed(u, 0, t) is the final coverage pass of u's cell, read from the
    # legs, for the type column 0 of best_type holds; every other type,
    # and every type on a pass the battery cannot fly, gives None.
    g = build_instance(cells, cfg)
    kinds = set()
    for u in range(1, g.n_vertices):
        code = int(g.best_type[u, 0])
        kinds.add(code)
        for t in EdgeType:
            bd = g.typed(u, 0, t)
            if t.value != code:
                assert bd is None
                continue
            v = g.vertex(u)
            x = ("A", "B").index(v.entry_end)
            cover = 0 if t is EdgeType.M_M else 1
            assert bd.cost == g.cost[u, 0]
            assert (bd.cover_time, bd.cover_cons) == tuple(
                g.legs.covers[v.cell_index, cover])
            assert bd.cover_heading == (
                g.legs.headings[v.cell_index, x] if cover else None)
            cell = g.cells[v.cell_index]
            assert (bd.entry_site_i, bd.exit_site_i) == (
                cell.end(v.entry_end), cell.other_end(v.entry_end))
            assert bd.split == RechargeSplit(0, 0, 0)
            assert bd.entry_site_j is None
    assert len(kinds) > 1


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
    # 1.44M entries; the digests come from a build forked over two
    # workers, so they hold the one-process build to those bytes.
    ((30, 100.0, 10.0, 3, 1.0), dict(d_max=400.0, battery_levels=20),
     "c6391aab433e5f91a74db716268c0165227c0b416d3f431f86038e1f14d089fe",
     "f38f56ec4deffd90095e7fc7aaa07889f6f4f8ea32873daab212b342994bb35c"),
], ids=["tight-offroad", "n1", "n2", "C1", "fw-speed-turn", "long-legs",
        "n30-C20"])
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
                bd = g.typed(u, v, EdgeType(expect_idx))
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
                got = g.typed(uid, vid, EdgeType(code)).cost
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
        bd = cheapest(g, u, v)
        if bd is None:
            assert math.isinf(float(g.cost[u, v]))
            continue
        seen += 1
        assert bd.cost == float(g.cost[u, v])
        assert bd.edge_type.value == int(g.best_type[u, v])
    assert seen > 50


def pinned_tiny_farm():
    """Two cells 15 m apart, one entry site off the road, and a third
    cell far past a full battery in either flight mode."""
    cells = [Cell(0, Site(0, 0.0, 0.0), Site(1, 10.0, 0.0)),
             Cell(1, Site(2, 25.0, 0.0), Site(3, 35.0, 0.0, on_road=False)),
             Cell(2, Site(4, 500.0, 0.0), Site(5, 510.0, 0.0))]
    return cells, PlannerConfig(d_max=40.0, battery_levels=4)


def test_pinned_tiny_farm_reaches_long_legs_and_capped_stops():
    # The farm the whole-matrix test below always runs: it has transit
    # legs of more than a full battery (C + 1 levels), and edges whose
    # cheapest type stops at both ends with a full battery at the exit,
    # the regime KJ + c2 > C where the entry stop charges too.
    cells, cfg = pinned_tiny_farm()
    g = build_instance(cells, cfg)
    C = cfg.battery_levels
    assert (g.legs.transit_c[:3] == C + 1).any()
    capped = [bd for u in range(1, len(g.cost)) for v in range(1, len(g.cost))
              if g.vertex(u).cell_index != g.vertex(v).cell_index
              and (bd := cheapest(g, u, v)) is not None
              and bd.edge_type.stops == "both" and bd.split.at_entry > 0]
    assert capped


@st.composite
def tiny_farms(draw):
    """Farms of 2-3 cells at 1-6 levels with any road flags, spread from
    a few metres to far past a full battery."""
    n = draw(st.integers(2, 3))
    coord = st.floats(0.0, draw(st.sampled_from([20.0, 80.0, 400.0])))
    cells = []
    for i in range(n):
        ax, ay = draw(coord), draw(coord)
        length, angle = draw(st.floats(1.0, 15.0)), draw(st.floats(0.0, 6.0))
        cells.append(Cell(i, Site(2 * i, ax, ay, draw(st.booleans())),
                          Site(2 * i + 1, ax + length * math.cos(angle),
                               ay + length * math.sin(angle),
                               draw(st.booleans()))))
    cfg = PlannerConfig(
        d_max=draw(st.sampled_from([15.0, 40.0, 90.0])),
        battery_levels=draw(st.integers(1, 6)),
        fixed_wing_ratio=draw(st.sampled_from([1.0, 3.0])),
        ugv_speed_ratio=draw(st.sampled_from([0.2, 1.0])),
        t_land=draw(st.sampled_from([0.7, 45.3])),
        t_takeoff=draw(st.sampled_from([0.3, 5.1])),
        recharge_rate=draw(st.sampled_from([0.55, 2.1, 7.3])),
        turn_radius=draw(st.sampled_from([1.0, 5.0])))
    return cells, cfg


@settings(max_examples=100, deadline=None)
@example(farm=pinned_tiny_farm())
@given(farm=tiny_farms())
def test_whole_matrix_matches_oracle(farm):
    # Every cell-to-cell entry of the matrix and of the winning types,
    # not a sample of pairs.
    cells, cfg = farm
    g = build_instance(cells, cfg)
    for u in range(1, len(g.cost)):
        for v in range(1, len(g.cost)):
            a, b = g.vertex(u), g.vertex(v)
            if a.cell_index == b.cell_index:
                assert math.isinf(g.cost[u, v]) and g.best_type[u, v] == -1
                continue
            cost, idx = oracle_edge_cost(a, b, cells, cfg)
            assert float(g.cost[u, v]) == cost
            assert int(g.best_type[u, v]) == (-1 if idx is None else idx)
    # Every type, losing ones too (_both's line regime never wins), on
    # about 40 of the cell-to-cell pairs, evenly spaced.
    V = g.n_vertices
    pairs = [(u, v) for u in range(1, V) for v in range(1, V)
             if g.vertex(u).cell_index != g.vertex(v).cell_index]
    for u, v in pairs[::max(1, len(pairs) // 40)]:
        for t in EdgeType:
            cost = oracle_type_cost(t.value, g.vertex(u), g.vertex(v), cells,
                                    cfg)
            bd = g.typed(u, v, t)
            if cost is None or math.isinf(cost):
                assert bd is None
            else:
                assert bd.cost == cost


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 8), levels=st.integers(1, 20),
       seed=st.integers(0, 2**16), roads=st.sampled_from([0.0, 0.5, 1.0]),
       d_max=st.sampled_from([30.0, 60.0, 120.0]))
def test_priced_edges_and_transposed_fill_match_dense(n, levels, seed, roads,
                                                      d_max):
    # Every vertex pair, the depot's row and column, inf entries and
    # same-cell pairs included: edge_costs gives the dense entry bit for
    # bit and the type of best_type, and the search's transposed fill is
    # cost.T byte for byte.
    g = build_instance(gen_random(n, 60.0, 8.0, seed=seed,
                                  road_fraction=roads),
                       PlannerConfig(d_max=d_max, battery_levels=levels,
                                     ugv_speed_ratio=0.3))
    V = g.n_vertices
    us, vs = np.divmod(np.arange(V * V), V)
    cost, code = g.edge_costs(us.tolist(), vs.tolist())
    assert cost.tobytes() == g.cost.tobytes()
    assert np.array_equal(code, g.best_type.ravel())
    # One edge a call, where a pure type alone can settle the call and
    # the stop and ride types are skipped.
    rng = random.Random(seed)
    for u, v in ((rng.randrange(V), rng.randrange(V)) for _ in range(300)):
        cost, code = g.edge_costs([u], [v])
        assert cost.tobytes() == g.cost[u, v].tobytes()
        assert code.tolist() == [g.best_type[u, v]]
    tmat = g.transposed_cost()
    assert tmat.flags.c_contiguous
    assert tmat.tobytes() == np.ascontiguousarray(g.cost.T).tobytes()


def test_capped_regime_wins_with_both_cover_modes():
    # The fill prices _both's capped regime once per transit leg, from the
    # least head of the two cover modes.  On this farm that regime wins
    # with each cover mode, so both sides of the minimum give entries, and
    # edge_costs, which prices every type alone, must give each pair's
    # dense entry and best_type.
    g = build_instance(gen_random(2, 60.0, 10.0, seed=0, road_fraction=1.0),
                       PlannerConfig(d_max=30.0, battery_levels=6,
                                     ugv_speed_ratio=0.2,
                                     fixed_wing_ratio=1.5))
    codes = set(g.best_type.ravel().tolist())
    assert codes & {EdgeType.M_DUMDU.value, EdgeType.M_DUFDU.value}
    assert codes & {EdgeType.F_DUFDU.value, EdgeType.F_DUMDU.value}
    V = g.n_vertices
    us, vs = np.divmod(np.arange(V * V), V)
    cost, code = g.edge_costs(us.tolist(), vs.tolist())
    assert cost.tobytes() == g.cost.tobytes()
    assert np.array_equal(code, g.best_type.ravel())


def test_edge_costs_refuse_ids_out_of_range():
    g = build_instance(spec_cells(), PlannerConfig(d_max=100.0,
                                                   battery_levels=3))
    for bad in (-1, g.n_vertices, 10**30):
        with pytest.raises(ValueError, match="out of range"):
            g.edge_costs([0, bad], [bad, 0])
    # Lists of unequal length are refused, not cut to the shorter one.
    with pytest.raises(ValueError):
        g.edge_costs([1, 2, 3], [7])
    cost, code = g.edge_costs([], [])
    assert cost.shape == code.shape == (0,)


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
    monkeypatch.setattr(np, "empty", no_alloc)
    monkeypatch.setattr(graph, "Vertex", no_alloc)
    with pytest.raises(InstanceTooLarge, match="bytes of matrices"):
        build_instance(spec_cells(), PlannerConfig(battery_levels=10**9))


def test_matrix_bound_counts_sixteen_bytes_per_entry(monkeypatch):
    # cost (8 bytes) and the search's transposed copy (8) per vertex pair:
    # the bound admits n=144 cells at C=20 levels but not n=145, and an
    # instance exactly at the bound builds while one byte less refuses it.
    assert (1 + 2 * 144 * 20) ** 2 * 16 <= graph._MATRIX_MAX_BYTES
    assert (1 + 2 * 145 * 20) ** 2 * 16 > graph._MATRIX_MAX_BYTES
    cfg = PlannerConfig(d_max=100.0, battery_levels=3)
    need = (1 + 2 * 2 * 3) ** 2 * 16
    monkeypatch.setattr(graph, "_MATRIX_MAX_BYTES", need)
    assert build_instance(spec_cells(), cfg).cost.shape == (13, 13)
    monkeypatch.setattr(graph, "_MATRIX_MAX_BYTES", need - 1)
    with pytest.raises(InstanceTooLarge, match=str(need)):
        build_instance(spec_cells(), cfg)


def test_build_never_forks(monkeypatch):
    # The build runs in this process at every size: 30 cells at C=20
    # (1.44M entries) on 64 usable CPUs neither fork nor share a mapping.
    def forbidden(*args, **kwargs):
        raise AssertionError("forked or shared")

    monkeypatch.setattr(workers, "usable_cpus", lambda: 64)
    monkeypatch.setattr(os, "fork", forbidden)
    monkeypatch.setattr(mmap, "mmap", forbidden)
    g = build_instance(gen_random(30, 100.0, 10.0, seed=3),
                       PlannerConfig(d_max=400.0, battery_levels=20))
    assert len(g.cost) == 1201

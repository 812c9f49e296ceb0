"""Clustered GTSP graph construction.

One cluster per cell with 2C battery-annotated vertices (C levels per
endpoint), plus a virtual depot cluster that enforces the full-battery
start and the open-path cost: leaving the depot is free only into
level-C vertices, and returning to the depot costs the final coverage
pass of the last cell.

This module owns the vertex layout: ClusteredGraph.vertex and vertex_id
map ids to vertices and back, cluster_span gives a cluster's ids and
cluster_views splits a matrix over the vertices into cluster blocks.
The depot is vertex 0, and cluster c >= 1 (cell c - 1) holds the 2C
consecutive ids from 1 + (c - 1) * 2C: end A, then end B, each with its
levels descending, so that argmin ties between equal-cost tours prefer
arriving with more charge (among equal-time options, the cheaper-energy
flight mode).  A matrix over the vertices splits without a copy into
(n, 2C, n, 2C) cluster blocks, a depot row and a depot column.

Between two vertices the edge cost is the minimum over eighteen travel
options that combine the coverage-leg flight mode with land, recharge,
take-off and UGV-ride choices on the transit leg.  Each option is one of
five stop-layout templates applied to a coverage leg and a transit leg.
The template is the single formula for an edge's cost and its recharge
split: build_instance evaluates it once per source cell, on a grid over
every end pair leaving that cell and every pair of battery levels, and
edge_breakdown, which decode expands into legs, on one pair of levels.
Off-road landing sites are mask terms of the templates, so a template
always returns a grid, infinite where the layout cannot be flown.

A source cell's rows of the matrices (its transit legs, then the
templates on its grid) depend on no other cell's rows.  Above a size
that pays for the forks, build_instance deals the source cells round-
robin to the fork pool of the workers module; the matrices then sit in
one shared anonymous mapping, every worker writes its cells' rows
straight into it, and the bytes are those of a one-process build.
"""

from __future__ import annotations

import enum
import math
import mmap
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import workers
from .energy import (PlannerConfig, RechargeSplit, consumption_levels,
                     recharge_time)
from .errors import InstanceTooLarge
from .geometry import (
    END_A,
    END_B,
    Cell,
    FlightMode,
    Pose,
    Site,
    dubins_shortest,
    euclid,
    traversal_heading,
    ugv_time,
)

INF = math.inf

# Bound on V * V * 18 bytes for V vertices: the cost matrix, best_type and
# the search's transposed penalty copy.  n=100 cells at C=20 levels take
# 288 MB.  build_instance refuses an instance over the bound before it
# allocates anything.
_MATRIX_MAX_BYTES = 512 << 20

# Matrix entries (V * V) per build worker; below twice this the build runs
# in this process alone.  A fork costs the caller 8-10 ms in all (a bare
# fork round trip is 5 ms; the rest is copy-on-write faults), so on a
# 2-core x86-64 host two workers lost 8-10 ms on builds of V * V <= 58k
# entries (4-6 cells at C=20, 13-26 ms), broke even near 100k and gained
# 23 ms of 95 at 231k and 93 ms of 253 at 642k.  2**17 starts the second
# worker at 262k entries, past the break-even with room for slower forks.
_BUILD_ENTRIES_PER_WORKER = 1 << 17

_MR = FlightMode.MULTI_ROTOR
_FW = FlightMode.FIXED_WING


class EdgeType(enum.Enum):
    """The eighteen travel options; enum order is the tie-break order."""

    M_M = 0
    F_F = 1
    M_F = 2
    F_M = 3
    M_DTU = 4
    F_DTU = 5
    M_MDU = 6
    F_FDU = 7
    M_FDU = 8
    F_MDU = 9
    M_DUM = 10
    F_DUF = 11
    M_DUF = 12
    F_DUM = 13
    M_DUMDU = 14
    F_DUFDU = 15
    M_DUFDU = 16
    F_DUMDU = 17

    @property
    def label(self) -> str:
        return self.name.replace("_", "-")

    @property
    def cover_mode(self) -> FlightMode:
        return _PROFILES[self][0]

    @property
    def transit_mode(self) -> Optional[FlightMode]:
        """Flight mode of the transit leg; None when riding the UGV."""
        return _PROFILES[self][1]

    @property
    def stops(self) -> str:
        """Where recharge stops happen: none, exit, entry, both or ride."""
        return _PROFILES[self][2]


_PROFILES = {
    EdgeType.M_M: (_MR, _MR, "none"),
    EdgeType.F_F: (_FW, _FW, "none"),
    EdgeType.M_F: (_MR, _FW, "none"),
    EdgeType.F_M: (_FW, _MR, "none"),
    EdgeType.M_DTU: (_MR, None, "ride"),
    EdgeType.F_DTU: (_FW, None, "ride"),
    EdgeType.M_MDU: (_MR, _MR, "entry"),
    EdgeType.F_FDU: (_FW, _FW, "entry"),
    EdgeType.M_FDU: (_MR, _FW, "entry"),
    EdgeType.F_MDU: (_FW, _MR, "entry"),
    EdgeType.M_DUM: (_MR, _MR, "exit"),
    EdgeType.F_DUF: (_FW, _FW, "exit"),
    EdgeType.M_DUF: (_MR, _FW, "exit"),
    EdgeType.F_DUM: (_FW, _MR, "exit"),
    EdgeType.M_DUMDU: (_MR, _MR, "both"),
    EdgeType.F_DUFDU: (_FW, _FW, "both"),
    EdgeType.M_DUFDU: (_MR, _FW, "both"),
    EdgeType.F_DUMDU: (_FW, _MR, "both"),
}


@dataclass(frozen=True)
class Vertex:
    cell_index: int  # -1 for the depot
    entry_end: Optional[str]  # "A" or "B", None for the depot
    level: int
    is_depot: bool = False


@dataclass(frozen=True)
class EdgeBreakdown:
    """Everything needed to expand one typed edge into executable legs."""

    edge_type: EdgeType
    cost: float
    split: RechargeSplit
    cover_time: float
    cover_cons: int
    cover_heading: Optional[float]  # fixed-wing cover only
    entry_site_i: Site
    exit_site_i: Site
    entry_site_j: Site
    transit_time: Optional[float]  # None when riding the UGV
    transit_cons: Optional[int]
    transit_start_heading: Optional[float]  # fixed-wing transit only
    transit_end_heading: Optional[float]
    ride_time: Optional[float]  # max(ugv travel, recharge), ride edges only


def _cover_legs(cell: Cell, cfg: PlannerConfig) -> tuple[tuple[float, int], ...]:
    """(time, levels) of the coverage pass: multi-rotor, then fixed-wing."""
    length = cell.length
    return ((length, consumption_levels(length, _MR, cfg)),
            (length / cfg.fixed_wing_speed, consumption_levels(length, _FW, cfg)))


# The ways from one cell's exit to the next cell's entry, in the order
# _pair_legs returns them.
_MR_LEG, _AIR_LEG, _STOP_LEG, _RIDE_LEG = range(4)


def _pair_legs(exit_i: Site, entry_j: Site, h_i: float, h_j: float,
               cfg: PlannerConfig) -> tuple[tuple[float, int], ...]:
    """(time, levels) of each transit leg of one ordered end pair.

    Airborne at the exit a fixed-wing leg starts on the coverage heading
    h_i; after a take-off the hybrid can rotate in place, so it starts
    already aligned with the next entry heading h_j.  Riding the UGV costs
    no flight energy.
    """
    d = euclid(exit_i, entry_j)
    start, goal = (exit_i.x, exit_i.y), (entry_j.x, entry_j.y)
    air = dubins_shortest(Pose(start, h_i), Pose(goal, h_j),
                          cfg.turn_radius).total_length
    stop = dubins_shortest(Pose(start, h_j), Pose(goal, h_j),
                           cfg.turn_radius).total_length
    return ((d, consumption_levels(d, _MR, cfg)),
            (air / cfg.fixed_wing_speed, consumption_levels(air, _FW, cfg)),
            (stop / cfg.fixed_wing_speed, consumption_levels(stop, _FW, cfg)),
            (ugv_time(exit_i, entry_j, cfg), 0))


# Stop-layout templates.  Each prices one edge type over arrays of levels
# KI (leaving cell i) and KJ (arriving at cell j), transit legs and road
# flags (exit site, entry site) that broadcast against them, and returns
# the cost grid with the recharge grids (at exit, at entry, in transit) it
# implies.  The cost is inf where the battery would leave [0, C] or a site
# the layout lands at is off the road.  build_instance calls them once per
# source cell, on the grid of every end pair leaving it by every pair of
# levels, and edge_breakdown on one pair of levels, so they are the one
# formula for both the cost and the recharge split of a typed edge.


def _pure(KI, KJ, cfg, cover, leg, roads):
    (t1, c1), (t2, c2) = cover, leg
    return np.where(KJ == KI - (c1 + c2), t1 + t2, INF), 0, 0, 0


def _ride(KI, KJ, cfg, cover, leg, roads):
    (t1, c1), (t_g, _) = cover, leg
    e = KJ - (KI - c1)
    mask = (KI - c1 >= 0) & (e >= 0) & roads[0] & roads[1]
    cost = (t1 + cfg.t_land) + np.maximum(t_g, cfg.recharge_rate * e) \
        + cfg.t_takeoff
    return np.where(mask, cost, INF), 0, 0, e


def _entry(KI, KJ, cfg, cover, leg, roads):
    (t1, c1), (t2, c2) = cover, leg
    arrival = KI - (c1 + c2)
    e = KJ - arrival
    mask = (arrival >= 0) & (e >= 0) & roads[1]
    cost = ((t1 + t2) + cfg.t_land) + cfg.recharge_rate * e + cfg.t_takeoff
    return np.where(mask, cost, INF), 0, e, 0


def _exit(KI, KJ, cfg, cover, leg, roads):
    (t1, c1), (t2, c2) = cover, leg
    after = KI - c1
    departure = KJ + c2
    e = departure - after
    mask = ((after >= 0) & (departure <= cfg.battery_levels) & (e >= 0)
            & roads[0])
    cost = ((t1 + cfg.t_land) + cfg.recharge_rate * e + cfg.t_takeoff) + t2
    return np.where(mask, cost, INF), e, 0, 0


def _both(KI, KJ, cfg, cover, leg, roads):
    C = cfg.battery_levels
    (t1, c1), (t2, c2) = cover, leg
    r, t_l, t_to = cfg.recharge_rate, cfg.t_land, cfg.t_takeoff
    after = KI - c1
    total = (KJ + c2) - after
    # Charge as much as the cap allows at the exit site; the leftover
    # moves to the entry site.  Total time is split-invariant.
    e1 = np.maximum(0, np.minimum(C, KJ + c2) - after)
    e2 = total - e1
    mask = (after >= 0) & (total >= 0) & (c2 <= C) & roads[0] & roads[1]
    cost = ((((t1 + t_l) + r * e1 + t_to) + t2) + t_l) + r * e2 + t_to
    return np.where(mask, cost, INF), e1, e2, 0


def _table_row(t: EdgeType):
    template = {"none": _pure, "ride": _ride, "entry": _entry,
                "exit": _exit, "both": _both}[t.stops]
    if t.stops == "ride":
        leg = _RIDE_LEG
    elif t.transit_mode is _MR:
        leg = _MR_LEG
    else:
        leg = _STOP_LEG if t.stops in ("exit", "both") else _AIR_LEG
    return template, (0 if t.cover_mode is _MR else 1), leg


# (template, index into _cover_legs, index into _pair_legs) per edge type,
# in enum order, so the first minimum over the rows is the tie-break.
_TABLE = tuple(_table_row(t) for t in EdgeType)


def edge_breakdown(t: EdgeType, v_from: Vertex, v_to: Vertex,
                   cells: list[Cell], cfg: PlannerConfig) -> Optional[EdgeBreakdown]:
    """Cost structure of one typed edge, or None when the type is infeasible."""
    if v_from.is_depot or v_to.is_depot:
        raise ValueError("typed edges connect cell vertices only")
    if v_from.cell_index == v_to.cell_index:
        raise ValueError("edges must connect different clusters")

    cell_i = cells[v_from.cell_index]
    cell_j = cells[v_to.cell_index]
    exit_i = cell_i.other_end(v_from.entry_end)
    entry_j = cell_j.end(v_to.entry_end)
    h_i = traversal_heading(cell_i, v_from.entry_end)
    h_j = traversal_heading(cell_j, v_to.entry_end)

    template, cover, leg = _TABLE[t.value]
    t1, c1 = _cover_legs(cell_i, cfg)[cover]
    t2, c2 = _pair_legs(exit_i, entry_j, h_i, h_j, cfg)[leg]
    out = template(v_from.level, v_to.level, cfg, (t1, c1), (t2, c2),
                   (exit_i.on_road, entry_j.on_road))
    if not math.isfinite(out[0]):
        return None
    split = RechargeSplit(*(int(e) for e in out[1:]))
    riding = leg == _RIDE_LEG
    fw = t.transit_mode is _FW
    return EdgeBreakdown(
        edge_type=t,
        cost=float(out[0]),
        split=split,
        cover_time=t1,
        cover_cons=c1,
        cover_heading=h_i if t.cover_mode is _FW else None,
        entry_site_i=cell_i.end(v_from.entry_end),
        exit_site_i=exit_i,
        entry_site_j=entry_j,
        transit_time=None if riding else t2,
        transit_cons=None if riding else c2,
        transit_start_heading=(h_i if leg == _AIR_LEG else h_j) if fw else None,
        transit_end_heading=h_j if fw else None,
        ride_time=(max(t2, recharge_time(split.in_transit, cfg))
                   if riding else None),
    )


def cluster_span(c: int, width: int) -> slice:
    """Vertex ids of cluster c >= 1, for clusters of width = 2C vertices."""
    return slice(1 + (c - 1) * width, 1 + c * width)


def cluster_views(mat: np.ndarray,
                  n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(blocks, depot row, depot column) of a square matrix over the
    vertices of n clusters, as views of shapes (n, 2C, n, 2C), (n, 2C) and
    (n, 2C): with span(c) = cluster_span(c, 2C), blocks[a, :, b, :] is
    mat[span(a + 1), span(b + 1)], row[a] is mat[0, span(a + 1)] and
    column[a] is mat[span(a + 1), 0]."""
    width = (len(mat) - 1) // n
    return (mat[1:, 1:].reshape(n, width, n, width),
            mat[0, 1:].reshape(n, width), mat[1:, 0].reshape(n, width))


class ClusteredGraph:
    """Dense GTSP instance over 2nC cell vertices plus one depot vertex.

    best_type holds the winning EdgeType value of each cell-to-cell edge
    and, in column 0, the cover mode of each closing edge (M_M or F_F);
    -1 marks an infeasible edge.
    """

    def __init__(self, cells: list[Cell], cfg: PlannerConfig,
                 cost: np.ndarray, best_type: np.ndarray) -> None:
        self.cells = cells
        self.cfg = cfg
        self.cost = cost
        self.best_type = best_type
        self.n_cells = len(cells)
        self.levels = cfg.battery_levels

    def vertex(self, vid: int) -> Vertex:
        """The vertex with id vid; ValueError unless 0 <= vid < len(cost)."""
        if not 0 <= vid < len(self.cost):
            raise ValueError(f"vertex id {vid} out of range")
        if vid == 0:
            return Vertex(-1, None, self.levels, is_depot=True)
        cell_index, k = divmod(vid - 1, 2 * self.levels)
        end, step = divmod(k, self.levels)
        return Vertex(cell_index, (END_A, END_B)[end], self.levels - step)

    def vertex_id(self, cell_index: int, end: str, level: int) -> int:
        if not (0 <= cell_index < self.n_cells and end in (END_A, END_B)
                and 1 <= level <= self.levels):
            raise ValueError(f"vertex {(cell_index, end, level)} out of range")
        offset = 0 if end == END_A else self.levels
        return (cluster_span(cell_index + 1, 2 * self.levels).start + offset
                + (self.levels - level))

    def breakdown(self, u: int, v: int) -> Optional[EdgeBreakdown]:
        code = int(self.best_type[u, v])
        if code < 0:
            return None
        return edge_breakdown(EdgeType(code), self.vertex(u), self.vertex(v),
                              self.cells, self.cfg)


def _source_legs(i: int, cells: list[Cell], cfg: PlannerConfig,
                 headings: list[list[float]]) -> tuple[np.ndarray, np.ndarray]:
    """(time, levels) of every transit leg leaving cell i, on axes (leg,
    x, j, y) for exit i.other_end(x) and entry j.end(y); the j == i
    entries stay 0, and _source_rows clears their edges."""
    n = len(cells)
    ends = (END_A, END_B)
    leg_t = np.zeros((4, 2, n, 2))
    leg_c = np.zeros((4, 2, n, 2), dtype=np.int64)
    for x, end_x in enumerate(ends):
        exit_i = cells[i].other_end(end_x)
        for j in range(n):
            if j == i:
                continue
            for y, end_y in enumerate(ends):
                legs = _pair_legs(exit_i, cells[j].end(end_y),
                                  headings[i][x], headings[j][y], cfg)
                leg_t[:, x, j, y] = [t for t, _ in legs]
                leg_c[:, x, j, y] = [c for _, c in legs]
    return leg_t, leg_c


def _source_rows(i: int, cfg: PlannerConfig,
                 cover: tuple[tuple[float, int], ...],
                 source_legs: tuple[np.ndarray, np.ndarray],
                 exit_road: np.ndarray,
                 entry_road: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The cost and best_type entries of source cell i's 2C rows towards
    every cell vertex, cell i's own cleared to (inf, -1)."""
    n = len(entry_road)
    C = cfg.battery_levels
    # Every template runs once on a grid with axes (x, level_i, j, y,
    # level_j); levels descend along their axes, which is the vertex order
    # inside each endpoint block.  A strict < keeps the first minimum in
    # _TABLE order, the tie-break.
    KI = np.arange(C, 0, -1, dtype=np.int64)[None, :, None, None, None]
    KJ = np.arange(C, 0, -1, dtype=np.int64)
    leg_t, leg_c = source_legs
    legs = [(leg_t[k][:, None, :, :, None], leg_c[k][:, None, :, :, None])
            for k in range(4)]
    roads = (exit_road[i][:, None, None, None, None],
             entry_road[None, None, :, :, None])
    block = np.full((2, C, n, 2, C), INF)
    types = np.full(block.shape, -1, dtype=np.int16)
    for code, (template, cover_k, leg) in enumerate(_TABLE):
        grid = template(KI, KJ, cfg, cover[cover_k], legs[leg], roads)[0]
        better = grid < block
        np.minimum(block, grid, out=block)
        types[better] = code
    block[:, :, i] = INF
    types[:, :, i] = -1
    return block.reshape(2 * C, 2 * n * C), types.reshape(2 * C, 2 * n * C)


def _shared_matrices(V: int) -> tuple[np.ndarray, np.ndarray]:
    """cost (inf) and best_type (-1), V x V each, in one anonymous mapping
    that forked workers write into and this process reads."""
    buf = mmap.mmap(-1, V * V * 10)
    cost = np.frombuffer(buf, np.float64, V * V).reshape(V, V)
    best_type = np.frombuffer(buf, np.int16, V * V, V * V * 8).reshape(V, V)
    cost.fill(INF)
    best_type.fill(-1)
    return cost, best_type


def build_instance(cells: list[Cell], cfg: PlannerConfig) -> ClusteredGraph:
    """Build the clustered graph for a list of cells."""
    if not cells:
        raise ValueError("need at least one cell")
    ordered = sorted(cells, key=lambda c: c.index)
    if [c.index for c in ordered] != list(range(len(ordered))):
        raise ValueError("cell indices must be unique and contiguous from 0")
    cells = ordered

    n = len(cells)
    C = cfg.battery_levels
    V = 1 + 2 * n * C
    need = V * V * 18
    if need > _MATRIX_MAX_BYTES:
        raise InstanceTooLarge(f"{n} cells at {C} battery levels need {need} "
                               f"bytes of matrices, over {_MATRIX_MAX_BYTES}")

    ends = (END_A, END_B)
    covers = [_cover_legs(cell, cfg) for cell in cells]
    headings = [[traversal_heading(cell, e) for e in ends] for cell in cells]
    exit_road = np.array([[c.other_end(e).on_road for e in ends]
                          for c in cells])
    entry_road = np.array([[c.end(e).on_road for e in ends] for c in cells])

    count = max(1, min(workers.usable_cpus(), n,
                       V * V // _BUILD_ENTRIES_PER_WORKER))
    if count > 1:
        cost, best_type = _shared_matrices(V)
    else:
        cost = np.full((V, V), INF)
        best_type = np.full((V, V), -1, dtype=np.int16)

    def fill(share: list[int]) -> list:
        # All of the share's transit legs, then all of its templates: a
        # build that alternates the two cell by cell ran about 1% slower.
        legs = [_source_legs(i, cells, cfg, headings) for i in share]
        for i, source_legs in zip(share, legs):
            rows = cluster_span(i + 1, 2 * C)
            cost[rows, 1:], best_type[rows, 1:] = _source_rows(
                i, cfg, covers[i], source_legs, exit_road, entry_road)
        return []

    workers.in_workers(fill, list(range(n)), count)

    # Depot edges: free departure into full-battery vertices, and the final
    # coverage pass on the way back, in the faster battery-feasible mode
    # (multi-rotor on a tie).
    k = np.tile(np.arange(C, 0, -1), 2)  # the levels of a cluster's vertices
    for i in range(n):
        (t_m, c_m), (t_f, c_f) = covers[i]
        back_m = np.where(k >= c_m, t_m, INF)
        back_f = np.where(k >= c_f, t_f, INF)
        back = np.minimum(back_m, back_f)
        modes = np.where(back_m <= back_f, EdgeType.M_M.value,
                         EdgeType.F_F.value)
        modes[~np.isfinite(back)] = -1
        span = cluster_span(i + 1, 2 * C)
        cost[0, span] = np.where(k == C, 0.0, INF)
        cost[span, 0] = back
        best_type[span, 0] = modes

    return ClusteredGraph(cells, cfg, cost, best_type)

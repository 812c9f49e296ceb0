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
five stop-layout templates applied to a coverage leg and a transit leg, and
one table, _LAYOUTS, states which, in EdgeType order: the tie-break order.
For one end pair, a template's cost depends on the two battery levels
only through their difference d = KJ - KI, inside bounds on KI and KJ,
so a template prices a line over the 2C - 1 values of d, and its C x C
grid of level pairs is a Toeplitz view of that line; the one regime that
is no line, stopping at both ends with a full battery at the exit, is a
term in KI plus a term in KJ.  The template is the single formula for an
edge's cost and its recharge split, read in two ways.  A matrix fill
prices the lines of every end pair leaving a block of source cells in one
call per template, lifts them to their grids as views and keeps only the
minimum, one grid per class of types that share their bounds: 13 grids
for the 18 types.  _priced reads a template at given levels inside its
battery bounds, and _least takes the first type in EdgeType order that
gives the least cost, for the n + 1 edges of a tour in
ClusteredGraph.edge_costs, so only a tour's edges are ever typed, and for
a block's grids in best_type.  ClusteredGraph.typed, which decode expands
into legs, prices one edge, the closing pass too, as its winning type.
Off-road landing sites are mask terms of the templates, infinite where
the layout cannot be flown.

build_instance computes only the legs, once per graph: the coverage
passes of every cell and the transit legs of every ordered end pair of
the farm in one array pass (geometry.dubins_arrays for the fixed-wing
legs), and the graph keeps them; the templates, edge_costs and
best_type all read those arrays, so decode evaluates no Dubins path.  A
source cell's rows of the cost matrix then depend on no other cell's
rows, and a fill writes them in this process, a block of source cells
at a time, either as the rows of ClusteredGraph.cost, built on first
read, or as the columns of the GLNS search's transposed matrix
(ClusteredGraph.transposed_cost).  A GLNS plan thus holds one V x V
array, and an exact plan holds cost alone.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .energy import (PlannerConfig, RechargeSplit, consumption_levels,
                     recharge_time)
from .errors import InstanceTooLarge
# dubins_shortest is not called here; it stays importable from this
# module beside consumption_levels, the two names perfbench's --trace 1
# wraps by name.
from .geometry import (  # noqa: F401
    END_A,
    END_B,
    Cell,
    FlightMode,
    Site,
    dubins_arrays,
    dubins_shortest,
    elementwise,
    traversal_heading,
)

INF = math.inf

# Bound on V * V * 16 bytes for V vertices: two V x V float64 arrays.  A
# GLNS plan holds one, the search's transposed penalty matrix, and an
# exact plan one, the cost matrix; a caller that runs both solvers on one
# graph, or reads best_type, holds two.  n=100 cells at C=20 levels take
# 256 MB.  build_instance refuses an instance over the bound before it
# allocates anything.
_MATRIX_MAX_BYTES = 512 << 20

# End pairs per dubins_arrays call of _farm_legs.  Farms of up to 32
# cells take one call; larger ones take blocks, which keeps the pass's
# temporaries small: one call over glns-n50's 9,800 pairs read 1.0-2.5 MB
# more perfbench peak RSS than blocks of 4,096 (heap the search that
# follows did not reuse).
_PAIRS_PER_CALL = 1 << 12

# Cost entries per _block_rows call: the build prices the source cells
# in runs of at most this many entries, or one cell.  A call costs about
# 0.2 ms before its entries, and its temporaries take about 26 bytes an
# entry: on exact-small (4-6 cells at C=20, 6-10k entries a cell), 2**16
# entries filled a 5-cell farm 9% faster than 2**15 but raised peak RSS
# by 1 MB, and 2**14 filled it 8% slower.
_ENTRIES_PER_BLOCK = 1 << 15

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
    def cover_mode(self) -> FlightMode:
        return (_MR, _FW)[_COVER[self.value]]

    @property
    def transit_mode(self) -> Optional[FlightMode]:
        """Flight mode of the transit leg; None when riding the UGV."""
        return (_MR, _FW, _FW, None)[_LEG[self.value]]

    @property
    def stops(self) -> str:
        """Where recharge stops happen: none, exit, entry, both or ride."""
        return _LAYOUTS[_ROW[self.value]][1]


@dataclass(frozen=True)
class Vertex:
    cell_index: int  # -1 for the depot
    entry_end: Optional[str]  # "A" or "B", None for the depot
    level: int
    is_depot: bool = False


@dataclass(frozen=True)
class EdgeBreakdown:
    """Everything needed to expand one typed edge into executable legs;
    a closing edge is its coverage pass alone, from entry_site_j on None."""

    edge_type: EdgeType
    cost: float
    split: RechargeSplit
    cover_time: float
    cover_cons: int
    cover_heading: Optional[float]  # fixed-wing cover only
    entry_site_i: Site
    exit_site_i: Site
    entry_site_j: Optional[Site] = None
    transit_time: Optional[float] = None  # None when riding the UGV
    transit_cons: Optional[int] = None
    transit_start_heading: Optional[float] = None  # fixed-wing transit only
    transit_end_heading: Optional[float] = None
    ride_time: Optional[float] = None  # max(ugv travel, recharge), rides only


# The ways from one cell's exit to the next cell's entry, in the order of
# the leading axis of _Legs.transit_t and transit_c.
_MR_LEG, _AIR_LEG, _STOP_LEG, _RIDE_LEG = range(4)

_ENDS = (END_A, END_B)


class _Legs(NamedTuple):
    """Every flight leg of a farm, as (time, levels).

    covers[i, mode] is cell i's coverage pass, multi-rotor then
    fixed-wing, in floats: levels are small integers, exact as floats.
    Traversal (i, x) enters cell i at end _ENDS[x]; headings[i, x] is its
    coverage heading, and exit_road[i, x] and entry_road[i, x] are the
    road flags of its exit and entry site, so exit_road is entry_road
    with the ends reversed.  transit_t[k, i, x, j, y] and transit_c[k, i,
    x, j, y] are the time and levels of transit leg k, one of _MR_LEG,
    _AIR_LEG, _STOP_LEG, _RIDE_LEG, from the exit of traversal (i, x) to
    the entry of traversal (j, y); the j == i entries are no edges and
    hold 0.
    """

    covers: np.ndarray
    headings: np.ndarray
    exit_road: np.ndarray
    entry_road: np.ndarray
    transit_t: np.ndarray
    transit_c: np.ndarray


def _farm_legs(cells: list[Cell], cfg: PlannerConfig) -> _Legs:
    """All of a farm's legs, the transit legs of every ordered end pair
    in one array pass.

    Airborne at the exit a fixed-wing leg starts on the coverage heading
    of cell i; after a take-off the hybrid can rotate in place, so it
    starts already aligned with the entry heading of cell j.  Riding the
    UGV costs no flight energy.
    """
    n = len(cells)
    # The arrays the graph keeps come first, below the pass's temporaries
    # on the heap; allocated last they left about 0.2 MB more perfbench
    # peak RSS on glns-n50, and covers and entry_road 0.1-0.2 MB more
    # on exact-small.
    transit_t = np.zeros((4, n, 2, n, 2))
    transit_c = np.zeros((4, n, 2, n, 2), dtype=np.int64)
    length = np.array([cell.length for cell in cells])
    # Python floats overflow to inf silently, and so do these arrays.
    with np.errstate(over="ignore"):
        covers = np.array([length, consumption_levels(length, _MR, cfg),
                           length / cfg.fixed_wing_speed,
                           consumption_levels(length, _FW, cfg)]
                          ).T.reshape(n, 2, 2)
    entry_road = np.array([[c.end(e).on_road for e in _ENDS] for c in cells])
    headings = np.array([[traversal_heading(c, e) for e in _ENDS]
                         for c in cells])
    entries = np.array([[(c.end(e).x, c.end(e).y) for e in _ENDS]
                        for c in cells])
    exits = entries[:, ::-1]
    # The end pairs (i, x) -> (j, y) between two different cells; the
    # j == i entries stay 0.
    pairs = np.broadcast_to((np.arange(n)[:, None] != np.arange(n))
                            [:, None, :, None], (n, 2, n, 2))
    i, x, j, y = np.nonzero(pairs)
    (ex, ey), (nx, ny) = exits[i, x].T, entries[j, y].T
    h_j = headings[j, y]
    with np.errstate(over="ignore"):
        d = elementwise(math.hypot, nx - ex, ny - ey)
        # Airborne at the exit, then stopped: two start headings, stacked.
        h_ij = np.stack((headings[i, x], h_j))
        fw = np.empty(h_ij.shape)
        for k in range(0, len(d), _PAIRS_PER_CALL):
            s = slice(k, k + _PAIRS_PER_CALL)
            fw[:, s] = dubins_arrays(ex[s], ey[s], h_ij[:, s], nx[s], ny[s],
                                     h_j[s], cfg.turn_radius)[2]
        fw_t = fw / cfg.fixed_wing_speed
        ride = d / cfg.ugv_speed_ratio
    fw_c = consumption_levels(fw, _FW, cfg)
    transit_t[:, pairs] = (d, fw_t[0], fw_t[1], ride)
    transit_c[:3, pairs] = (consumption_levels(d, _MR, cfg), fw_c[0], fw_c[1])
    return _Legs(covers, headings, entry_road[:, ::-1], entry_road,
                 transit_t, transit_c)


# Stop-layout templates.  Each prices one edge type from the coverage pass
# (t1, c1) of cell i, a transit leg (t2, c2) and the road flags (exit site,
# entry site), as a line over the level difference d = KJ - KI between
# leaving cell i with KI levels and arriving at cell j with KJ; arguments
# may be arrays that broadcast.  A template returns (cost, split, lo, hi):
# the cost, inf where a site the layout lands at is off the road or a
# recharge would be negative; the recharge split (at exit, at entry, in
# transit) it implies; and the battery bounds KI >= lo and KJ <= C - hi
# outside which the type cannot fly the edge, 0 where there is none.
# _both's regime KJ + c2 > C is no line; _capped prices it.  _block_grids
# lifts the lines to their grids of level pairs and _priced reads them at
# given level pairs, so they are the one formula for both the cost and
# the recharge split of a typed edge.


def _pure(d, cfg, cover, leg, roads):
    (t1, c1), (t2, c2) = cover, leg
    # Arriving with KJ = KI - (c1 + c2) >= 1 levels, it needs no bound.
    return np.where(d == -(c1 + c2), t1 + t2, INF), (0, 0, 0), 0, 0


def _ride(d, cfg, cover, leg, roads):
    (t1, c1), (t_g, _) = cover, leg
    e = d + c1
    cost = (t1 + cfg.t_land) + np.maximum(t_g, cfg.recharge_rate * e) \
        + cfg.t_takeoff
    return np.where((e >= 0) & roads[0] & roads[1], cost, INF), (0, 0, e), \
        c1, 0


def _entry(d, cfg, cover, leg, roads):
    (t1, c1), (t2, c2) = cover, leg
    e = d + (c1 + c2)
    cost = ((t1 + t2) + cfg.t_land) + cfg.recharge_rate * e + cfg.t_takeoff
    return np.where((e >= 0) & roads[1], cost, INF), (0, e, 0), c1 + c2, 0


def _exit(d, cfg, cover, leg, roads):
    (t1, c1), (t2, c2) = cover, leg
    e = d + (c1 + c2)
    cost = ((t1 + cfg.t_land) + cfg.recharge_rate * e + cfg.t_takeoff) + t2
    return np.where((e >= 0) & roads[0], cost, INF), (e, 0, 0), c1, c2


def _both(d, cfg, cover, leg, roads):
    """Stops at both sites where KJ + c2 <= C (_capped prices the rest):
    the exit stop charges all of it and the entry stop, adding r * 0,
    none, so the cost is _exit's plus a landing and a take-off, never
    below it, where the entry site is on the road too."""
    cost, split, lo, hi = _exit(d, cfg, cover, leg, roads)
    return np.where(roads[1], (cost + cfg.t_land) + cfg.t_takeoff, INF), \
        split, lo, hi


def _capped_head(KI, cfg, cover, leg, roads):
    """(head, e1): _capped's term in KI, inf where KI < c1, c2 > C or a
    site is off the road, and the exit stop's charge e1 = C - KI + c1."""
    C = cfg.battery_levels
    (t1, c1), (t2, c2) = cover, leg
    t_l = cfg.t_land
    e1 = (C + c1) - KI
    head = ((((t1 + t_l) + cfg.recharge_rate * e1 + cfg.t_takeoff) + t2)
            + t_l)
    return np.where((KI >= c1) & (c2 <= C) & roads[0] & roads[1], head,
                    INF), e1


def _capped(head, KJ, cfg, c2, out=None):
    """(cost, e2) of _both where KJ + c2 > C, charging as much as the cap
    allows at the exit and e2 = KJ + c2 - C at the entry: (head + tail(KJ))
    + t_takeoff, the float order of the whole sum, tail inf outside the
    regime; out, when given, receives the cost.  As rounding is monotone,
    the least head of several cover modes gives their least cost."""
    e2 = KJ + (c2 - cfg.battery_levels)
    tail = np.where(e2 > 0, cfg.recharge_rate * e2, INF)
    cost = np.add(head, tail, out=out)
    return np.add(cost, cfg.t_takeoff, out=out), e2


# The one source of the types' layouts: per template, its EdgeType.stops
# name and its types' (cover mode, transit leg).  They run in EdgeType
# order, since _least keeps the first of equal costs (the tie-break).
_LAYOUTS = (
    (_pure, "none",
     ((_MR, _MR_LEG), (_FW, _AIR_LEG), (_MR, _AIR_LEG), (_FW, _MR_LEG))),
    (_ride, "ride", ((_MR, _RIDE_LEG), (_FW, _RIDE_LEG))),
    (_entry, "entry",
     ((_MR, _MR_LEG), (_FW, _AIR_LEG), (_MR, _AIR_LEG), (_FW, _MR_LEG))),
    (_exit, "exit",
     ((_MR, _MR_LEG), (_FW, _STOP_LEG), (_MR, _STOP_LEG), (_FW, _MR_LEG))),
    (_both, "both",
     ((_MR, _MR_LEG), (_FW, _STOP_LEG), (_MR, _STOP_LEG), (_FW, _MR_LEG))),
)

# By EdgeType value, each type's row, index into covers and transit leg;
# and each template with the values of its types, priced in one call.
_ROW, _COVER, _LEG = np.array([(row, mode is _FW, leg)
                               for row, (_, _, types) in enumerate(_LAYOUTS)
                               for mode, leg in types]).T
_KINDS = tuple((tpl, slice(*np.searchsorted(_ROW, (row, row + 1)).tolist()))
               for row, (tpl, _, _) in enumerate(_LAYOUTS))


def _priced(template, KI, KJ, cfg, cover, leg, roads):
    """(cost, split) of a template at the levels KI and KJ, numbers or
    arrays that broadcast with its legs: its line inside its battery
    bounds and, for _both, _capped where KJ + c2 > C; inf elsewhere."""
    C = cfg.battery_levels
    cost, split, lo, hi = template(KJ - KI, cfg, cover, leg, roads)
    if np.ndim(lo) or lo:
        cost = np.where(KI >= lo, cost, INF)
    if np.ndim(hi) or hi:
        cost = np.where(KJ <= C - hi, cost, INF)
    if template is _both:
        capped = KJ + leg[1] > C
        if np.any(capped):
            head, e1 = _capped_head(KI, cfg, cover, leg, roads)
            top, e2 = _capped(head, KJ, cfg, leg[1])
            cost = np.where(capped, top, cost)
            split = tuple(np.where(capped, a, b)
                          for a, b in zip((e1, e2, 0), split))
    return cost, split


def _least(cfg, KI, KJ, cover_t, cover_c, transit_t, transit_c, roads):
    """(cost, type) of edges at the levels KI and KJ, with legs that lead
    with an axis of cover modes or transit legs, all broadcasting: the
    least of the types' costs by _priced, and the first type in EdgeType
    order that gives it, -1 where none flies the edge.  Every type after
    the pure ones lands, so it costs at least the faster coverage pass, a
    landing and a take-off, in floats too (it adds nonnegative terms, and
    rounding is monotone); once every edge has a type at that floor, no
    later kind is priced."""
    floor = (cover_t.min(axis=0) + cfg.t_land) + cfg.t_takeoff
    prices, least = [], INF
    for template, types in _KINDS:
        if prices and (least <= floor).all():
            break
        cover = cover_t[_COVER[types]], cover_c[_COVER[types]]
        leg = transit_t[_LEG[types]], transit_c[_LEG[types]]
        prices.append(_priced(template, KI, KJ, cfg, cover, leg, roads)[0])
        least = np.minimum(least, prices[-1].min(axis=0))
    best = np.concatenate(prices).argmin(axis=0)
    return least, np.where(np.isfinite(least), best, -1)


def _closing(cover, k):
    """(time, EdgeType value) of a cell's final coverage pass back to the
    depot when it starts with k levels (an int or an array), cover being
    its ((time, levels) multi-rotor, (time, levels) fixed-wing), numbers
    or arrays that broadcast with k: the faster
    battery-feasible mode, multi-rotor on a tie, as M_M or F_F; (inf, -1)
    where neither mode fits."""
    (t_m, c_m), (t_f, c_f) = cover
    back_m = np.where(k >= c_m, t_m, INF)
    back_f = np.where(k >= c_f, t_f, INF)
    back = np.minimum(back_m, back_f)
    code = np.where(back_m <= back_f, EdgeType.M_M.value, EdgeType.F_F.value)
    return back, np.where(np.isfinite(back), code, -1)


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
    """GTSP instance over 2nC cell vertices plus one depot vertex: the
    cells, the config and the farm's legs.

    The dense cost matrix is not built with the graph.  cost builds it on
    first read, for the exact solver and for diagnostics and tests;
    transposed_cost fills the GLNS search's one V x V array from the
    templates without it; and edge_costs prices a tour's edges alone, for
    decode and tour_cost.  Edge types are not stored either: edge_costs
    gives each edge's winning type, typed expands one edge of a given type
    from the legs, and best_type is the whole matrix of winning types,
    computed on first read for diagnostics and tests.
    """

    def __init__(self, cells: list[Cell], cfg: PlannerConfig,
                 legs: _Legs) -> None:
        self.cells = cells
        self.cfg = cfg
        self.legs = legs
        self.n_cells = len(cells)
        self.levels = cfg.battery_levels
        self.n_vertices = 1 + 2 * self.n_cells * self.levels

    @functools.cached_property
    def cost(self) -> np.ndarray:
        """The V x V cost matrix, cost[u, v] the cost of u -> v, inf where
        no type flies the edge; built on first read."""
        cost = np.empty((self.n_vertices, self.n_vertices))
        _fill_cost(cost, self.cfg, self.legs)
        return cost

    def transposed_cost(self) -> np.ndarray:
        """A fresh C-ordered array equal to cost.T, filled straight from
        the templates: each block of source cells is written into its
        columns, so cost itself is never built."""
        tmat = np.empty((self.n_vertices, self.n_vertices))
        _fill_cost(tmat.T, self.cfg, self.legs)
        return tmat

    @functools.cached_property
    def best_type(self) -> np.ndarray:
        """The winning EdgeType value of each cell-to-cell edge and, in
        column 0, the cover mode of each closing edge (M_M or F_F); -1
        marks an infeasible edge.

        Each entry is the type edge_costs picks, from _least on the level
        grids of a block of source cells, where edge_costs calls it on a
        list of edges.  It takes 2 bytes per vertex pair, so a plan run
        never reads it; it serves diagnostics and tests.
        """
        n, C = self.n_cells, self.levels
        types = np.full((self.n_vertices,) * 2, -1, dtype=np.int16)
        blocks, _, column = cluster_views(types, n)
        blocks = blocks.reshape(n, 2, C, n, 2, C)
        for cells in _cell_blocks(n, C):
            _level_major(blocks[_as_slice(cells)])[...] = _least(
                self.cfg, *_block_legs(cells, self.cfg, self.legs))[1]
            for i in cells:
                blocks[i, :, :, i] = -1
        k = np.tile(np.arange(C, 0, -1), 2)  # the levels of a cluster
        column[...] = _closing(
            self.legs.covers.transpose(1, 2, 0)[..., None], k)[1]
        return types

    def vertex(self, vid: int) -> Vertex:
        """The vertex with id vid; ValueError unless 0 <= vid < n_vertices."""
        cell_index, end, level = self._split(vid)
        if vid == 0:
            return Vertex(-1, None, self.levels, is_depot=True)
        return Vertex(cell_index, _ENDS[end], level)

    def vertex_id(self, cell_index: int, end: str, level: int) -> int:
        if not (0 <= cell_index < self.n_cells and end in (END_A, END_B)
                and 1 <= level <= self.levels):
            raise ValueError(f"vertex {(cell_index, end, level)} out of range")
        offset = 0 if end == END_A else self.levels
        return (cluster_span(cell_index + 1, 2 * self.levels).start + offset
                + (self.levels - level))

    def _split(self, vid: int) -> tuple[int, int, int]:
        """(cell, end index into _ENDS, level) of vertex id vid, which
        mean nothing for the depot, id 0; ValueError unless 0 <= vid <
        n_vertices."""
        if not 0 <= vid < self.n_vertices:
            raise ValueError(f"vertex id {vid} out of range")
        C = self.levels
        cell, k = divmod(vid - 1, 2 * C)
        end, step = divmod(k, C)
        return cell, end, C - step

    def typed(self, u: int, v: int, t: EdgeType) -> Optional[EdgeBreakdown]:
        """The edge u -> v flown as type t, or None when t cannot fly it;
        ValueError for a departure or same-cell edge.  A closing edge u ->
        0 is u's coverage pass as the M_M or F_F type _closing picks."""
        (i, x, KI), (j, y, KJ) = self._split(u), self._split(v)
        if not u:
            raise ValueError("typed edges leave cell vertices only")
        if i == j:
            raise ValueError("edges must connect different clusters")
        row, cover, leg = _ROW[t.value], _COVER[t.value], _LEG[t.value]
        t1, c1 = self.legs.covers[i, cover].tolist()
        h_i = self.legs.headings[i, x].item()
        entry_i = self.cells[i].end(_ENDS[x])
        exit_i = self.cells[i].other_end(_ENDS[x])
        # The coverage pass, the EdgeBreakdown fields cover_time..exit_site_i.
        pass_i = (t1, int(c1), h_i if t.cover_mode is _FW else None, entry_i,
                  exit_i)
        if not v:
            back, code = _closing(self.legs.covers[i].tolist(), KI)
            if code != t.value:
                return None
            return EdgeBreakdown(t, float(back), RechargeSplit(0, 0, 0),
                                 *pass_i)
        t2 = self.legs.transit_t[leg, i, x, j, y].item()
        c2 = self.legs.transit_c[leg, i, x, j, y].item()
        entry_j = self.cells[j].end(_ENDS[y])
        cost, split = _priced(_LAYOUTS[row][0], KI, KJ, self.cfg,
                              (t1, c1), (t2, c2),
                              (exit_i.on_road, entry_j.on_road))
        if not math.isfinite(cost):
            return None
        split = RechargeSplit(*map(int, split))
        riding = leg == _RIDE_LEG
        fw = t.transit_mode is _FW
        h_j = self.legs.headings[j, y].item()
        return EdgeBreakdown(
            t, float(cost), split, *pass_i,
            entry_site_j=entry_j,
            transit_time=None if riding else t2,
            transit_cons=None if riding else c2,
            transit_start_heading=((h_i if leg == _AIR_LEG else h_j)
                                   if fw else None),
            transit_end_heading=h_j if fw else None,
            ride_time=(max(t2, recharge_time(split.in_transit, self.cfg))
                       if riding else None),
        )

    def edge_costs(self, us: Iterable[int],
                   vs: Iterable[int]) -> tuple[np.ndarray, np.ndarray]:
        """(cost, type) of each edge us[k] -> vs[k], bit for bit the
        entries of cost and best_type, priced from the legs alone:
        ValueError for an id out of range.

        The cell-to-cell edges are priced by _least, one template call per
        kind over all of them and their types, and _capped only when an
        edge is in its regime.
        """
        C = self.levels
        cost, code = [], []
        # The cell-to-cell edges, as (i, x, KI, j, y, KJ), and their places.
        edges, at = [], []
        for k, (u, v) in enumerate(zip(us, vs, strict=True)):
            (i, x, KI), (j, y, KJ) = self._split(u), self._split(v)
            price, kind = INF, -1
            if u and v:
                if i != j:
                    edges.append((i, x, KI, j, y, KJ))
                    at.append(k)
            elif v:
                # Free departure into full-battery vertices.
                price = 0.0 if KJ == C else INF
            elif u:
                # The final coverage pass on the way back.
                back, mode = _closing(self.legs.covers[i].tolist(), KI)
                price, kind = float(back), int(mode)
            cost.append(price)
            code.append(kind)
        cost, code = np.array(cost), np.array(code, dtype=np.int16)
        if not edges:
            return cost, code
        i, x, KI, j, y, KJ = np.array(edges).T
        legs = self.legs
        ends = slice(None), i, x, j, y
        least, best = _least(self.cfg, KI, KJ,
                             *legs.covers[i].transpose(2, 1, 0),
                             legs.transit_t[ends], legs.transit_c[ends],
                             (legs.exit_road[i, x], legs.entry_road[j, y]))
        cost[at] = least
        code[at] = best
        return cost, code


def _as_slice(cells: range) -> slice:
    return slice(cells.start, cells.stop, cells.step)


def _cell_blocks(n: int, C: int) -> Iterable[range]:
    """The n source cells in runs of at most _ENTRIES_PER_BLOCK cost
    entries."""
    size = max(1, _ENTRIES_PER_BLOCK // (4 * n * C * C))
    return (range(k, min(k + size, n)) for k in range(0, n, size))


def _level_major(rows: np.ndarray) -> np.ndarray:
    """A view of cost rows with axes (cell, x, level_i, j, y, level_j) in
    the axis order of _block_grids, (cell, x, level_i, level_j, j, y)."""
    return np.moveaxis(rows, -1, 3)


def _toeplitz(line: np.ndarray, C: int) -> np.ndarray:
    """A read-only view of lines over d = KJ - KI with axes (..., d, j, y),
    d descending from C - 1, as grids with axes (..., level_i, level_j, j,
    y): entry (a, b) of a grid, at KI = C - a and KJ = C - b, is the line
    at index C - 1 - (KJ - KI) = C - 1 - a + b."""
    step = line.strides[-3]
    return as_strided(line[..., C - 1:, :, :],
                      line.shape[:-3] + (C, C) + line.shape[-2:],
                      line.strides[:-3] + (-step, step) + line.strides[-2:],
                      writeable=False)


def _block_legs(cells: range, cfg: PlannerConfig, legs: _Legs):
    """(KI, KJ, cover_t, cover_c, transit_t, transit_c, roads) for the rows
    of the source cells in cells, in the axes (cell, x, level_i, level_j,
    j, y), levels descending as in an endpoint block, and the legs led by
    an axis of cover modes or transit legs."""
    s = _as_slice(cells)
    k = np.arange(cfg.battery_levels, 0, -1)
    cover_t, cover_c = legs.covers[s].T.reshape(
        2, 2, len(cells), 1, 1, 1, 1, 1)
    return (k[:, None, None, None], k[:, None, None], cover_t, cover_c,
            legs.transit_t[:, s, :, None, None],
            legs.transit_c[:, s, :, None, None],
            (legs.exit_road[s, :, None, None, None, None], legs.entry_road))


def _block_grids(cells: range, cfg: PlannerConfig, legs: _Legs):
    """Grids whose minimum is the cost over the rows of the source cells
    in cells, one per class of types that share their bounds, 13 in all.

    Yields (columns, grid, where): on the rows' entries [columns], in the
    axes of _block_legs, the grid is a cost where `where` holds, both
    broadcasting.  The pure types, with no bounds, come as the grid of
    their least line; ride, entry and exit one grid a type; _both's types
    as their _capped regime only, on the levels_j it can reach, one grid
    per transit leg from the least head of its cover modes, each grid
    overwritten by the next.  The j == i entries are not edges.
    """
    C = cfg.battery_levels
    n = len(legs.covers)
    KI, KJ, cover_t, cover_c, transit_t, transit_c, roads = _block_legs(
        cells, cfg, legs)
    # KJ - KI, descending, on the level_i axis: the lines' axis.
    d = np.arange(C - 1, -C, -1.0)[:, None, None, None]
    for template, types in _KINDS:
        cover = cover_t[_COVER[types]], cover_c[_COVER[types]]
        leg = transit_t[_LEG[types]], transit_c[_LEG[types]]
        if template is _both:
            # _both's line never goes below the line of _exit on the same
            # legs, which comes first in EdgeType order, so only its capped
            # regime can give an entry, on the top c2 levels_j at most.
            top = min(C, int(leg[1].max()))
            grid = np.empty((len(cells), 2, C, top, n, 2))
            heads = _capped_head(KI, cfg, cover, leg, roads)[0]
            for way in sorted(set(_LEG[types].tolist())):
                _capped(heads[_LEG[types] == way].min(axis=0), KJ[:top],
                        cfg, transit_c[way], out=grid)
                yield np.s_[:, :, :, :top], grid, True
            continue
        line, _, lo, hi = template(d, cfg, cover, leg, roads)
        line = line[:, :, :, :, 0]
        if not np.ndim(lo):
            # The pure types have no bounds: their least line lifts to
            # their least grid.
            yield ..., _toeplitz(line.min(axis=0), C), True
            continue
        where = KI >= lo
        if np.ndim(hi):
            where = where & (KJ <= C - hi)
        for m, grid in enumerate(_toeplitz(line, C)):
            yield ..., grid, where[m]


def _block_rows(cells: range, cfg: PlannerConfig, legs: _Legs,
                rows: np.ndarray) -> None:
    """Fill rows, the cost entries of the source cells in cells with axes
    (cell, x, level_i, j, y, level_j): the least of the block's grids, a
    cell's own entries inf."""
    C = cfg.battery_levels
    acc = np.full((len(cells), 2, C, C, len(legs.covers), 2), INF)
    for columns, grid, where in _block_grids(cells, cfg, legs):
        part = acc[columns]
        np.minimum(part, grid, out=part, where=where)
    _level_major(rows)[...] = acc
    for b, i in enumerate(cells):
        rows[b, :, :, i] = INF


def _fill_cost(mat: np.ndarray, cfg: PlannerConfig, legs: _Legs) -> None:
    """Write the cost matrix into mat, a V x V array or a transposed view
    of one (the cost of u -> v at mat[u, v]), a block of source cells at a
    time."""
    n, C = len(legs.covers), cfg.battery_levels
    mat[0, 0] = INF
    blocks, row, column = cluster_views(mat, n)
    blocks = blocks.reshape(n, 2, C, n, 2, C)
    for sources in _cell_blocks(n, C):
        _block_rows(sources, cfg, legs, blocks[_as_slice(sources)])
    # Depot edges: free departure into full-battery vertices, and the final
    # coverage pass on the way back.
    k = np.tile(np.arange(C, 0, -1), 2)  # the levels of a cluster's vertices
    row[...] = np.where(k == C, 0.0, INF)
    column[...] = _closing(legs.covers.transpose(1, 2, 0)[..., None], k)[0]


def build_instance(cells: list[Cell], cfg: PlannerConfig) -> ClusteredGraph:
    """Build the clustered graph for a list of cells: its legs, and no
    matrix yet (ClusteredGraph.cost and transposed_cost fill one on
    demand).  An instance whose two V x V float64 arrays would pass
    _MATRIX_MAX_BYTES is refused first."""
    if not cells:
        raise ValueError("need at least one cell")
    ordered = sorted(cells, key=lambda c: c.index)
    if [c.index for c in ordered] != list(range(len(ordered))):
        raise ValueError("cell indices must be unique and contiguous from 0")
    cells = ordered

    n = len(cells)
    C = cfg.battery_levels
    V = 1 + 2 * n * C
    need = V * V * 16
    if need > _MATRIX_MAX_BYTES:
        raise InstanceTooLarge(f"{n} cells at {C} battery levels need {need} "
                               f"bytes of matrices, over {_MATRIX_MAX_BYTES}")
    return ClusteredGraph(cells, cfg, _farm_legs(cells, cfg))

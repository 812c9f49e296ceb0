"""GTSP solvers.

solve_exact is the optimality oracle: a Held-Karp dynamic program over
subsets of clusters (GTSP form, after Noon & Bean), with the depot fixed
first.  It holds two layers of states at a time, the sets of one size and
those of the next, each set at its combinatorial rank and with only its
own clusters, and a step extends only a set's finite states, gathered in
rank order so that ties still go to the lexicographically smallest
cluster order (_held_karp).  Which sets a step reads and writes depends
only on the number of clusters and their width, so those tables are built
once per size and shared, read-only (_lattice).  solve_glns is a large
neighborhood search in the style of GLNS.
Each iteration removes clusters by segment or by distance, reinserts
them by cheapest, noisy, nearest or random insertion, each heuristic
picked uniformly at random, re-picks the vertices along the new cluster
order, and accepts the result by simulated annealing.

Both solvers read the vertex layout through the graph module:
cluster_span gives a cluster's vertex ids and cluster_views splits a
matrix into (m, 2C, m, 2C) cluster blocks and the depot's row and column
without a copy, so every cluster-to-cluster cost read is a slice of the
matrix instead of a gather.

The search holds one V x V array and reads no other: tmat, the costs
transposed with a penalty for every infinite edge, so tmat[v, u] prices
u -> v.  The graph fills it transposed from its templates
(ClusteredGraph.transposed_cost) and solve_glns penalizes it in place, so
a GLNS plan never builds the graph's cost matrix.  The DP reads
contiguous rows along the axis it reduces, where a column would cost one
cache line per element: a step picks each vertex's cheapest predecessor
along a row of tmat's blocks.  An insertion gathers a cluster's edges
into a tour vertex from a tmat row, and those out of a tour vertex from
a column of the cluster's 2C rows of tmat, one cache line an entry; a
contiguous read there would need the dense cost matrix besides tmat.

The search evaluates its moves incrementally, with the same floats as a
full evaluation.  The layered DP keeps its forward steps and, after a
move, recomputes only those past the first position where the cluster
order changed; its cycle total is the candidate's cost, with no second
sum over the tour.  An insertion call prices every remaining cluster
once, then after each insert replaces only the broken edge's deltas by
those of the two new edges, which share the broken edge's two ends, so
only the new vertex's edges are read from tmat.  A round picks its
insertion from the least delta of each cluster and position, not from
every vertex's.  A move that puts the same cluster order
back keeps the vertices and cost it started from, without a DP.

The DP of a candidate also stops early once the annealing test is sure
to reject it.  Where its recomputation starts, and every _BOUND_EVERY
steps after, it bounds the cycle cost from below: the least cost its
step reaches, plus the cheapest entry of each cluster block still to
cross, plus the last cluster's cheapest closing edge.  Once that bound
reaches the current cost, the candidate cannot be accepted outright, so
the test's one uniform draw u is taken there and kept for the test;
nothing else draws from the RNG in between, so the stream is the one a
full DP leaves.  The DP stops when u rejects even the bound: when
u (1 - 1e-9) >= exp(-(bound (1 - 1e-12) - cur) / T).  The margins cover
the bound's sums, taken in another order than the DP's left-to-right
float sums of nonnegative costs, and an exp that is monotone only to
within an ulp.  A candidate no bound rejects runs its full DP.  Every
tour, cost and RNG draw is the one a full DP gives.

The restarts of solve_glns are independent, each with its own seeded
RNG.  On Linux they run in the fork pool of the workers module: the
caller and forked workers, which share tmat copy-on-write.
k restarts on p usable CPUs run in the fewest workers that give none
more than k / p restarts (workers.worker_count): one per restart up to
p, 3 workers for 3 restarts on 2 CPUs, 2 for 4, and never more than
2p - 1, so every CPU stays busy until the last restart ends.  The
results merge in restart order, so the tour is the one a sequential run
returns.  Once the time budget binds, every restart then running is cut
short, and a worker starts no further restart; which restarts ran, and
how far, depends on machine speed, as it does in a sequential run.

Where twice the restarts fit the usable CPUs (one restart on 2 CPUs), a
restart's annealing iterations run on two: the process that runs the
restart and a helper forked for it (workers.helper), each with its own
copy-on-write view of the search.  Most iterations leave the tour as it
was (on the n=50 benchmark farm, 85%), and such an iteration's draws
follow from its move alone (_skip), so the RNG state after it is known
without running it.  Each process commits the iterations in index order
(_Annealing): the next one on the committed tour, or, while the other
process holds that one, a later one run ahead, on the committed tour
with the skipped draws of every iteration before it.  A run ahead
stands if none of those changes the tour, and is dropped otherwise.
The two send each other every outcome they reach, a changed tour with
its order, vertices, cost, forward DP steps and RNG state, so both
commit the same outcomes.  Each iteration thus runs on the tour and RNG
state the sequential loop gives it, and every tour, cost and draw is
the one it gives; only which process runs it, and how many runs ahead
are dropped, depends on timing.  A fork that fails leaves the restart
to run alone, and the helper is killed and reaped with its restart.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
import operator
import random
import sys
import time
from collections.abc import Callable, Iterable
from dataclasses import dataclass

import numpy as np

from .errors import Infeasible, InstanceTooLarge, NoFeasibleTour
from .graph import ClusteredGraph, cluster_span, cluster_views
from . import workers
from .workers import in_workers

# The least stand-in for infinite edges inside the heuristic search only;
# a final tour using one of these is rejected.
BIG = 1e9

_MODE_ITER_FACTOR = {"fast": 30, "default": 60, "slow": 150}
_BASE_ITERS = 300
_COOLING = 0.9987
_NOISE = 0.25
# DP steps between two looks at a candidate's lower bound.  A look costs a
# reduction over 2C values, a step a 2C x 2C min-plus product; on an n=50
# search, looking every step saves only 1% more steps than every 2 for
# twice the looks, and every 4 or 8 stops later.
_BOUND_EVERY = 2

# The bound on solve_exact's DP tables (_held_karp_bytes): 41.4 MB for 14
# clusters of 40 vertices, 85.6 MB for 15.  Within it a layer holds fewer
# than 2^23 states, so a rank is below 2^23, and m < 20 (the traceback
# keys alone pass the bound at m = 20 even for 2 vertices a cluster), so a
# key rank * m + cluster stays below 2^31 and fits the tables' int32.
_HELD_KARP_MAX_BYTES = 64 << 20
# Min-plus terms per chunk of sets in a _held_karp step: 128 KB of
# float64, and as much again for argmin's transposed copy, so a 6-cell
# farm at 20 levels steps about one set at a time in its middle layers.
# Larger chunks raised the exact-small benchmark's peak RSS, by about
# 0.2 MB at 2^15 terms and 1.3 MB at 2^16.
_HELD_KARP_CHUNK = 1 << 14
# Seconds per min-plus term, for the time a refused instance would take:
# 14 clusters of 40 vertices, 1.19e9 terms, took 5.1 s on a 2-core
# Xeon.
_HELD_KARP_TERM_S = 4.3e-9


@dataclass(frozen=True)
class GtspTour:
    """Cyclic tour, one vertex per cluster, depot vertex first."""

    vertices: tuple[int, ...]
    cost: float


@dataclass(frozen=True)
class SolverParams:
    mode: str = "default"
    time_budget: float = 600.0
    restarts: int = 3
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if self.mode not in _MODE_ITER_FACTOR:
            raise ValueError(f"unknown solver mode {self.mode!r}")
        # Written so that NaN fails too: every comparison with it is False.
        if not self.time_budget > 0:
            raise ValueError("time_budget must be positive")
        if self.restarts < 1:
            raise ValueError("restarts must be at least 1")
        # The restarts are dealt as a range, which has no len beyond this.
        if self.restarts > sys.maxsize:
            raise ValueError(f"restarts must be at most {sys.maxsize}")


def tour_cost(g: ClusteredGraph, tour: GtspTour) -> float:
    """Sum of cycle edge costs; inf when any edge is infeasible, and
    ValueError for a vertex id out of range."""
    vs = list(tour.vertices)
    total = 0.0
    for cost in g.edge_costs(vs, vs[1:] + vs[:1])[0].tolist():
        total += cost
    return total


def solve_exact(g: ClusteredGraph) -> GtspTour:
    """Globally optimal tour by the Held-Karp subset DP (_held_karp).

    An instance past the table bound is refused before g.cost is read,
    so its dense matrix is never built."""
    m, width = g.n_cells, 2 * g.levels
    need = _held_karp_bytes(m, width)
    if need > _HELD_KARP_MAX_BYTES:
        seconds = (width * width * m * (m - 1) * 2.0 ** (m - 2)
                   * _HELD_KARP_TERM_S)
        raise InstanceTooLarge(
            f"{m} clusters need {need} bytes of exact-solver tables, over "
            f"{_HELD_KARP_MAX_BYTES}, and about {seconds:.2g} s "
            "(use --solver glns)")
    total, vertices = _held_karp(g.cost, m)
    return GtspTour(tuple(vertices), total)


def _held_karp_bytes(m: int, width: int) -> int:
    """Peak bytes of _held_karp's tables for m clusters of width vertices:
    12 per state (value and rank) of two adjacent layers, a layer of size
    k holding C(m, k) * k * width states, plus 4 per traceback key, of
    which a layer has at most one per state."""
    states = [math.comb(m, k) * k * width for k in range(m + 1)]
    both = max(states[k] + states[k + 1] for k in range(m)) if m else 0
    return 12 * both + 4 * sum(states[2:])


def _held_karp(mat: np.ndarray, m: int) -> tuple[float, list[int]]:
    """Optimal cycle over every cluster order: (cost, vertex ids).

    value[S][j, v] is the cheapest path from the depot through the set S
    that ends on vertex v of the j-th cluster of S, the minimum of
    _layered_dp's sums over the orders of S.  The sets of one size form a
    layer, in ascending order of their bitmasks, so a set's index is its
    combinatorial (colex) rank, and a set stores only its own clusters; a
    step reads one layer and writes the next, so only two are ever held.
    A state whose value is inf leads only to states of inf, so a step
    gathers only the finite states of each set, and skips a set that has
    none.  Ties go to the lexicographically smallest cluster order:
    rank[S][j, v] ranks the order behind value[S][j, v] among the orders
    of its length, a set's states are gathered in rank order so that the
    first argmin hit has the smallest rank among the cheapest, and the
    new ranks are the dense ranks of (predecessor rank, cluster).  The
    vertices are _layered_dp's along that order.
    """
    blocks, depart, arrive = cluster_views(mat, m)
    width = blocks.shape[1]
    # rows[c * width + u, d]: the costs from vertex u of cluster c to the
    # vertices of cluster d.
    rows = blocks.reshape(m * width, m, width)
    # An infinite state's rank is last, which sorts it after the finite.
    last = np.iinfo(np.int32).max
    value = depart[:, None, :]
    rank = np.where(np.isfinite(value), np.arange(m)[:, None, None], last)
    keys = []  # keys[k - 2][r]: predecessor rank * m + cluster of rank r
    for k, (size, outside, shift, at) in enumerate(_lattice(m, width), 1):
        n, out = len(outside), m - k
        new_value = np.full((size * (k + 1), width), np.inf)
        new_rank = np.zeros((size * (k + 1), width), dtype=np.int32)
        value = value.reshape(n, k * width)
        rank = rank.reshape(n, k * width)
        count = np.isfinite(value).sum(axis=1)
        todo = np.flatnonzero(count)
        per = max(1, _HELD_KARP_CHUNK // (max(count.max(), 1) * out * width))
        lines, columns = np.arange(per)[:, None], np.arange(out * width)
        for a in range(0, len(todo), per):
            s = todo[a:a + per]
            si, i, ds = s[:, None], lines[:len(s)], outside[s]
            # A set's finite states by rank: trans[i, r, (t, v)] goes
            # through state by_rank[i, r] of set s[i] to vertex v of its
            # t-th cluster outside.  The order of equal ranks (one cluster
            # order) does not matter; the stable sort spares the benchmark
            # 0.2 MB of peak RSS for the default sort's SIMD code.
            by_rank = np.argsort(rank[s], axis=1,
                                 kind="stable")[:, :count[s].max()]
            via = by_rank + shift[si, by_rank // width]
            trans = rows[via[:, :, None], ds[:, None]].reshape(
                len(s), -1, out * width)
            trans += value[si, by_rank][:, :, None]
            pick = trans.argmin(axis=1)
            shape = (len(s), out, width)
            new_value[at[s]] = trans[i, pick, columns].reshape(shape)
            new_rank[at[s]] = (rank[si, by_rank[i, pick]].reshape(shape) * m
                               + ds[:, :, None])
        # Dense ranks of the keys, by counting.  An infinite state's key is
        # 0, which may add a rank but leaves the others' order as it is.
        seen = np.zeros(int(new_rank.max()) + 1, dtype=bool)
        seen[new_rank] = True
        new_rank = (np.cumsum(seen, dtype=np.int32) - 1)[new_rank]
        new_rank[np.isinf(new_value)] = last
        keys.append(np.flatnonzero(seen).astype(np.int32))
        value = new_value.reshape(size, k + 1, width)
        rank = new_rank.reshape(value.shape)

    closing = value[0] + arrive
    total = float(closing.min())
    if not math.isfinite(total):
        raise Infeasible("every cluster ordering hits an infeasible edge")
    r = int(rank[0][closing == total].min())
    order = []
    for uniq in reversed(keys):
        r, d = divmod(int(uniq[r]), m)
        order.append(d + 1)
    order = [0, r + 1] + order[::-1]
    _, choice = _layered_dp(blocks.transpose(2, 3, 0, 1), depart, arrive,
                            order)
    return total, [choice[c] for c in order]


@functools.lru_cache(maxsize=4)
def _lattice(m: int, width: int) -> tuple:
    """_held_karp's set tables for m clusters of width vertices, built once
    a size: per layer of sets of size k = 1, ..., m - 1, (next layer's
    size, outside, shift, at), read-only.  outside[i] are the clusters not
    in set i; state j * width + u of set i is vertex j * width + u +
    shift[i, j] of the clusters; adding outside[i, t] to set i gives the
    states at row at[i, t] of the next layer's (set, cluster) rows.  The
    most the table bound admits, 14 clusters, take 2.8 MB."""
    every = np.arange(m)
    sets = 1 << every
    layers = []
    for k in range(1, m):
        n = len(sets)
        bits = (sets[:, None] >> every) & 1
        inside = np.nonzero(bits)[1].reshape(n, k)
        outside = np.nonzero(bits == 0)[1].reshape(n, m - k)
        # The set of bitmask grown[i, t] holds outside[i, t] as cluster
        # slot[i, t].
        grown = sets[:, None] | (1 << outside)
        # index[b]: the position in the next layer of the set of bitmask b.
        index = np.zeros(1 << m, dtype=np.intp)
        index[grown] = 1
        sets = np.flatnonzero(index)
        index[sets] = np.arange(len(sets))
        slot = (np.cumsum(bits, axis=1) - bits)[np.arange(n)[:, None],
                                                 outside]
        tables = (outside, (inside - np.arange(k)) * width,
                  index[grown] * (k + 1) + slot)
        for a in tables:
            a.flags.writeable = False
        layers.append((len(sets), *tables))
    return tuple(layers)


# One forward DP step: (cluster, best cost to reach each of its vertices,
# best predecessor vertex index of each, None for the first cluster).
_Step = tuple[int, np.ndarray, np.ndarray | None]


def _layered_dp(into: np.ndarray, depart: np.ndarray, arrive: np.ndarray,
                order: list[int]) -> tuple[float, dict[int, int]]:
    """Best vertex per cluster for a fixed cyclic cluster order.

    into[b, v, a, u] is the cost from vertex u of cluster a + 1 to v of
    b + 1, so a step reduces along the last axis; depart[c - 1] and
    arrive[c - 1] are the costs from the depot into cluster c and back.
    The order must start with the depot cluster; returns the cycle cost
    and a cluster -> vertex id mapping.
    """
    steps = [(order[1], depart[order[1] - 1], None)]
    _forward(into, order, steps, len(order) - 1)
    return _traceback(arrive, steps)


def _forward(into: np.ndarray, order: list[int], steps: list[_Step],
             stop: int, look: Callable[[int], bool] | None = None) -> bool:
    """Extend steps, the forward DP along order from its first step on,
    to its first stop steps.  A step depends only on the order up to its
    position.

    look, when given, is called as look(j), with step j held, where the
    extension starts and every _BOUND_EVERY steps after, as long as a
    step is left to compute; once it returns True the extension stops
    and this returns True.
    """
    rows = np.arange(into.shape[1])
    start = len(steps)
    c_prev, dp, _ = steps[-1]
    for j, c in enumerate(order[start + 1:stop + 1], start):
        if look is not None and (j - start) % _BOUND_EVERY == 0 \
                and look(j - 1):
            return True
        trans = into[c - 1, :, c_prev - 1, :] + dp
        parent = trans.argmin(axis=1)
        dp = trans[rows, parent]
        steps.append((c, dp, parent))
        c_prev = c
    return False


def _traceback(arrive: np.ndarray,
               steps: list[_Step]) -> tuple[float, dict[int, int]]:
    """(cycle cost, cluster -> vertex id) of a whole order's forward
    steps."""
    width = arrive.shape[1]
    last, dp, _ = steps[-1]
    closing = dp + arrive[last - 1]
    idx = int(np.argmin(closing))
    total = float(closing[idx])
    choice = {0: 0}
    for c, _, parent in reversed(steps):
        choice[c] = cluster_span(c, width).start + idx
        if parent is not None:
            idx = int(parent[idx])
    return total, choice


def _common(a: Iterable[int], b: Iterable[int]) -> int:
    """Length of the longest common prefix of a and b."""
    count = 0
    for x, y in zip(a, b):
        if x != y:
            break
        count += 1
    return count


def _row_min(a: np.ndarray) -> np.ndarray:
    """a.min(axis=-1), read at argmin's index, which numpy finds faster
    along a short last axis than the minimum itself."""
    flat = a.reshape(-1, a.shape[-1])
    return flat[np.arange(len(flat)), flat.argmin(axis=1)].reshape(
        a.shape[:-1])


class _Insertions:
    """Insertion deltas of the clusters still to insert into a _Search
    tour, kept across the rounds of one insertion call.

    An edge's raw[r, k] prices vertex k of clusters[r] (sorted) on it:
    (enter + leave) - the edge's own cost, or enter + leave on a
    depot-only tour, which has no edge to break (tmat[0, 0] is the
    penalty); enter[r, k] is the edge from its tail into the vertex, and
    leave[r, k] the edge from the vertex to its head.  edges[p] is the
    edge from tour[p] to its successor: a row of first, the (enter,
    leave, raw) arrays of the tour's edges when the call began, or the
    (enter, leave, raw) of an edge an insert made.  low[p, r] is the
    least of edge p's raw[r], inf once clusters[r] is inserted, so no pick
    can reach a dead row.  An insert replaces the broken edge by its two
    new ones, which take its tail's enter and its head's leave and gather
    only the new vertex's, 2 * len(clusters) * 2C entries; a round's pick
    reads low, not every delta.  prox[r], the smallest edge between
    clusters[r] and any tour vertex (inf once inserted), is kept only for
    nearest calls; it is None otherwise.
    """

    def __init__(self, search: _Search, clusters: list[int],
                 nearest: bool) -> None:
        self.search = search
        self.clusters = clusters
        self.left = len(clusters)
        self.dead = np.zeros(len(clusters), dtype=bool)
        self.picked = np.array(clusters, dtype=np.intp) - 1
        tour = np.array(search.tour_vertices(), dtype=np.intp)
        succ = np.concatenate((tour[1:], tour[:1]))
        enter = search.tmat_in[self.picked, :, tour[:, None]]
        leave = search.tmat_out[succ[:, None], self.picked]
        raw = enter + leave
        if len(tour) > 1:
            raw -= search.tmat[succ, tour][:, None, None]
        self.first = (enter, leave, raw)
        self.edges: list[int | tuple[np.ndarray, ...]] = list(
            range(len(tour)))
        # Rows past len(edges) leave room for the edge each insert adds.
        self.low = np.empty((len(tour) + self.left, self.left))
        self.low[:len(tour)] = _row_min(raw)
        self.prox = np.minimum(enter, leave).min(axis=(0, 2)) \
            if nearest else None

    def _edge(self, pos: int) -> tuple[np.ndarray, ...]:
        """(enter, leave, raw) of the edge at position pos."""
        e = self.edges[pos]
        if isinstance(e, tuple):
            return e
        enter, leave, raw = self.first
        return enter[e], leave[e], raw[e]

    def best(self, noisy: bool) -> tuple[float, int, int, int]:
        """Cheapest (delta, row, position, vertex) insertion, the cluster
        being clusters[row].

        With noisy, each position delta is scaled by 1 + _NOISE * u,
        drawing len(tour) values per cluster left, in cluster order.  In a
        nearest call, the cluster is not the cheapest one but the one with
        the smallest prox.  Ties go to the first cluster, then the first
        position, then the first vertex.  A scale is positive and rounding
        monotone, so the least scaled delta of a cluster and position is
        its scaled low, and low alone picks the row and position.
        """
        places = len(self.edges)
        low = self.low[:places].T
        scale = None
        if noisy and places > 1:
            count = self.left * places
            draws = itertools.starmap(self.search.rng.random,
                                      itertools.repeat((), count))
            scale = np.ones(low.shape)
            scale[~self.dead] = 1.0 + _NOISE * np.fromiter(
                draws, float, count).reshape(-1, places)
            low = low * scale
        if self.prox is None:
            r, pos = divmod(int(low.argmin()), places)
        else:
            r = int(self.prox.argmin())
            pos = int(low[r].argmin())
        delta = self._edge(pos)[2][r]
        if scale is not None:
            delta = delta * scale[r, pos]
        k = int(delta.argmin())
        vertex = cluster_span(self.clusters[r], len(delta)).start + k
        return float(delta[k]), r, pos, vertex

    def insert(self, row: int, pos: int, vertex: int) -> None:
        """Insert clusters[row] into the search's tour and update the kept
        deltas."""
        s = self.search
        s.insert(self.clusters[row], pos, vertex)
        self.dead[row] = True
        self.left -= 1
        if not self.left:
            return
        order = s.order
        a, b = s.choice[order[pos]], s.choice[order[(pos + 2) % len(order)]]
        from_a, into_b, _ = self._edge(pos)
        enter = s.tmat_in[self.picked, :, vertex]
        leave = s.tmat_out[vertex, self.picked]
        # The new edges a -> vertex and vertex -> b.
        raw_a = from_a + leave
        raw_a -= s.tmat[vertex, a]
        raw_b = enter + into_b
        raw_b -= s.tmat[b, vertex]
        self.edges[pos:pos + 1] = [(from_a, leave, raw_a),
                                   (enter, into_b, raw_b)]
        low, end = self.low, len(self.edges)
        low[pos + 2:end] = low[pos + 1:end - 1]
        raw_a.min(axis=1, out=low[pos])
        raw_b.min(axis=1, out=low[pos + 1])
        low[pos:pos + 2, self.dead] = np.inf
        low[:, row] = np.inf
        if self.prox is not None:
            self.prox = np.minimum(self.prox, np.minimum(
                enter, leave).min(axis=1))
            self.prox[self.dead] = np.inf


# A _Search's order, vertex choice, DP steps and cycle cost.
_Snapshot = tuple[list[int], dict[int, int], list[_Step], float]


class _Search:
    """Mutable search state for one restart."""

    def __init__(self, tmat: np.ndarray, m: int, rng: random.Random) -> None:
        self.tmat = tmat
        # tmat is transposed, so its depot row prices the closing edges.
        self.into, self.arrive, self.depart = cluster_views(tmat, m)
        self.width = self.into.shape[1]
        # tmat split by cluster: tmat_in[c, k, u] prices u -> vertex k of
        # cluster c + 1, and tmat_out[v, c, k] prices vertex k of cluster
        # c + 1 -> v.
        self.tmat_in = tmat[1:].reshape(m, self.width, len(tmat))
        self.tmat_out = tmat[:, 1:].reshape(len(tmat), m, self.width)
        # The parts of the DP's lower bound: the cheapest edge from
        # cluster a + 1 to b + 1 at [b, a], and out of c + 1 to the depot.
        self.block_min = self.into.min(axis=(1, 3)).tolist()
        self.close_min = self.arrive.min(axis=1).tolist()
        self.rng = rng
        self.order: list[int] = [0]
        self.choice: dict[int, int] = {0: 0}
        # Forward DP of the last reoptimize_vertices, reused along the
        # prefix the next order shares with the clusters of its steps, and
        # the cycle cost at tmat's prices it found.
        self.steps: list[_Step] = []
        self.total = math.inf

    def tour_vertices(self) -> list[int]:
        return [self.choice[c] for c in self.order]

    def insert(self, cluster: int, pos: int, vertex: int) -> None:
        self.order.insert(pos + 1, cluster)
        self.choice[cluster] = vertex

    def remove_clusters(self, removed: list[int]) -> None:
        gone = set(removed)
        self.order = [c for c in self.order if c not in gone]
        for c in removed:
            del self.choice[c]

    def reoptimize_vertices(
            self, rejects: Callable[[float], bool] | None = None) -> bool:
        """Re-pick every vertex along the order by the layered DP.

        The forward steps held, those of the order last re-picked (the
        current tour, in a search), are kept along the prefix this order
        shares with their clusters.  With rejects, the DP stops once
        rejects(bound) holds for the lower bound of a step it looks at,
        the least cost that step reaches plus the cheapest edges left to
        close the cycle (_judged_out), and this returns False, leaving
        choice and total stale for the caller to restore.
        """
        order = self.order
        n = len(order) - 1
        if n < 1:
            return True
        del self.steps[_common((c for c, _, _ in self.steps), order[1:]):]
        if not self.steps:
            self.steps.append((order[1], self.depart[order[1] - 1], None))
        if rejects is not None and self._judged_out(rejects):
            return False
        _forward(self.into, order, self.steps, n)
        self.total, self.choice = _traceback(self.arrive, self.steps)
        return True

    def _judged_out(self, rejects: Callable[[float], bool]) -> bool:
        """Whether rejects holds for a lower bound on the order's cycle
        cost (the module docstring), extending the forward steps up to the
        step it looks at last, or to the order's end if none holds."""
        order, steps = self.order, self.steps
        start = len(steps)
        # tails[i]: the least the cycle adds after step start - 1 + i, the
        # cheapest edge of each later cluster pair, then the last cluster's
        # cheapest closing edge.
        c = [x - 1 for x in order[start:]]
        hops = [self.block_min[b][a] for a, b in zip(c, c[1:])]
        tails = list(itertools.accumulate(reversed(hops),
                                          initial=self.close_min[c[-1]]))
        tails.reverse()
        return _forward(self.into, order, steps, len(order) - 1,
                        lambda j: rejects(float(steps[j][1].min())
                                          + tails[j + 1 - start]))

    def _relocate_to_local_opt(self, deadline: float) -> None:
        improved = True
        while improved and time.monotonic() <= deadline:
            improved = False
            base = self.total
            for c in list(self.order[1:]):
                snap = self.snapshot()
                self.remove_clusters([c])
                self.insert_greedy([c])
                self.reoptimize_vertices()
                if self.total < base - 1e-12:
                    improved = True
                    break
                self.restore(snap)

    def polish(self, deadline: float) -> None:
        """Single-cluster relocations with vertex re-pick to local optimum.

        Costs are direction-dependent, so the reversed cluster order is a
        distinct candidate that relocations cannot reach; polish both
        directions and keep the cheaper end state.
        """
        self.reoptimize_vertices()
        if len(self.order) < 3:
            return
        self._relocate_to_local_opt(deadline)
        fwd = self.snapshot()
        fwd_cost = self.total
        self.order = [0] + self.order[:0:-1]
        self.reoptimize_vertices()
        self._relocate_to_local_opt(deadline)
        if self.total >= fwd_cost - 1e-12:
            self.restore(fwd)

    def snapshot(self) -> _Snapshot:
        return (self.order.copy(), self.choice.copy(), self.steps.copy(),
                self.total)

    def restore(self, snap: _Snapshot) -> None:
        self.order = snap[0].copy()
        self.choice = snap[1].copy()
        self.steps = snap[2].copy()
        self.total = snap[3]

    # Removal heuristics.  Each returns the removed cluster list.

    def remove_segment(self, count: int) -> list[int]:
        ring = self.order[1:]
        start = self.rng.randrange(len(ring))
        removed = [ring[(start + k) % len(ring)] for k in range(count)]
        self.remove_clusters(removed)
        return removed

    def remove_distance(self, count: int) -> list[int]:
        ring = np.array(self.order[1:])
        sv = self.choice[self.rng.choice(self.order[1:])]
        vs = np.array(self.tour_vertices()[1:], dtype=np.intp)
        near = np.minimum(self.tmat[vs, sv], self.tmat[sv, vs])
        # Nearest first, ties to the smaller cluster.
        removed = ring[np.lexsort((ring, near))[:count]].tolist()
        self.remove_clusters(removed)
        return removed

    # Insertion heuristics.  Each inserts every removed cluster.

    def insert_greedy(self, removed: list[int], noisy: bool = False,
                      nearest: bool = False) -> None:
        """Repeatedly insert the cluster _Insertions.best picks."""
        prices = _Insertions(self, sorted(removed), nearest)
        while prices.left:
            _, row, pos, vertex = prices.best(noisy)
            prices.insert(row, pos, vertex)

    def insert_random(self, removed: list[int]) -> None:
        """Random cluster into a random position, with the cluster's first
        vertex: this is always the whole insertion of its move, and the
        candidate's layered DP re-picks every vertex from the cluster
        order alone."""
        remaining = sorted(removed)
        while remaining:
            c = remaining[self.rng.randrange(len(remaining))]
            pos = self.rng.randrange(len(self.order))
            self.insert(c, pos, cluster_span(c, self.width).start)
            remaining.remove(c)


class _Metropolis:
    """The annealing test of one candidate against the current cost cur:
    accept when cand < cur, else when u < exp(-(cand - cur) / T) for one
    uniform draw u of the search's RNG, with no draw when T is 0.

    rejects takes that draw early, during the candidate's DP, once a
    lower bound shows cand >= cur; accepts then reuses it.
    """

    def __init__(self, rng: random.Random, cur: float,
                 temperature: float) -> None:
        self.rng = rng
        self.cur = cur
        self.temperature = temperature
        self.u: float | None = None

    def _draw(self) -> float:
        if self.u is None:
            self.u = self.rng.random()
        return self.u

    def rejects(self, bound: float) -> bool:
        """Whether any cost at or above bound is sure to be rejected,
        with the margins of the module docstring."""
        bound *= 1 - 1e-12
        if bound < self.cur or not self.temperature > 0:
            return False
        return self._draw() * (1 - 1e-9) >= math.exp(
            -(bound - self.cur) / self.temperature)

    def accepts(self, cand: float) -> bool:
        if cand < self.cur:
            return True
        if not self.temperature > 0:
            return False
        return self._draw() < math.exp(-(cand - self.cur) / self.temperature)


def solve_glns(g: ClusteredGraph, params: SolverParams | None = None) -> GtspTour:
    """Large neighborhood search over the clustered graph.

    The restarts run in the fork pool (workers.in_workers), dealt as a
    range of restart indices; the cheapest tour wins, ties to the lowest
    restart, as in a sequential run.
    """
    params = params or SolverParams()
    m = g.n_cells
    tmat = g.transposed_cost()  # C-ordered; costs are finite or +inf
    # 2C rows at a time, so that no V x V mask is ever allocated.
    width = 2 * g.levels
    blocks = [tmat[r:r + width] for r in range(0, len(tmat), width)]
    # An infinite edge costs more than any tour of finite ones, unless 4
    # (m + 1) times that overflows: the search's sums must stay finite.
    largest = max(float(np.max(b, where=np.isfinite(b), initial=0.0))
                  for b in blocks)
    big = max(BIG, (m + 1) * largest)
    big = big if math.isfinite(4 * (m + 1) * big) else BIG
    for b in blocks:
        b[np.isinf(b)] = big
    deadline = time.monotonic() + params.time_budget

    best_vertices: list[int] | None = None
    best_true = math.inf
    for _, true_cost, vertices in sorted(in_workers(
            lambda share: _restarts(g, tmat, m, params, share, deadline),
            range(params.restarts))):
        if true_cost < best_true:
            best_true = true_cost
            best_vertices = vertices

    if best_vertices is None or not math.isfinite(best_true):
        raise NoFeasibleTour(
            "no feasible tour found; every candidate kept an infeasible edge")
    return GtspTour(tuple(best_vertices), best_true)


def _restarts(g: ClusteredGraph, tmat: np.ndarray, m: int,
              params: SolverParams, indices: range,
              deadline: float) -> list[tuple[int, float, list[int]]]:
    """(restart, true cost, vertices) of each restart in indices, run in
    turn until the deadline passes; each restart's annealing runs beside a
    forked helper when twice the restarts fit the usable CPUs."""
    iterations = _MODE_ITER_FACTOR[params.mode] * m + _BASE_ITERS
    paired = 2 * params.restarts <= workers.usable_cpus()
    results = []
    for restart in indices:
        rng = random.Random(params.rng_seed * 1000003 + restart)
        search = _Search(tmat, m, rng)
        search.insert_greedy(list(range(1, m + 1)))  # cheapest insertion
        search.reoptimize_vertices()
        helper = workers.helper(lambda link: _Annealing(
            search, iterations, link, ahead=True).run(deadline)) \
            if paired else contextlib.nullcontext()
        with helper as link:
            best = _Annealing(search, iterations, link).run(deadline)
        search.restore(best)
        search.polish(deadline)
        vertices = search.tour_vertices()
        results.append((restart, tour_cost(g, GtspTour(tuple(vertices), 0.0)),
                        vertices))
        if time.monotonic() > deadline:
            break
    return results


# The moves an iteration draws from, in the order of its draws.
_REMOVALS = (_Search.remove_segment, _Search.remove_distance)
_INSERTIONS = (
    _Search.insert_greedy,  # cheapest
    lambda s, removed: s.insert_greedy(removed, noisy=True),
    lambda s, removed: s.insert_greedy(removed, nearest=True),
    _Search.insert_random)
_NOISY, _RANDOM = _INSERTIONS[1], _INSERTIONS[3]


def _iterate(search: _Search, most: int, cur_cost: float,
             temperature: float) -> bool:
    """One annealing iteration from the search's tour, at cur_cost: a
    random removal of 1 to most clusters, a random reinsertion, and the
    annealing test at temperature.  True when the test accepts a new
    cluster order, which search then holds; False when search holds the
    tour it started from, the iteration's draws then being those _skip
    takes."""
    rng = search.rng
    remove = rng.choice(_REMOVALS)
    insert = rng.choice(_INSERTIONS)
    snap = search.snapshot()
    insert(search, remove(search, rng.randint(1, most)))
    test = _Metropolis(rng, cur_cost, temperature)
    if search.order == snap[0]:
        # The move put the same order back: the DP would re-pick the
        # snapshot's vertices at the current cost, which the test accepts.
        search.restore(snap)
        test.accepts(cur_cost)
        return False
    # Vertex choice (battery level) dominates cost here, so every candidate
    # order is judged with its DP-optimal vertices.  A DP that stops leaves
    # test holding the draw that rejects it.
    if search.reoptimize_vertices(test.rejects) \
            and test.accepts(search.total):
        return True
    search.restore(snap)
    return False


def _skip(rng: random.Random, m: int, most: int, temperature: float) -> None:
    """Move rng past the draws of an _iterate call on a tour of m clusters
    that leaves the tour as it was, without making its move.

    Such a call draws its removal, its insertion and its count r, then one
    value below m for either removal.  A noisy insertion draws one
    random() per cluster left and tour edge in each of its r rounds whose
    tour has more than one edge, and a random insertion a cluster and a
    position each round.  Last, the annealing test draws once when
    temperature > 0, since it rejects the candidate or accepts the same
    order.
    """
    rng.choice(_REMOVALS)
    insert = rng.choice(_INSERTIONS)
    count = rng.randint(1, most)
    rng.randrange(m)  # a segment's start, or a distance removal's seed
    # (clusters left, tour edges) in each insertion round.
    rounds = [(count - t, m - count + 1 + t) for t in range(count)]
    if insert is _NOISY:
        # A random() takes two 32-bit words of the stream, as do 64 bits.
        rng.getrandbits(64 * sum(left * edges for left, edges in rounds
                                 if edges > 1))
    elif insert is _RANDOM:
        for left, edges in rounds:
            rng.randrange(left)
            rng.randrange(edges)
    if temperature > 0:
        rng.random()


# The tour an iteration left: its order, choice and cost, the values and
# parents of its forward DP steps as two arrays, and its RNG state.
_Change = tuple[list[int], dict[int, int], float, np.ndarray, np.ndarray,
                tuple]


class _Annealing:
    """The annealing iterations of one restart, committed in index order,
    each with the outcome the sequential loop gives it.

    done iterations are committed, and search and its RNG hold the tour
    and stream they left.  Iteration done runs on that state.  A later
    iteration x runs ahead: on that state with the draws of iterations
    done to x - 1 skipped (_skip), as if none of them changed the tour.
    Its outcome, held in results as (base, change), is x's own unless one
    of those did: base is done when x started, and change None when x left
    the tour as it was, else the tour it left.  A committed change drops
    every outcome and claim whose base is at or before it; each other held
    outcome is committed once done reaches it.

    With a link, the process at its other end runs the same loop on its
    own copy of the search.  Each process sends every outcome it reaches,
    and the iteration it starts next, its claim; it runs the first
    iteration from done on that no held outcome or claim of the other
    covers.  Both commit the same outcomes in the same order, so they hold
    the same tours.  A process waits for the other's next message only
    when no iteration is free to run: when the other's claims cover every
    one left, or a held outcome ahead changed the tour, for no iteration
    after it can run ahead of it.
    """

    def __init__(self, search: _Search, iterations: int,
                 link: workers.Link | None = None,
                 ahead: bool = False) -> None:
        """ahead leaves iteration 0 to the process at the link's other
        end, which starts there."""
        self.search = search
        self.link = link
        self.m = len(search.order) - 1
        # Clusters one move removes.
        self.most = min(self.m, max(2, int(round(0.3 * self.m))))
        self.iterations = iterations
        # Each iteration's temperature, cooled by one factor an iteration.
        self.temperatures = list(itertools.accumulate(
            itertools.repeat(_COOLING, iterations - 1), operator.mul,
            initial=0.05 * search.total / math.log(2.0)))
        self.cur_cost = search.total
        self.best = search.snapshot()
        self.done = 0
        self.last_change = -1  # the last committed iteration that changed
        self.results: dict[int, tuple[int, _Change | None]] = {}
        # The other's claims: iteration -> base.
        self.claims: dict[int, int] = {0: 0} if ahead else {}
        # (x, base, change) of the last iteration run, until it is sent.
        self.outcome: tuple[int, int, _Change | None] | None = None

    def run(self, deadline: float) -> _Snapshot:
        """Commit the iterations until the last or the deadline: the
        snapshot of the cheapest tour committed."""
        while True:
            self._receive(wait=False)
            if self.done >= self.iterations or time.monotonic() > deadline:
                break
            x = self._free()
            if x is None:
                self._send(None)
                self._receive(wait=True)
                continue
            self._send(x)
            base = self.done
            if x == base:
                changed = _iterate(self.search, self.most, self.cur_cost,
                                   self.temperatures[x])
                if self.link is not None:
                    self.outcome = (x, base,
                                    self._change() if changed else None)
                self._commit(changed)
                self._commit_held()
            else:
                change = self._run_ahead(x)
                self.outcome = (x, base, change)
                self.results[x] = (base, change)
        self._send(None)
        return self.best

    def _run_ahead(self, x: int) -> _Change | None:
        """The change of iteration x run ahead, search and its RNG then
        holding the committed state again."""
        search, rng = self.search, self.search.rng
        snap, state = search.snapshot(), rng.getstate()
        for k in range(self.done, x):
            _skip(rng, self.m, self.most, self.temperatures[k])
        changed = _iterate(search, self.most, self.cur_cost,
                           self.temperatures[x])
        change = self._change() if changed else None
        search.restore(snap)
        rng.setstate(state)
        return change

    def _change(self) -> _Change:
        s = self.search
        return (s.order, s.choice, s.total,
                np.array([dp for _, dp, _ in s.steps]),
                np.array([p for _, _, p in s.steps[1:]]), s.rng.getstate())

    def _commit(self, changed: bool) -> None:
        """Commit iteration done, whose outcome search and its RNG hold."""
        if changed:
            self.cur_cost = self.search.total
            if self.cur_cost < self.best[3]:
                self.best = self.search.snapshot()
            self.last_change = self.done
            # Drop what assumed that this iteration changed nothing.
            self.results = {x: r for x, r in self.results.items()
                            if r[0] > self.done}
            self.claims = {x: b for x, b in self.claims.items()
                           if b > self.done}
        self.done += 1

    def _commit_held(self) -> None:
        """Commit the held outcomes that follow the committed iterations."""
        s = self.search
        while (held := self.results.pop(self.done, None)) is not None:
            change = held[1]
            if change is None:
                _skip(s.rng, self.m, self.most, self.temperatures[self.done])
            else:
                s.order, s.choice, s.total, dps, parents, state = change
                s.steps = [(c, dp, parent) for c, dp, parent in zip(
                    s.order[1:], dps, [None, *parents])]
                s.rng.setstate(state)
            self._commit(change is not None)

    def _free(self) -> int | None:
        """The first iteration from done on that no held outcome or claim
        covers; None when there is none, or a held outcome that changed
        the tour comes first."""
        for x in range(self.done, self.iterations):
            if x in self.results:
                if self.results[x][1] is not None:
                    return None
            elif x not in self.claims:
                return x
        return None

    def _send(self, claim: int | None) -> None:
        """Send the outcome last reached, unless sent, and claim, if any,
        with its base."""
        if self.link is not None and (self.outcome or claim is not None):
            self.link.send((self.outcome, claim, self.done))
        self.outcome = None

    def _receive(self, wait: bool) -> None:
        """Take in the other's waiting messages, and with wait first wait
        for one; then commit what they let."""
        link = self.link
        while link is not None and (wait or link.ready()):
            wait = False
            outcome, claim, base = link.recv()
            if outcome is not None:
                x, base_x, change = outcome
                self.claims.pop(x, None)
                # A later base assumed less, so keep it.
                if x >= self.done and base_x > self.last_change \
                        and base_x >= self.results.get(x, (-1,))[0]:
                    self.results[x] = (base_x, change)
            if claim is not None and base > self.last_change:
                self.claims[claim] = base
            self._commit_held()

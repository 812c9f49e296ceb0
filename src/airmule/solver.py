"""GTSP solvers.

solve_exact is the optimality oracle: a Held-Karp dynamic program over
subsets of clusters (GTSP form, after Noon & Bean), with the depot fixed
first.  solve_glns is an adaptive large neighborhood search in the style
of GLNS: removal and insertion heuristics with adaptive weights,
simulated-annealing acceptance and a cluster-reoptimization move that
re-picks vertices along a fixed cluster order.

Both solvers read the vertex layout through the graph module:
cluster_span gives a cluster's vertex ids and cluster_views splits a
matrix into (m, 2C, m, 2C) cluster blocks and the depot's row and column
without a copy, so every cluster-to-cluster cost read is a slice of the
matrix instead of a gather.

The search holds one V x V array besides the graph's cost matrix: tmat,
the costs transposed with a penalty for every infinite edge, so tmat[v, u]
prices u -> v.  Each kernel reads contiguous rows along the axis it
reduces, where a column would cost one cache line per element: a DP
step picks each vertex's cheapest predecessor along a row of tmat's
blocks, and an insertion gathers a cluster's edges into a tour vertex
from a tmat row and those out of a tour vertex from a cost row,
penalized after the gather.  Every other read takes tmat.

The search evaluates its moves incrementally, with the same floats as a
full evaluation.  The layered DP keeps its forward steps and, after a
move, recomputes only those past the first position where the cluster
order changed.  An insertion call prices every remaining cluster once,
then after each insert replaces only the broken edge's deltas by those
of the two new edges.  A move that puts the same cluster order back
keeps the vertices and cost it started from, without a DP.

The restarts of solve_glns are independent, each with its own seeded
RNG.  On Linux they run in the fork pool of the workers module, on up to
one process per usable CPU: the caller and forked workers, which share
the cost matrices copy-on-write.  The results merge in restart order,
so the tour is the one a sequential run returns; once the time budget
binds, which restarts ran depends on machine speed, as it does in a
sequential run.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from dataclasses import dataclass

import numpy as np

from .errors import Infeasible, InstanceTooLarge, NoFeasibleTour
from .graph import ClusteredGraph, cluster_span, cluster_views
from .workers import in_workers

# The least stand-in for infinite edges inside the heuristic search only;
# a final tour using one of these is rejected.
BIG = 1e9

_MODE_ITER_FACTOR = {"fast": 30, "default": 60, "slow": 150}
_BASE_ITERS = 300
_COOLING = 0.9987
_SEGMENT = 100  # iterations between weight updates
_NOISE = 0.25
_SIGMA_BEST, _SIGMA_BETTER, _SIGMA_ACCEPTED = 10.0, 6.0, 3.0
_REACTION = 0.5
_MIN_WEIGHT = 0.05

# The bound on solve_exact's DP tables: 12 bytes per (set, cluster,
# vertex), 23.6 MB for 12 clusters of 40 vertices.  Within the bound every
# rank key fits in the tables' int32.
_HELD_KARP_MAX_BYTES = 64 << 20


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


def tour_cost(g: ClusteredGraph, tour: GtspTour) -> float:
    """Sum of cycle edge costs; inf when any edge is infeasible."""
    vs = tour.vertices
    total = 0.0
    for idx, u in enumerate(vs):
        total += float(g.cost[u, vs[(idx + 1) % len(vs)]])
    return total


def _as_tour(g: ClusteredGraph, vertices: list[int]) -> GtspTour:
    tour = GtspTour(tuple(int(v) for v in vertices), 0.0)
    return GtspTour(tour.vertices, tour_cost(g, tour))


def solve_exact(g: ClusteredGraph) -> GtspTour:
    """Globally optimal tour by the Held-Karp subset DP (_held_karp)."""
    return _as_tour(g, _held_karp(g.cost, g.n_cells)[1])


def _held_karp(mat: np.ndarray, m: int) -> tuple[float, list[int]]:
    """Optimal cycle over every cluster order: (cost, vertex ids).

    value[S, c, v] is the cheapest path from the depot through the set S
    that ends on vertex v of c in S, the minimum of _layered_dp's sums
    over the orders of S.  Sets grow in order of size, one min-plus step
    per set.  Ties go to the lexicographically smallest cluster order:
    rank[S, c, v] ranks the order behind value[S, c, v] among all orders
    of its length, a step keeps the smallest rank among its cheapest
    candidates, and the new ranks are the dense ranks of (predecessor
    rank, cluster).  The vertices are _layered_dp's along that order.
    """
    blocks, depart, arrive = cluster_views(mat, m)
    width = blocks.shape[1]
    need = 12 * (1 << m) * m * width
    if need > _HELD_KARP_MAX_BYTES:
        raise InstanceTooLarge(f"{m} clusters need {need} bytes of exact-"
                               f"solver tables, over {_HELD_KARP_MAX_BYTES} "
                               "(use --solver glns)")
    every = np.arange(m)
    vertex = np.arange(width)[:, None]
    value = np.full((1 << m, m, width), np.inf)
    rank = np.zeros((1 << m, m, width), dtype=np.int32)
    value[1 << every, every] = depart
    rank[1 << every, every] = every[:, None]
    keys = []  # keys[k - 1][r]: predecessor rank * m + cluster of rank r
    for k in range(1, m):
        for inside in itertools.combinations(range(m), k):
            cs = np.array(inside)
            ds = np.array([d for d in range(m) if d not in inside])
            s = sum(1 << c for c in inside)
            # trans[(c, u), (d, v)]: via vertex u of cs[c] to v of ds[d].
            trans = blocks[cs[:, None, None], vertex, ds].reshape(k * width, -1)
            trans += value[s, cs].reshape(-1, 1)
            # Rows by rank, so the first argmin has the smallest rank of
            # the cheapest candidates.
            ranks = rank[s, cs].ravel()
            by_rank = np.argsort(ranks, kind="stable")
            trans = trans[by_rank]
            pick = trans.argmin(axis=0)
            best = trans[pick, np.arange(trans.shape[1])]
            pred = ranks[by_rank][pick]
            value[s + (1 << ds), ds] = best.reshape(-1, width)
            rank[s + (1 << ds), ds] = pred.reshape(-1, width) * m + ds[:, None]
        # Dense ranks by counting; unused entries' 0 keys leave the order as is.
        layer = [sum(1 << c for c in inside)
                 for inside in itertools.combinations(range(m), k + 1)]
        new = rank[layer]
        seen = np.bincount(new.ravel()) > 0
        rank[layer] = (np.cumsum(seen) - 1)[new]
        keys.append(np.flatnonzero(seen))

    closing = value[-1] + arrive
    total = float(closing.min())
    if not math.isfinite(total):
        raise Infeasible("every cluster ordering hits an infeasible edge")
    r = int(rank[-1][closing == total].min())
    order = []
    for uniq in reversed(keys):
        r, d = divmod(int(uniq[r]), m)
        order.append(d + 1)
    order = [0, r + 1] + order[::-1]
    _, choice = _layered_dp(blocks.transpose(2, 3, 0, 1), depart, arrive,
                            order)
    return total, [choice[c] for c in order]


# One forward DP step: (cluster, best cost to reach each of its vertices,
# best predecessor vertex index of each, None for the first cluster).
_Step = tuple[int, np.ndarray, np.ndarray | None]


def _layered_dp(into: np.ndarray, depart: np.ndarray, arrive: np.ndarray,
                order: list[int], steps: list[_Step] | None = None
                ) -> tuple[float, dict[int, int]]:
    """Best vertex per cluster for a fixed cyclic cluster order.

    into[b, v, a, u] is the cost from vertex u of cluster a + 1 to v of
    b + 1, so a step reduces along the last axis; depart[c - 1] and
    arrive[c - 1] are the costs from the depot into cluster c and back.
    The order must start with the depot cluster; returns the cycle cost
    and a cluster -> vertex id mapping.  steps, when given, holds the
    forward DP of an earlier call, one step per order position after the
    depot.  A step depends only on the order up to its position, so the
    steps along the prefix this order shares with that call are kept as
    they are, the rest are recomputed, and steps is left holding this
    order's DP.
    """
    width = into.shape[1]
    rows = np.arange(width)
    if steps is None:
        steps = []
    keep = 0
    for (c, _, _), c_now in zip(steps, order[1:]):
        if c != c_now:
            break
        keep += 1
    del steps[keep:]
    if not steps:
        steps.append((order[1], depart[order[1] - 1], None))
    for c in order[len(steps) + 1:]:
        c_prev, dp, _ = steps[-1]
        trans = into[c - 1, :, c_prev - 1, :] + dp
        parent = trans.argmin(axis=1)
        steps.append((c, trans[rows, parent], parent))
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


class _Insertions:
    """Insertion deltas of the clusters still to insert into a _Search
    tour, kept across the rounds of one insertion call.

    raw[r, p, k] prices vertex k of clusters[r] (sorted) between tour[p]
    and its successor: (enter + leave) - the edge it breaks, or enter +
    leave on a depot-only tour, which has no edge to break (tmat[0, 0] is
    the penalty).  An insertion sets its cluster's row of raw to inf, a
    dead row no pick can reach, and replaces the broken edge's entries
    (axis 1) by those of its two new edges, so a round gathers
    2 * len(clusters) * 2C entries, not the whole array again.  prox[r], the smallest edge
    between clusters[r] and any tour vertex (inf once inserted), is kept
    only for nearest calls; it is None otherwise.
    """

    def __init__(self, search: _Search, clusters: list[int],
                 nearest: bool) -> None:
        self.search = search
        self.clusters = clusters
        self.left = len(clusters)
        self.dead = np.zeros(len(clusters), dtype=bool)
        self.picked = np.array(clusters, dtype=np.intp)[:, None] - 1
        tour = np.array(search.tour_vertices(), dtype=np.intp)
        succ = np.concatenate((tour[1:], tour[:1]))
        enter, leave = self._edges(tour, succ)
        self.raw = enter + leave
        if len(tour) > 1:
            self.raw -= search.tmat[succ, tour][:, None]
        self.prox = np.minimum(enter, leave).min(axis=(1, 2)) \
            if nearest else None

    def _edges(self, heads: np.ndarray,
               tails: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(len(clusters), len(heads), 2C) edges from heads[p] into each
        vertex, and from each vertex to tails[p]."""
        s = self.search
        enter = s.cost_out[heads, self.picked]
        enter = np.where(np.isfinite(enter), enter, s.big)
        return enter, s.tmat_out[tails, self.picked]

    def best(self, noisy: bool) -> tuple[float, int, int, int]:
        """Cheapest (delta, cluster, position, vertex) insertion.

        With noisy, each position delta is scaled by 1 + _NOISE * u,
        drawing len(tour) values per cluster left, in cluster order.  In a
        nearest call, the cluster is not the cheapest one but the one with
        the smallest prox.  Ties go to the first cluster, then the first
        position, then the first vertex.
        """
        delta = self.raw
        places, width = delta.shape[1:]
        if noisy and places > 1:
            count = self.left * places
            draws = itertools.starmap(self.search.rng.random,
                                      itertools.repeat((), count))
            scale = np.ones(delta.shape[:2])
            scale[~self.dead] = 1.0 + _NOISE * np.fromiter(
                draws, float, count).reshape(-1, places)
            delta = delta * scale[:, :, None]
        if self.prox is None:
            r, rest = divmod(int(delta.argmin()), places * width)
        else:
            r = int(self.prox.argmin())
            rest = int(delta[r].argmin())
        pos, k = divmod(rest, width)
        c = self.clusters[r]
        vertex = cluster_span(c, width).start + k
        return float(delta[r, pos, k]), c, pos, vertex

    def insert(self, cluster: int, pos: int, vertex: int) -> None:
        """Insert into the search's tour and update the kept deltas."""
        s = self.search
        s.insert(cluster, pos, vertex)
        self.dead[self.clusters.index(cluster)] = True
        self.left -= 1
        if not self.left:
            return
        order = s.order
        a, b = s.choice[order[pos]], s.choice[order[(pos + 2) % len(order)]]
        heads, tails = np.array([[a, vertex], [vertex, b]], dtype=np.intp)
        enter, leave = self._edges(heads, tails)
        fresh = (enter + leave) - s.tmat[tails, heads][:, None]
        self.raw = np.concatenate(
            (self.raw[:, :pos], fresh, self.raw[:, pos + 1:]), axis=1)
        self.raw[self.dead] = np.inf
        if self.prox is not None:
            self.prox = np.minimum(self.prox, np.minimum(
                enter[:, 1], leave[:, 0]).min(axis=1))
            self.prox[self.dead] = np.inf


class _Search:
    """Mutable ALNS state for one restart."""

    def __init__(self, cost: np.ndarray, tmat: np.ndarray, m: int,
                 rng: random.Random, big: float) -> None:
        self.tmat = tmat
        self.big = big  # tmat's price of an infinite edge
        # tmat is transposed, so its depot row prices the closing edges.
        self.into, self.arrive, self.depart = cluster_views(tmat, m)
        self.width = self.into.shape[1]
        # Rows split by cluster: edges from a vertex into each cluster, and
        # from each cluster into a vertex.
        self.cost_out = cost[:, 1:].reshape(len(cost), m, self.width)
        self.tmat_out = tmat[:, 1:].reshape(len(tmat), m, self.width)
        self.rng = rng
        self.order: list[int] = [0]
        self.choice: dict[int, int] = {0: 0}
        # Forward DP of the last reoptimize_vertices, reused along the
        # prefix the next order shares with it.
        self.steps: list[_Step] = []

    def tour_vertices(self) -> list[int]:
        return [self.choice[c] for c in self.order]

    def cost(self) -> float:
        vs = np.array(self.tour_vertices(), dtype=np.intp)
        return float(self.tmat[np.concatenate((vs[1:], vs[:1])), vs].sum())

    def insert(self, cluster: int, pos: int, vertex: int) -> None:
        self.order.insert(pos + 1, cluster)
        self.choice[cluster] = vertex

    def remove_clusters(self, removed: list[int]) -> None:
        gone = set(removed)
        self.order = [c for c in self.order if c not in gone]
        for c in removed:
            del self.choice[c]

    def reoptimize_vertices(self) -> None:
        if len(self.order) < 2:
            return
        _, self.choice = _layered_dp(self.into, self.depart, self.arrive,
                                     self.order, self.steps)

    def _relocate_to_local_opt(self, deadline: float) -> None:
        improved = True
        while improved and time.monotonic() <= deadline:
            improved = False
            base = self.cost()
            for c in list(self.order[1:]):
                snap = self.snapshot()
                self.remove_clusters([c])
                self.insert_greedy([c])
                self.reoptimize_vertices()
                if self.cost() < base - 1e-12:
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
        fwd_cost = self.cost()
        self.order = [0] + self.order[:0:-1]
        self.reoptimize_vertices()
        self._relocate_to_local_opt(deadline)
        if self.cost() >= fwd_cost - 1e-12:
            self.restore(fwd)

    def snapshot(self) -> tuple[list[int], dict[int, int], list[_Step]]:
        return self.order.copy(), self.choice.copy(), self.steps.copy()

    def restore(self,
                snap: tuple[list[int], dict[int, int], list[_Step]]) -> None:
        self.order = snap[0].copy()
        self.choice = snap[1].copy()
        self.steps = snap[2].copy()

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

    def remove_worst(self, count: int) -> list[int]:
        ring = np.array(self.order[1:])
        vs = np.array(self.tour_vertices(), dtype=np.intp)
        prev, v, succ = vs[:-1], vs[1:], np.concatenate((vs[2:], vs[:1]))
        gain = (self.tmat[v, prev] + self.tmat[succ, v]) - self.tmat[succ, prev]
        noisy = gain * (1.0 + _NOISE * np.array([self.rng.random() for _ in ring]))
        # Largest noisy gain first, ties to the smaller cluster.
        removed = ring[np.lexsort((ring, -noisy))[:count]].tolist()
        self.remove_clusters(removed)
        return removed

    # Insertion heuristics.  Each inserts every removed cluster.

    def insert_greedy(self, removed: list[int], noisy: bool = False,
                      nearest: bool = False) -> None:
        """Repeatedly insert the cluster _Insertions.best picks."""
        prices = _Insertions(self, sorted(removed), nearest)
        while prices.left:
            _, c, pos, vertex = prices.best(noisy)
            prices.insert(c, pos, vertex)

    def insert_random(self, removed: list[int]) -> None:
        """Random cluster into a random position, best vertex for it."""
        remaining = sorted(removed)
        while remaining:
            c = remaining[self.rng.randrange(len(remaining))]
            span = cluster_span(c, self.width)
            tour = self.tour_vertices()
            pos = self.rng.randrange(len(tour))
            a = tour[pos]
            b = tour[(pos + 1) % len(tour)]
            enter = self.tmat[span, a] + self.tmat[b, span] - self.tmat[b, a]
            k = int(np.argmin(enter))
            self.insert(c, pos, span.start + k)
            remaining.remove(c)


def _roulette(weights: list[float], rng: random.Random) -> int:
    total = sum(weights)
    pick = rng.random() * total
    acc = 0.0
    for idx, w in enumerate(weights):
        acc += w
        if pick < acc:
            return idx
    return len(weights) - 1


def _adapt(weights: list[float], scores: list[float], tries: list[int]) -> None:
    """Segment end, in place: tried weights move toward their mean score."""
    for k, n in enumerate(tries):
        if n:
            weights[k] = max(_MIN_WEIGHT, (1 - _REACTION) * weights[k]
                             + _REACTION * scores[k] / n)
    scores[:] = [0.0] * len(scores)
    tries[:] = [0] * len(tries)


def solve_glns(g: ClusteredGraph, params: SolverParams | None = None) -> GtspTour:
    """Adaptive large neighborhood search over the clustered graph.

    The restarts run in the fork pool (workers.in_workers); the cheapest
    tour wins, ties to the lowest restart, as in a sequential run.
    """
    params = params or SolverParams()
    m = g.n_cells
    tmat = g.cost.T.copy()  # C-ordered; costs are finite or +inf
    infinite = np.isinf(tmat)
    tmat[infinite] = 0.0
    # An infinite edge costs more than any tour of finite ones, unless 4
    # (m + 1) times that overflows: the search's sums must stay finite.
    big = max(BIG, (m + 1) * float(tmat.max()))
    big = big if math.isfinite(4 * (m + 1) * big) else BIG
    tmat[infinite] = big
    del infinite  # V * V bytes the search never reads
    deadline = time.monotonic() + params.time_budget

    best_vertices: list[int] | None = None
    best_true = math.inf
    for _, true_cost, vertices in sorted(in_workers(
            lambda share: _restarts(g, tmat, big, m, params, share, deadline),
            list(range(params.restarts)))):
        if true_cost < best_true:
            best_true = true_cost
            best_vertices = vertices

    if best_vertices is None or not math.isfinite(best_true):
        raise NoFeasibleTour(
            "no feasible tour found; every candidate kept an infeasible edge")
    return _as_tour(g, best_vertices)


def _restarts(g: ClusteredGraph, tmat: np.ndarray, big: float, m: int,
              params: SolverParams, indices: list[int],
              deadline: float) -> list[tuple[int, float, list[int]]]:
    """(restart, true cost, vertices) of each restart in indices, run in
    turn until the deadline passes."""
    iterations = _MODE_ITER_FACTOR[params.mode] * m + _BASE_ITERS
    results = []
    for restart in indices:
        rng = random.Random(params.rng_seed * 1000003 + restart)
        search = _Search(g.cost, tmat, m, rng, big)
        search.insert_greedy(list(range(1, m + 1)))  # cheapest insertion
        search.reoptimize_vertices()
        cur_cost = search.cost()
        restart_best = search.snapshot()
        restart_best_cost = cur_cost

        removal_ops = [_Search.remove_segment, _Search.remove_distance,
                       _Search.remove_worst]
        insertion_ops = [
            _Search.insert_greedy,  # cheapest
            lambda s, removed: s.insert_greedy(removed, noisy=True),
            lambda s, removed: s.insert_greedy(removed, nearest=True),
            _Search.insert_random]
        w_rm = [1.0] * len(removal_ops)
        w_ins = [1.0] * len(insertion_ops)
        score_rm = [0.0] * len(removal_ops)
        score_ins = [0.0] * len(insertion_ops)
        tries_rm = [0] * len(removal_ops)
        tries_ins = [0] * len(insertion_ops)

        temperature = 0.05 * cur_cost / math.log(2.0)
        lo = 1
        hi = min(m, max(2, int(round(0.3 * m))))

        for it in range(iterations):
            if time.monotonic() > deadline:
                break
            r_idx = _roulette(w_rm, rng)
            i_idx = _roulette(w_ins, rng)
            tries_rm[r_idx] += 1
            tries_ins[i_idx] += 1

            snap = search.snapshot()
            count = rng.randint(lo, min(hi, m))
            removed = removal_ops[r_idx](search, count)
            insertion_ops[i_idx](search, removed)
            if search.order == snap[0]:
                # The move put the same order back: the DP would re-pick
                # the snapshot's vertices at the current cost.
                search.restore(snap)
                cand_cost = cur_cost
            else:
                # Vertex choice (battery level) dominates cost here, so
                # every candidate order is evaluated with its DP-optimal
                # vertices.
                search.reoptimize_vertices()
                cand_cost = search.cost()

            sigma = 0.0
            accept = False
            if cand_cost < restart_best_cost:
                sigma, accept = _SIGMA_BEST, True
            elif cand_cost < cur_cost:
                sigma, accept = _SIGMA_BETTER, True
            elif temperature > 0 and \
                    rng.random() < math.exp(-(cand_cost - cur_cost) / temperature):
                sigma, accept = _SIGMA_ACCEPTED, True

            if accept:
                cur_cost = cand_cost
                if cand_cost < restart_best_cost:
                    restart_best_cost = cand_cost
                    restart_best = search.snapshot()
            else:
                search.restore(snap)

            if sigma:
                score_rm[r_idx] += sigma
                score_ins[i_idx] += sigma

            temperature *= _COOLING
            if it % _SEGMENT == _SEGMENT - 1:
                _adapt(w_rm, score_rm, tries_rm)
                _adapt(w_ins, score_ins, tries_ins)

        search.restore(restart_best)
        search.polish(deadline)
        vertices = search.tour_vertices()
        results.append((restart, tour_cost(g, GtspTour(tuple(vertices), 0.0)),
                        vertices))
        if time.monotonic() > deadline:
            break
    return results

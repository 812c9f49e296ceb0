"""Frozen full-table Held-Karp solver.

A deliberate second copy, as dubins_reference is of the Dubins paths:
this is the exact GTSP solver airmule.solver ran while it filled value
and rank tables for every subset of clusters, each set's step over all of
its states, finite or not.  It imports nothing from airmule, so the
two-layer solver is checked against independent code, bit for bit: the
same cost float and the same tour.  Do not edit it to follow src/: a
mismatch is the two-layer solver's to explain.
"""

import itertools
import math

import numpy as np


def _cluster_views(mat, n):
    """(blocks, depot row, depot column) of mat, shaped (n, 2C, n, 2C),
    (n, 2C) and (n, 2C)."""
    width = (len(mat) - 1) // n
    return (mat[1:, 1:].reshape(n, width, n, width),
            mat[0, 1:].reshape(n, width), mat[1:, 0].reshape(n, width))


def _layered_dp(into, depart, arrive, order):
    """(cycle cost, cluster -> vertex id) of the best vertices along a
    cyclic cluster order that starts with the depot cluster 0."""
    width = into.shape[1]
    rows = np.arange(width)
    steps = [(order[1], depart[order[1] - 1], None)]
    for c in order[2:]:
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
        choice[c] = 1 + (c - 1) * width + idx
        if parent is not None:
            idx = int(parent[idx])
    return total, choice


def held_karp(mat, m):
    """(cost, vertex ids) of the optimal cycle over m clusters of the
    square matrix mat, depot vertex first, or (inf, None) when every
    cluster order hits an infinite edge.  Ties go to the lexicographically
    smallest cluster order."""
    blocks, depart, arrive = _cluster_views(mat, m)
    width = blocks.shape[1]
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
            trans = blocks[cs[:, None, None], vertex, ds].reshape(k * width, -1)
            trans += value[s, cs].reshape(-1, 1)
            ranks = rank[s, cs].ravel()
            by_rank = np.argsort(ranks, kind="stable")
            trans = trans[by_rank]
            pick = trans.argmin(axis=0)
            best = trans[pick, np.arange(trans.shape[1])]
            pred = ranks[by_rank][pick]
            value[s + (1 << ds), ds] = best.reshape(-1, width)
            rank[s + (1 << ds), ds] = pred.reshape(-1, width) * m + ds[:, None]
        layer = [sum(1 << c for c in inside)
                 for inside in itertools.combinations(range(m), k + 1)]
        new = rank[layer]
        seen = np.bincount(new.ravel()) > 0
        rank[layer] = (np.cumsum(seen) - 1)[new]
        keys.append(np.flatnonzero(seen))

    closing = value[-1] + arrive
    total = float(closing.min())
    if not math.isfinite(total):
        return math.inf, None
    r = int(rank[-1][closing == total].min())
    order = []
    for uniq in reversed(keys):
        r, d = divmod(int(uniq[r]), m)
        order.append(d + 1)
    order = [0, r + 1] + order[::-1]
    _, choice = _layered_dp(blocks.transpose(2, 3, 0, 1), depart, arrive,
                            order)
    return total, [choice[c] for c in order]

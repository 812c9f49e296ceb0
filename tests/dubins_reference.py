"""Frozen scalar Dubins paths and transit legs.

A deliberate second copy, as oracle18 is of the edge costs: this is the
pair-by-pair code that airmule.geometry.dubins_shortest and the graph's
transit legs ran before both became one array pass.  It imports nothing
from airmule; it reads sites and configs by attribute only.  So the
array code is checked against independent arithmetic, bit for bit.  Do
not edit it to follow src/: a mismatch is the array code's to explain.
"""

import math
from collections import namedtuple

TWO_PI = 2.0 * math.pi
LEVEL_EPS = 1e-9

Path = namedtuple("Path", "word segment_lengths total_length")
Pose = namedtuple("Pose", "position heading")


def mod2pi(theta):
    result = theta - TWO_PI * math.floor(theta / TWO_PI)
    if result >= TWO_PI:
        return 0.0
    return result


# Each word solver takes the normalized problem (alpha, beta, d) and returns
# (t, p, q) with t, q in radians and p in turn-radius units, or None when the
# configuration does not admit that word.


def _lsl(alpha, beta, d):
    sa, sb = math.sin(alpha), math.sin(beta)
    ca, cb = math.cos(alpha), math.cos(beta)
    p_sq = 2.0 + d * d - 2.0 * math.cos(alpha - beta) + 2.0 * d * (sa - sb)
    if p_sq < 0.0:
        return None
    tmp = math.atan2(cb - ca, d + sa - sb)
    return (mod2pi(-alpha + tmp), math.sqrt(p_sq), mod2pi(beta - tmp))


def _rsr(alpha, beta, d):
    sa, sb = math.sin(alpha), math.sin(beta)
    ca, cb = math.cos(alpha), math.cos(beta)
    p_sq = 2.0 + d * d - 2.0 * math.cos(alpha - beta) + 2.0 * d * (sb - sa)
    if p_sq < 0.0:
        return None
    tmp = math.atan2(ca - cb, d - sa + sb)
    return (mod2pi(alpha - tmp), math.sqrt(p_sq), mod2pi(-beta + tmp))


def _lsr(alpha, beta, d):
    sa, sb = math.sin(alpha), math.sin(beta)
    ca, cb = math.cos(alpha), math.cos(beta)
    p_sq = -2.0 + d * d + 2.0 * math.cos(alpha - beta) + 2.0 * d * (sa + sb)
    if p_sq < 0.0:
        return None
    p = math.sqrt(p_sq)
    tmp = math.atan2(-ca - cb, d + sa + sb) - math.atan2(-2.0, p)
    return (mod2pi(-alpha + tmp), p, mod2pi(-mod2pi(beta) + tmp))


def _rsl(alpha, beta, d):
    sa, sb = math.sin(alpha), math.sin(beta)
    ca, cb = math.cos(alpha), math.cos(beta)
    p_sq = d * d - 2.0 + 2.0 * math.cos(alpha - beta) - 2.0 * d * (sa + sb)
    if p_sq < 0.0:
        return None
    p = math.sqrt(p_sq)
    tmp = math.atan2(ca + cb, d - sa - sb) - math.atan2(2.0, p)
    return (mod2pi(alpha - tmp), p, mod2pi(beta - tmp))


def _rlr(alpha, beta, d):
    sa, sb = math.sin(alpha), math.sin(beta)
    ca, cb = math.cos(alpha), math.cos(beta)
    tmp = (6.0 - d * d + 2.0 * math.cos(alpha - beta) + 2.0 * d * (sa - sb)) / 8.0
    if abs(tmp) > 1.0:
        return None
    p = mod2pi(TWO_PI - math.acos(tmp))
    t = mod2pi(alpha - math.atan2(ca - cb, d - sa + sb) + mod2pi(p / 2.0))
    return (t, p, mod2pi(alpha - beta - t + mod2pi(p)))


def _lrl(alpha, beta, d):
    sa, sb = math.sin(alpha), math.sin(beta)
    ca, cb = math.cos(alpha), math.cos(beta)
    tmp = (6.0 - d * d + 2.0 * math.cos(alpha - beta) + 2.0 * d * (sb - sa)) / 8.0
    if abs(tmp) > 1.0:
        return None
    p = mod2pi(TWO_PI - math.acos(tmp))
    t = mod2pi(-alpha - math.atan2(ca - cb, d + sa - sb) + mod2pi(p / 2.0))
    return (t, p, mod2pi(mod2pi(beta) - alpha - t + mod2pi(p)))


# Tie-break order for equal-length words.
WORDS = (("LSL", _lsl), ("RSR", _rsr), ("LSR", _lsr),
         ("RSL", _rsl), ("RLR", _rlr), ("LRL", _lrl))


def dubins_shortest(start, goal, turn_radius):
    """Shortest Dubins path between two poses (anything with .position
    and a heading in [0, 2*pi)); ties resolve by word order."""
    if turn_radius <= 0.0:
        raise ValueError("turn_radius must be positive")
    if start.position == goal.position and start.heading == goal.heading:
        return Path("LSL", (0.0, 0.0, 0.0), 0.0)

    (sx, sy), (gx, gy) = start.position, goal.position
    dx, dy = gx - sx, gy - sy
    big_d = math.hypot(dx, dy)
    d = big_d / turn_radius
    if math.isinf(d * d):
        return Path("LSL", (0.0, math.inf, 0.0), math.inf)
    theta = math.atan2(dy, dx)
    alpha = mod2pi(start.heading - theta)
    beta = mod2pi(goal.heading - theta)

    best = None
    for word, solver in WORDS:
        sol = solver(alpha, beta, d)
        if sol is None:
            continue
        t, p, q = sol
        segs = (t * turn_radius, p * turn_radius, q * turn_radius)
        total = segs[0] + segs[1] + segs[2]
        if best is None or total < best.total_length:
            best = Path(word, segs, total)
    assert best is not None  # LSL/RSR always admit a solution
    return best


def consumption_levels(distance, fixed_wing, cfg):
    """Battery levels a leg of that distance consumes; C + 1 beyond a
    full battery."""
    span = cfg.d_max * cfg.fixed_wing_ratio if fixed_wing else cfg.d_max
    x = distance * cfg.battery_levels / span - LEVEL_EPS
    if not x <= cfg.battery_levels:
        return cfg.battery_levels + 1
    return max(0, math.ceil(x))


def pair_legs(exit_i, entry_j, h_i, h_j, cfg):
    """(time, levels) of the transit legs of one ordered end pair: flown
    multi-rotor, fixed-wing from the coverage heading h_i, fixed-wing
    after a take-off aligned with h_j, and riding the UGV."""
    d = math.hypot(entry_j.x - exit_i.x, entry_j.y - exit_i.y)
    start, goal = (exit_i.x, exit_i.y), (entry_j.x, entry_j.y)
    h_i, h_j = mod2pi(h_i), mod2pi(h_j)
    air = dubins_shortest(Pose(start, h_i), Pose(goal, h_j),
                          cfg.turn_radius).total_length
    stop = dubins_shortest(Pose(start, h_j), Pose(goal, h_j),
                           cfg.turn_radius).total_length
    return ((d, consumption_levels(d, False, cfg)),
            (air / cfg.fixed_wing_speed, consumption_levels(air, True, cfg)),
            (stop / cfg.fixed_wing_speed, consumption_levels(stop, True, cfg)),
            (d / cfg.ugv_speed_ratio, 0))

"""Distances, Dubins shortest paths and UGV travel times.

The UAV flies at unit speed in multi-rotor mode, so multi-rotor travel
times equal Euclidean distances.  Fixed-wing legs follow Dubins paths
with a bounded turn radius and a configurable cruise speed.  The UGV
drives at a fixed fraction of the multi-rotor speed.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Union

if TYPE_CHECKING:
    from .energy import PlannerConfig

TWO_PI = 2.0 * math.pi

END_A = "A"
END_B = "B"


class FlightMode(enum.Enum):
    MULTI_ROTOR = "multi_rotor"
    FIXED_WING = "fixed_wing"


@dataclass(frozen=True)
class Site:
    """An endpoint of a cell; on_road marks sites the UGV can reach."""

    id: int
    x: float
    y: float
    on_road: bool = True


@dataclass(frozen=True)
class Cell:
    """A rectangular strip, covered by one straight pass between its ends."""

    index: int
    end_a: Site
    end_b: Site

    def __post_init__(self) -> None:
        if (self.end_a.x, self.end_a.y) == (self.end_b.x, self.end_b.y):
            raise ValueError(f"cell {self.index} has zero length")
        for s in (self.end_a, self.end_b):
            if not (math.isfinite(s.x) and math.isfinite(s.y)):
                raise ValueError(f"cell {self.index} has a non-finite endpoint")

    def end(self, which: str) -> Site:
        if which == END_A:
            return self.end_a
        if which == END_B:
            return self.end_b
        raise ValueError(f"unknown cell end {which!r}")

    def other_end(self, which: str) -> Site:
        return self.end_b if which == END_A else self.end_a

    @property
    def length(self) -> float:
        return math.hypot(self.end_b.x - self.end_a.x, self.end_b.y - self.end_a.y)


@dataclass(frozen=True)
class Pose:
    """Planar position plus heading, normalized to [0, 2*pi)."""

    position: tuple[float, float]
    heading: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "heading", mod2pi(self.heading))


@dataclass(frozen=True)
class DubinsPath:
    word: str
    segment_lengths: tuple[float, float, float]
    total_length: float


PointLike = Union[Site, Pose]


def mod2pi(theta: float) -> float:
    result = theta - TWO_PI * math.floor(theta / TWO_PI)
    if result >= TWO_PI:
        return 0.0
    return result


def position_of(p: PointLike) -> tuple[float, float]:
    if isinstance(p, Site):
        return (p.x, p.y)
    return p.position


def euclid(p: PointLike, q: PointLike) -> float:
    (px, py), (qx, qy) = position_of(p), position_of(q)
    return math.hypot(qx - px, qy - py)


# Each word solver takes the normalized problem (alpha, beta, d) and returns
# (t, p, q) with t, q in radians and p in turn-radius units, or None when the
# configuration does not admit that word.


def _lsl(alpha: float, beta: float, d: float):
    sa, sb = math.sin(alpha), math.sin(beta)
    ca, cb = math.cos(alpha), math.cos(beta)
    p_sq = 2.0 + d * d - 2.0 * math.cos(alpha - beta) + 2.0 * d * (sa - sb)
    if p_sq < 0.0:
        return None
    tmp = math.atan2(cb - ca, d + sa - sb)
    return (mod2pi(-alpha + tmp), math.sqrt(p_sq), mod2pi(beta - tmp))


def _rsr(alpha: float, beta: float, d: float):
    sa, sb = math.sin(alpha), math.sin(beta)
    ca, cb = math.cos(alpha), math.cos(beta)
    p_sq = 2.0 + d * d - 2.0 * math.cos(alpha - beta) + 2.0 * d * (sb - sa)
    if p_sq < 0.0:
        return None
    tmp = math.atan2(ca - cb, d - sa + sb)
    return (mod2pi(alpha - tmp), math.sqrt(p_sq), mod2pi(-beta + tmp))


def _lsr(alpha: float, beta: float, d: float):
    sa, sb = math.sin(alpha), math.sin(beta)
    ca, cb = math.cos(alpha), math.cos(beta)
    p_sq = -2.0 + d * d + 2.0 * math.cos(alpha - beta) + 2.0 * d * (sa + sb)
    if p_sq < 0.0:
        return None
    p = math.sqrt(p_sq)
    tmp = math.atan2(-ca - cb, d + sa + sb) - math.atan2(-2.0, p)
    return (mod2pi(-alpha + tmp), p, mod2pi(-mod2pi(beta) + tmp))


def _rsl(alpha: float, beta: float, d: float):
    sa, sb = math.sin(alpha), math.sin(beta)
    ca, cb = math.cos(alpha), math.cos(beta)
    p_sq = d * d - 2.0 + 2.0 * math.cos(alpha - beta) - 2.0 * d * (sa + sb)
    if p_sq < 0.0:
        return None
    p = math.sqrt(p_sq)
    tmp = math.atan2(ca + cb, d - sa - sb) - math.atan2(2.0, p)
    return (mod2pi(alpha - tmp), p, mod2pi(beta - tmp))


def _rlr(alpha: float, beta: float, d: float):
    sa, sb = math.sin(alpha), math.sin(beta)
    ca, cb = math.cos(alpha), math.cos(beta)
    tmp = (6.0 - d * d + 2.0 * math.cos(alpha - beta) + 2.0 * d * (sa - sb)) / 8.0
    if abs(tmp) > 1.0:
        return None
    p = mod2pi(TWO_PI - math.acos(tmp))
    t = mod2pi(alpha - math.atan2(ca - cb, d - sa + sb) + mod2pi(p / 2.0))
    return (t, p, mod2pi(alpha - beta - t + mod2pi(p)))


def _lrl(alpha: float, beta: float, d: float):
    sa, sb = math.sin(alpha), math.sin(beta)
    ca, cb = math.cos(alpha), math.cos(beta)
    tmp = (6.0 - d * d + 2.0 * math.cos(alpha - beta) + 2.0 * d * (sb - sa)) / 8.0
    if abs(tmp) > 1.0:
        return None
    p = mod2pi(TWO_PI - math.acos(tmp))
    t = mod2pi(-alpha - math.atan2(ca - cb, d + sa - sb) + mod2pi(p / 2.0))
    return (t, p, mod2pi(mod2pi(beta) - alpha - t + mod2pi(p)))


# Tie-break order for equal-length words.
_WORDS = (("LSL", _lsl), ("RSR", _rsr), ("LSR", _lsr),
          ("RSL", _rsl), ("RLR", _rlr), ("LRL", _lrl))


def dubins_shortest(start: Pose, goal: Pose, turn_radius: float) -> DubinsPath:
    """Shortest Dubins path between two poses.

    Evaluates all six words and keeps the minimum; ties resolve by word
    order LSL < RSR < LSR < RSL < RLR < LRL.
    """
    if turn_radius <= 0.0:
        raise ValueError("turn_radius must be positive")
    if start.position == goal.position and start.heading == goal.heading:
        return DubinsPath("LSL", (0.0, 0.0, 0.0), 0.0)

    (sx, sy), (gx, gy) = start.position, goal.position
    dx, dy = gx - sx, gy - sy
    big_d = math.hypot(dx, dy)
    d = big_d / turn_radius
    if math.isinf(d * d):
        # So many turn radii apart that the word formulas would overflow
        # into inf - inf: no word gets a finite length.
        return DubinsPath("LSL", (0.0, math.inf, 0.0), math.inf)
    theta = math.atan2(dy, dx)
    alpha = mod2pi(start.heading - theta)
    beta = mod2pi(goal.heading - theta)

    best: DubinsPath | None = None
    for word, solver in _WORDS:
        sol = solver(alpha, beta, d)
        if sol is None:
            continue
        t, p, q = sol
        segs = (t * turn_radius, p * turn_radius, q * turn_radius)
        total = segs[0] + segs[1] + segs[2]
        if best is None or total < best.total_length:
            best = DubinsPath(word, segs, total)
    assert best is not None  # LSL/RSR always admit a solution
    return best


def ugv_time(start: PointLike, goal: PointLike, cfg: "PlannerConfig") -> float:
    """UGV driving time; the UGV moves at ugv_speed_ratio of unit speed."""
    return euclid(start, goal) / cfg.ugv_speed_ratio


def traversal_heading(cell: Cell, entry: str) -> float:
    """Heading of the straight coverage pass entered at the given end."""
    a = cell.end(entry)
    b = cell.other_end(entry)
    return mod2pi(math.atan2(b.y - a.y, b.x - a.x))


def _orient(ax, ay, bx, by, cx, cy) -> float:
    return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)


def _on_segment(ax, ay, bx, by, px, py) -> bool:
    return min(ax, bx) <= px <= max(ax, bx) and min(ay, by) <= py <= max(ay, by)


def segments_intersect(p1: tuple, p2: tuple, q1: tuple, q2: tuple) -> bool:
    """True when the closed segments p1-p2 and q1-q2 share a point."""
    d1 = _orient(*q1, *q2, *p1)
    d2 = _orient(*q1, *q2, *p2)
    d3 = _orient(*p1, *p2, *q1)
    d4 = _orient(*p1, *p2, *q2)
    if ((d1 > 0 and d2 < 0) or (d1 < 0 and d2 > 0)) and \
            ((d3 > 0 and d4 < 0) or (d3 < 0 and d4 > 0)):
        return True
    if d1 == 0 and _on_segment(*q1, *q2, *p1):
        return True
    if d2 == 0 and _on_segment(*q1, *q2, *p2):
        return True
    if d3 == 0 and _on_segment(*p1, *p2, *q1):
        return True
    if d4 == 0 and _on_segment(*p1, *p2, *q2):
        return True
    return False

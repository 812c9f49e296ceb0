"""Distances, Dubins shortest paths and UGV travel times.

The UAV flies at unit speed in multi-rotor mode, so multi-rotor travel
times equal Euclidean distances.  Fixed-wing legs follow Dubins paths
with a bounded turn radius and a configurable cruise speed:
dubins_arrays computes the shortest paths of many pose pairs in one
pass, and dubins_shortest is that pass on one pair.  The UGV drives at a
fixed fraction of the multi-rotor speed.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Union

import numpy as np

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


# Elements per list of Python floats that elementwise hands to math.
# Lists over all of glns-n50's 19,600 Dubins problems left memory the
# search did not reuse: 0.5-0.7 MB more perfbench peak RSS.
_MATH_BLOCK = 1024


def elementwise(fn, *arrays: np.ndarray) -> np.ndarray:
    """fn, a function of math, applied element by element to 1-D float
    arrays.  numpy's sin, cos, arctan2, arccos and hypot need not round
    as math's do, and numpy picks their SIMD kernels per CPU; numpy is
    left the operations that IEEE rounds exactly (+, -, *, /, sqrt,
    floor, comparisons), so the arrays hold the bytes of scalar code."""
    out = np.empty(len(arrays[0]))
    for k in range(0, len(out), _MATH_BLOCK):
        block = slice(k, k + _MATH_BLOCK)
        args = (a[block].tolist() for a in arrays)
        out[block] = np.fromiter(map(fn, *args), np.float64)
    return out


def _wrap(theta: np.ndarray) -> np.ndarray:
    """mod2pi of each element, in the same float operations.  The + 0.0
    turns a floor of -0.0 into 0.0, as the int of math.floor does, so
    that -0.0 maps to -0.0."""
    result = theta - TWO_PI * (np.floor(theta / TWO_PI) + 0.0)
    return np.where(result >= TWO_PI, 0.0, result)


# Tie-break order for equal-length words.
DUBINS_WORDS = ("LSL", "RSR", "LSR", "RSL", "RLR", "LRL")


def _words(alpha: np.ndarray, beta: np.ndarray, d: np.ndarray):
    """Yields (admitted, t, p, q) of each word in DUBINS_WORDS order,
    elementwise over the normalized problems (alpha, beta, d): t and q
    in radians, p in turn-radius units, and t, p, q finite where the
    configuration does not admit the word.  The formulas are Shkel &
    Lumelsky's, in the operation order of the scalar code they
    replaced."""
    sa, sb = elementwise(math.sin, alpha), elementwise(math.sin, beta)
    ca, cb = elementwise(math.cos, alpha), elementwise(math.cos, beta)
    cos_ab = elementwise(math.cos, alpha - beta)
    atan2 = functools.partial(elementwise, math.atan2)

    def straight(p_sq):
        admitted = ~(p_sq < 0.0)
        return admitted, np.sqrt(np.where(admitted, p_sq, 0.0))

    def turning(tmp):
        admitted = ~(np.abs(tmp) > 1.0)
        acos = elementwise(math.acos, np.clip(tmp, -1.0, 1.0))
        return admitted, _wrap(TWO_PI - acos)

    ok, p = straight(2.0 + d * d - 2.0 * cos_ab + 2.0 * d * (sa - sb))
    tmp = atan2(cb - ca, d + sa - sb)
    yield ok, _wrap(-alpha + tmp), p, _wrap(beta - tmp)  # LSL

    ok, p = straight(2.0 + d * d - 2.0 * cos_ab + 2.0 * d * (sb - sa))
    tmp_rsr = atan2(ca - cb, d - sa + sb)  # RLR's angle too
    yield ok, _wrap(alpha - tmp_rsr), p, _wrap(-beta + tmp_rsr)  # RSR

    ok, p = straight(-2.0 + d * d + 2.0 * cos_ab + 2.0 * d * (sa + sb))
    tmp = atan2(-ca - cb, d + sa + sb) - atan2(np.full_like(p, -2.0), p)
    yield ok, _wrap(-alpha + tmp), p, _wrap(-_wrap(beta) + tmp)  # LSR

    ok, p = straight(d * d - 2.0 + 2.0 * cos_ab - 2.0 * d * (sa + sb))
    tmp = atan2(ca + cb, d - sa - sb) - atan2(np.full_like(p, 2.0), p)
    yield ok, _wrap(alpha - tmp), p, _wrap(beta - tmp)  # RSL

    ok, p = turning((6.0 - d * d + 2.0 * cos_ab + 2.0 * d * (sa - sb)) / 8.0)
    t = _wrap(alpha - tmp_rsr + _wrap(p / 2.0))
    yield ok, t, p, _wrap(alpha - beta - t + _wrap(p))  # RLR

    ok, p = turning((6.0 - d * d + 2.0 * cos_ab + 2.0 * d * (sb - sa)) / 8.0)
    t = _wrap(-alpha - atan2(ca - cb, d + sa - sb) + _wrap(p / 2.0))
    yield ok, t, p, _wrap(_wrap(beta) - alpha - t + _wrap(p))  # LRL


def dubins_arrays(sx, sy, s_heading, gx, gy, g_heading, turn_radius: float):
    """Shortest Dubins paths between start and goal poses given as
    arrays of x, y and heading in [0, 2*pi), broadcast together.

    Returns (word, segments, total) in the broadcast shape: the index of
    each path's word in DUBINS_WORDS, its three segment lengths along a
    leading axis, and its length.  Every word is evaluated and the
    shortest kept; ties resolve by word order LSL < RSR < LSR < RSL <
    RLR < LRL.  Identical poses give LSL of length 0, and poses so many
    turn radii apart that the word formulas would overflow into inf -
    inf give LSL (0, inf, 0).
    """
    if turn_radius <= 0.0:
        raise ValueError("turn_radius must be positive")
    arrays = np.broadcast_arrays(*(np.asarray(a, dtype=np.float64) for a in
                                   (sx, sy, s_heading, gx, gy, g_heading)))
    shape = arrays[0].shape
    sx, sy, sh, gx, gy, gh = (a.ravel() for a in arrays)
    # Python floats overflow to inf silently, and so do these arrays.
    with np.errstate(over="ignore"):
        dx, dy = gx - sx, gy - sy
        d = elementwise(math.hypot, dx, dy) / turn_radius
        far = np.isinf(d * d)
        theta = elementwise(math.atan2, dy, dx)
        alpha = _wrap(sh - theta)
        beta = _wrap(gh - theta)
        found = np.zeros(len(d), dtype=bool)
        word = np.zeros(len(d), dtype=np.int64)
        segments = np.zeros((3, len(d)))
        total = np.full(len(d), math.inf)
        for k, (admitted, t, p, q) in enumerate(
                _words(alpha, beta, np.where(far, 0.0, d))):
            segs = np.array((t, p, q)) * turn_radius
            length = segs[0] + segs[1] + segs[2]
            # As the scalar loop: the first admitted word, then only a
            # strictly shorter one, so ties keep the earlier word.
            wins = admitted & (~found | (length < total))
            found |= admitted
            word = np.where(wins, k, word)
            segments = np.where(wins, segs, segments)
            total = np.where(wins, length, total)
    same = (sx == gx) & (sy == gy) & (sh == gh)
    word = np.where(same | far, 0, word)
    total = np.where(same, 0.0, np.where(far, math.inf, total))
    segments = np.where(same, 0.0,
                        np.where(far, np.array([[0.0], [math.inf], [0.0]]),
                                 segments))
    return (word.reshape(shape), segments.reshape((3,) + shape),
            total.reshape(shape))


def dubins_shortest(start: Pose, goal: Pose, turn_radius: float) -> DubinsPath:
    """Shortest Dubins path between two poses: dubins_arrays on one pair."""
    word, segments, total = dubins_arrays(
        start.position[0], start.position[1], start.heading,
        goal.position[0], goal.position[1], goal.heading, turn_radius)
    return DubinsPath(DUBINS_WORDS[int(word)], tuple(segments.tolist()),
                      float(total))


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

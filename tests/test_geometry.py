"""Geometry tests: Dubins paths, cells, headings and UGV time."""

import math
import random

import pytest

from airmule.energy import PlannerConfig
from airmule.geometry import (Cell, Pose, Site, dubins_shortest, euclid,
                              mod2pi, segments_intersect, traversal_heading,
                              ugv_time)


def test_mod2pi_range():
    for value in (-10.0, -math.pi, 0.0, math.pi, 7.0, 2 * math.pi, -2 * math.pi):
        out = mod2pi(value)
        assert 0.0 <= out < 2 * math.pi


def test_pose_normalizes_heading():
    pose = Pose((0.0, 0.0), 3 * math.pi)
    assert math.isclose(pose.heading, math.pi)


def test_cell_rejects_zero_length():
    with pytest.raises(ValueError):
        Cell(0, Site(0, 1.0, 1.0), Site(1, 1.0, 1.0))


def test_cell_ends():
    cell = Cell(0, Site(0, 0.0, 0.0), Site(1, 3.0, 4.0))
    assert cell.length == 5.0
    assert cell.end("A") is cell.end_a
    assert cell.other_end("A") is cell.end_b
    assert cell.end("B") is cell.end_b
    with pytest.raises(ValueError):
        cell.end("C")


def test_traversal_heading():
    cell = Cell(0, Site(0, 0.0, 0.0), Site(1, 10.0, 0.0))
    assert traversal_heading(cell, "A") == 0.0
    assert math.isclose(traversal_heading(cell, "B"), math.pi)


def test_dubins_half_circle():
    path = dubins_shortest(Pose((0.0, 0.0), 0.0), Pose((0.0, 2.0), math.pi), 1.0)
    assert path.word == "LSL"
    assert path.total_length == pytest.approx(math.pi, abs=1e-12)


def test_dubins_u_turn_far():
    path = dubins_shortest(Pose((0.0, 0.0), 0.0), Pose((4.0, 0.0), math.pi), 1.0)
    assert path.word == "LSR"
    assert path.total_length == pytest.approx(7.652891819924145, abs=1e-12)


def test_dubins_same_pose():
    path = dubins_shortest(Pose((1.0, 2.0), 0.5), Pose((1.0, 2.0), 0.5), 1.0)
    assert path.total_length == 0.0


def test_dubins_straight():
    path = dubins_shortest(Pose((0.0, 0.0), 0.0), Pose((10.0, 0.0), 0.0), 1.0)
    assert path.total_length == 10.0
    assert path.word[1] == "S"


@pytest.mark.parametrize("start,goal", [
    ((1e308, 0.0), (-1e308, 5.0)),  # farther apart than a float holds
    ((1e308, 0.0), (0.0, 5.0)),
    ((0.0, 0.0), (0.0, 1e200)),
])
def test_dubins_beyond_float_range_is_infinite(start, goal):
    # The word formulas would meet inf - inf and raise on a NaN angle.
    for heading in (0.0, 1.0, math.pi, 4.0):
        path = dubins_shortest(Pose(start, heading), Pose(goal, 2.0), 1.0)
        assert path.total_length == math.inf


def test_dubins_rejects_bad_radius():
    with pytest.raises(ValueError):
        dubins_shortest(Pose((0.0, 0.0), 0.0), Pose((1.0, 0.0), 0.0), 0.0)


def _march(start, word, segs, radius):
    """Follow the word segment by segment; returns final pose."""
    x, y = start.position
    heading = start.heading
    for seg, length in zip(word, segs):
        if seg == "S":
            x += length * math.cos(heading)
            y += length * math.sin(heading)
            continue
        sign = 1.0 if seg == "L" else -1.0
        cx = x + radius * math.cos(heading + sign * math.pi / 2)
        cy = y + radius * math.sin(heading + sign * math.pi / 2)
        phi = math.atan2(y - cy, x - cx) + sign * length / radius
        x = cx + radius * math.cos(phi)
        y = cy + radius * math.sin(phi)
        heading += sign * length / radius
    return (x, y), heading


def test_dubins_reaches_goal_seeded():
    rng = random.Random(5)
    for _ in range(300):
        start = Pose((rng.uniform(-20, 20), rng.uniform(-20, 20)),
                     rng.uniform(0, 2 * math.pi))
        goal = Pose((rng.uniform(-20, 20), rng.uniform(-20, 20)),
                    rng.uniform(0, 2 * math.pi))
        radius = rng.choice([0.5, 1.0, 3.0])
        path = dubins_shortest(start, goal, radius)
        (x, y), heading = _march(start, path.word, path.segment_lengths, radius)
        assert math.hypot(x - goal.position[0], y - goal.position[1]) < 1e-6
        diff = mod2pi(heading - goal.heading)
        assert min(diff, 2 * math.pi - diff) < 1e-6
        assert path.total_length >= euclid(start, goal) - 1e-9
        assert path.total_length == sum(path.segment_lengths)


def test_dubins_collinear_matches_euclid():
    rng = random.Random(11)
    for _ in range(100):
        x0 = rng.uniform(-5, 5)
        heading = rng.uniform(0, 2 * math.pi)
        dist = rng.uniform(3.0, 40.0)
        start = Pose((x0, rng.uniform(-5, 5)), heading)
        goal = Pose((start.position[0] + dist * math.cos(heading),
                     start.position[1] + dist * math.sin(heading)), heading)
        path = dubins_shortest(start, goal, 1.0)
        assert path.total_length == pytest.approx(dist, rel=1e-12)


def test_ugv_time():
    cfg = PlannerConfig(ugv_speed_ratio=0.2)
    assert ugv_time(Site(0, 0.0, 0.0), Site(1, 10.0, 0.0), cfg) == 50.0


def test_segments_intersect():
    assert segments_intersect((0, 0), (2, 2), (0, 2), (2, 0))
    assert not segments_intersect((0, 0), (1, 0), (0, 1), (1, 1))
    # shared endpoint counts as intersection
    assert segments_intersect((0, 0), (1, 0), (1, 0), (2, 1))
    # collinear overlap
    assert segments_intersect((0, 0), (2, 0), (1, 0), (3, 0))
    assert not segments_intersect((0, 0), (1, 0), (2, 0), (3, 0))

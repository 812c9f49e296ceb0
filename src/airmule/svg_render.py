"""Deterministic SVG rendering of instances and plans.

World coordinates are y-up; SVG is y-down, so the vertical axis is
flipped.  Every coordinate is formatted with three decimals so the same
plan always renders to the same bytes.  Fixed-wing legs are drawn as
Dubins paths: straight pieces as lines, arcs split into two SVG arc
commands so each stays at or below half a turn.
"""

from __future__ import annotations

import math

from .energy import PlannerConfig
from .geometry import Cell, FlightMode, Pose, dubins_shortest
from .plan import LegKind, Plan

_MARGIN = 5.0


def _fmt(value: float) -> str:
    out = f"{value:.3f}"
    return "0.000" if out == "-0.000" else out


class _Frame:
    def __init__(self, xs: list[float], ys: list[float]) -> None:
        self.min_x = min(xs) - _MARGIN
        self.max_y = max(ys) + _MARGIN
        self.width = max(xs) + _MARGIN - self.min_x
        self.height = self.max_y - (min(ys) - _MARGIN)

    def x(self, wx: float) -> float:
        return wx - self.min_x

    def y(self, wy: float) -> float:
        return self.max_y - wy

    def point(self, wx: float, wy: float) -> str:
        return f"{_fmt(self.x(wx))},{_fmt(self.y(wy))}"


def _cell_polygon(frame: _Frame, cell: Cell) -> str:
    ax, ay = cell.end_a.x, cell.end_a.y
    bx, by = cell.end_b.x, cell.end_b.y
    ux, uy = (bx - ax) / cell.length, (by - ay) / cell.length
    nx, ny = -uy * 0.5, ux * 0.5
    corners = ((ax + nx, ay + ny), (bx + nx, by + ny),
               (bx - nx, by - ny), (ax - nx, ay - ny))
    pts = " ".join(frame.point(px, py) for px, py in corners)
    return f'<polygon points="{pts}"/>'


def _arc_commands(frame: _Frame, cx: float, cy: float, radius: float,
                  phi0: float, sweep_angle: float, ccw: bool) -> str:
    """Two SVG arc commands covering the turn, each at most half a circle."""
    out = []
    sign = 1.0 if ccw else -1.0
    sweep_flag = 0 if ccw else 1  # world CCW flips to screen CW after y-flip
    for step in (0.5, 1.0):
        phi = phi0 + sign * sweep_angle * step
        ex = cx + radius * math.cos(phi)
        ey = cy + radius * math.sin(phi)
        out.append(f"A {_fmt(radius)} {_fmt(radius)} 0 0 {sweep_flag} "
                   f"{_fmt(frame.x(ex))} {_fmt(frame.y(ey))}")
    return " ".join(out)


def _dubins_path_d(frame: _Frame, start: Pose, goal: Pose,
                   radius: float) -> str:
    path = dubins_shortest(start, goal, radius)
    x, y = start.position
    heading = start.heading
    d = [f"M {_fmt(frame.x(x))} {_fmt(frame.y(y))}"]
    for segment, length in zip(path.word, path.segment_lengths):
        if length <= 1e-9:
            continue
        if segment == "S":
            x += length * math.cos(heading)
            y += length * math.sin(heading)
            d.append(f"L {_fmt(frame.x(x))} {_fmt(frame.y(y))}")
            continue
        ccw = segment == "L"
        sign = 1.0 if ccw else -1.0
        cx = x + radius * math.cos(heading + sign * math.pi / 2.0)
        cy = y + radius * math.sin(heading + sign * math.pi / 2.0)
        phi0 = math.atan2(y - cy, x - cx)
        sweep = length / radius
        d.append(_arc_commands(frame, cx, cy, radius, phi0, sweep, ccw))
        phi1 = phi0 + sign * sweep
        x = cx + radius * math.cos(phi1)
        y = cy + radius * math.sin(phi1)
        heading += sign * sweep
    return " ".join(d)


def render_svg_str(cells: list[Cell], plan: Plan | None,
                   cfg: PlannerConfig) -> str:
    xs: list[float] = []
    ys: list[float] = []
    for cell in cells:
        xs.extend((cell.end_a.x, cell.end_b.x))
        ys.extend((cell.end_a.y, cell.end_b.y))
    if plan is not None:
        for leg in plan.uav_legs:
            xs.extend((leg.start_site.x, leg.end_site.x))
            ys.extend((leg.start_site.y, leg.end_site.y))
    frame = _Frame(xs, ys)

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="0 0 {_fmt(frame.width)} {_fmt(frame.height)}">',
        '<g id="cells" fill="#d7d7d7" stroke="#8a8a8a" stroke-width="0.15">',
    ]
    for cell in sorted(cells, key=lambda c: c.index):
        lines.append(_cell_polygon(frame, cell))
    lines.append("</g>")

    mr_lines: list[str] = []
    fw_paths: list[str] = []
    recharge_pts: list[tuple[float, float]] = []
    if plan is not None:
        for k, leg in enumerate(plan.uav_legs):
            if leg.kind is LegKind.FLY:
                fixed = leg.mode is FlightMode.FIXED_WING
                headings = (leg.start_heading, leg.end_heading)
                if fixed and headings.count(None) == 1:
                    raise ValueError(f"plan.uav_legs[{k}] is a fixed-wing "
                                     "leg with one heading of two")
                if fixed and leg.start_heading is not None:
                    start = Pose((leg.start_site.x, leg.start_site.y),
                                 leg.start_heading)
                    goal = Pose((leg.end_site.x, leg.end_site.y),
                                leg.end_heading)
                    d = _dubins_path_d(frame, start, goal, cfg.turn_radius)
                    fw_paths.append(f'<path d="{d}"/>')
                else:
                    p1 = frame.point(leg.start_site.x, leg.start_site.y)
                    p2 = frame.point(leg.end_site.x, leg.end_site.y)
                    mr_lines.append(f'<polyline points="{p1} {p2}"/>')
            elif leg.kind is LegKind.RECHARGE_IN_PLACE:
                recharge_pts.append((leg.start_site.x, leg.start_site.y))
            elif leg.kind is LegKind.RIDE_AND_RECHARGE:
                recharge_pts.append((leg.start_site.x, leg.start_site.y))
                recharge_pts.append((leg.end_site.x, leg.end_site.y))

    if mr_lines:
        lines.append('<g id="uav-mr" fill="none" stroke="#1f77b4" '
                     'stroke-width="0.4">')
        lines.extend(mr_lines)
        lines.append("</g>")
    if fw_paths:
        lines.append('<g id="uav-fw" fill="none" stroke="#d62728" '
                     'stroke-width="0.4">')
        lines.extend(fw_paths)
        lines.append("</g>")

    if plan is not None and plan.ugv_waypoints:
        lines.append('<g id="ugv" fill="none" stroke="#2ca02c" '
                     'stroke-width="0.4" stroke-dasharray="1.5,1.0">')
        if len(plan.ugv_waypoints) > 1:
            pts = " ".join(frame.point(wp.site.x, wp.site.y)
                           for wp in plan.ugv_waypoints)
            lines.append(f'<polyline points="{pts}"/>')
        else:
            wp = plan.ugv_waypoints[0]
            lines.append(f'<circle cx="{_fmt(frame.x(wp.site.x))}" '
                         f'cy="{_fmt(frame.y(wp.site.y))}" r="0.6"/>')
        lines.append("</g>")

    if recharge_pts:
        lines.append('<g id="recharge" fill="#ff9800" stroke="none">')
        for px, py in recharge_pts:
            lines.append(f'<circle cx="{_fmt(frame.x(px))}" '
                         f'cy="{_fmt(frame.y(py))}" r="0.8"/>')
        lines.append("</g>")

    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def render_svg(cells: list[Cell], plan: Plan | None, path: str,
               cfg: PlannerConfig) -> None:
    text = render_svg_str(cells, plan, cfg)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)

"""Plan decoding, validation and the myopic baseline planner.

A plan is the executable view of a tour: timed UAV legs, a UGV waypoint
schedule and a battery trace.  Leg durations and the recorded total time
come from the same arithmetic as the edge costs, so a decoded plan's
total_time equals the tour cost exactly: decode reads every edge after
the free departure, the closing pass included, from ClusteredGraph.typed.
One emitter lays out each stop (land, recharge in place or ride the UGV,
take off), and each battery-trace label is derived from its leg.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .energy import PlannerConfig, consumption_levels, recharge_time
from .errors import Infeasible
from .geometry import Cell, FlightMode, Site, euclid, ugv_time
from .graph import ClusteredGraph, EdgeBreakdown, EdgeType
from .solver import GtspTour


class LegKind(Enum):
    FLY = "fly"
    LAND = "land"
    TAKE_OFF = "take_off"
    RECHARGE_IN_PLACE = "recharge_in_place"
    RIDE_AND_RECHARGE = "ride_and_recharge"


@dataclass(frozen=True)
class Leg:
    kind: LegKind
    start_site: Site
    end_site: Site
    duration: float
    battery_before: int
    battery_after: int
    mode: FlightMode | None = None
    levels: int = 0
    covers_cell: int | None = None
    start_heading: float | None = None
    end_heading: float | None = None


@dataclass(frozen=True)
class UgvWaypoint:
    site: Site
    arrive_by: float
    depart_at: float
    via_ride: bool = False


@dataclass(frozen=True)
class Plan:
    cell_order: tuple[tuple[int, str], ...]
    uav_legs: tuple[Leg, ...]
    ugv_waypoints: tuple[UgvWaypoint, ...]
    total_time: float
    battery_trace: tuple[tuple[str, int], ...]


@dataclass(frozen=True)
class Issue:
    severity: str  # "violation" or "warning"
    code: str
    message: str
    wait: float = 0.0


def _label(leg: Leg | None) -> str:
    """The battery-trace label of the level after leg; None labels the
    level the plan starts with."""
    if leg is None:
        return "start"
    if leg.kind is LegKind.FLY:
        if leg.covers_cell is None:
            return "fly:transit"
        return f"fly:cover-cell{leg.covers_cell}"
    if leg.kind is LegKind.RIDE_AND_RECHARGE:
        return f"ride:site{leg.start_site.id}-site{leg.end_site.id}"
    verb = {LegKind.LAND: "land", LegKind.RECHARGE_IN_PLACE: "recharge",
            LegKind.TAKE_OFF: "take_off"}[leg.kind]
    return f"{verb}:site{leg.start_site.id}"


class _Builder:
    def __init__(self, levels: int) -> None:
        self.legs: list[Leg] = []
        self.waypoints: list[UgvWaypoint] = []
        self.clock = 0.0
        self.battery = levels
        self.trace: list[tuple[str, int]] = [(_label(None), levels)]

    def emit(self, kind: LegKind, start: Site, end: Site, duration: float,
             battery_after: int, *, mode: FlightMode | None = None,
             levels: int = 0, covers_cell: int | None = None,
             start_heading: float | None = None,
             end_heading: float | None = None) -> None:
        leg = Leg(kind, start, end, duration, self.battery, battery_after,
                  mode, levels, covers_cell, start_heading, end_heading)
        self.legs.append(leg)
        self.clock += duration
        self.battery = battery_after
        self.trace.append((_label(leg), battery_after))

    def add_waypoint(self, site: Site, arrive_by: float, depart_at: float,
                     via_ride: bool = False) -> None:
        last = self.waypoints[-1] if self.waypoints else None
        if last is not None and not via_ride and not last.via_ride \
                and last.site == site:
            self.waypoints[-1] = UgvWaypoint(site, last.arrive_by, depart_at)
            return
        self.waypoints.append(UgvWaypoint(site, arrive_by, depart_at, via_ride))


def _emit_stop(b: _Builder, site: Site, gain: int, cfg: PlannerConfig,
               ride: tuple[Site, float] | None = None) -> None:
    """Land at a road site, recharge by gain levels and take off again:
    in place, or riding the UGV for ride = (drop-off site, duration) and
    taking off at the drop-off."""
    drop, duration = ride or (site, recharge_time(gain, cfg))
    arrive = b.clock
    b.emit(LegKind.LAND, site, site, cfg.t_land, b.battery)
    charge = b.clock
    b.emit(LegKind.RECHARGE_IN_PLACE if ride is None
           else LegKind.RIDE_AND_RECHARGE, site, drop, duration,
           b.battery + gain, levels=gain)
    charged = b.clock
    b.emit(LegKind.TAKE_OFF, drop, drop, cfg.t_takeoff, b.battery)
    if ride is None:
        b.add_waypoint(site, arrive, b.clock)
    else:
        # The drop-off is reached while carrying the UAV, so only the
        # pick-up imposes a deadline on the UGV.
        b.add_waypoint(site, arrive, charge)
        b.add_waypoint(drop, charged, b.clock, via_ride=True)


def _emit_edge(b: _Builder, bd: EdgeBreakdown, from_cell: int,
               cfg: PlannerConfig) -> None:
    t = bd.edge_type
    b.emit(LegKind.FLY, bd.entry_site_i, bd.exit_site_i, bd.cover_time,
           b.battery - bd.cover_cons, mode=t.cover_mode, covers_cell=from_cell,
           start_heading=bd.cover_heading, end_heading=bd.cover_heading)
    if bd.entry_site_j is None:
        return  # the closing edge: the coverage pass is the whole edge
    if t.stops == "ride":
        _emit_stop(b, bd.exit_site_i, bd.split.in_transit, cfg,
                   (bd.entry_site_j, bd.ride_time))
        return
    if t.stops in ("exit", "both"):
        _emit_stop(b, bd.exit_site_i, bd.split.at_exit, cfg)
    b.emit(LegKind.FLY, bd.exit_site_i, bd.entry_site_j, bd.transit_time,
           b.battery - bd.transit_cons, mode=t.transit_mode,
           start_heading=bd.transit_start_heading,
           end_heading=bd.transit_end_heading)
    if t.stops in ("entry", "both"):
        _emit_stop(b, bd.entry_site_j, bd.split.at_entry, cfg)


def decode(g: ClusteredGraph, tour: GtspTour, cfg: PlannerConfig) -> Plan:
    """Expand a tour into timed legs, waypoints and a battery trace."""
    verts = list(tour.vertices)
    if 0 not in verts:
        raise ValueError("tour does not visit the depot")
    pivot = verts.index(0)
    verts = verts[pivot:] + verts[:pivot]
    stops = [g.vertex(v) for v in verts]
    if sorted(s.cell_index for s in stops[1:]) != list(range(g.n_cells)):
        raise ValueError("tour must visit every cluster exactly once")

    b = _Builder(g.levels)
    # Every edge of the tour, priced and typed in one call.
    costs, codes = g.edge_costs(verts, verts[1:] + verts[:1])
    costs, codes = costs.tolist(), codes.tolist()

    if not math.isfinite(costs[0]):
        raise ValueError("tour starts on an infeasible depot edge")
    assert stops[1].level == g.levels
    total = costs[0]

    # Every later edge, the closing one back to the depot last.
    for u_id, w_id, u, w, cost, code in zip(
            verts[1:], verts[2:] + verts[:1], stops[1:], stops[2:] + stops[:1],
            costs[1:], codes[1:]):
        if code < 0:
            raise ValueError(
                f"tour contains an infeasible edge {u_id}->{w_id}" if w_id
                else "tour ends on an infeasible depot edge")
        bd = g.typed(u_id, w_id, EdgeType(code))
        assert b.battery == u.level
        _emit_edge(b, bd, u.cell_index, cfg)
        assert w.is_depot or b.battery == w.level
        total += cost

    cell_order = tuple((s.cell_index, s.entry_end) for s in stops[1:])
    return Plan(cell_order, tuple(b.legs), tuple(b.waypoints), total,
                tuple(b.trace))


def validate(plan: Plan, cells: list[Cell], cfg: PlannerConfig) -> list[Issue]:
    """Check physical consistency; violations are hard, warnings are not."""
    issues: list[Issue] = []
    cap = cfg.battery_levels

    for idx, leg in enumerate(plan.uav_legs):
        for label, level in (("before", leg.battery_before),
                             ("after", leg.battery_after)):
            if level < 0 or level > cap:
                issues.append(Issue(
                    "violation", "battery-range",
                    f"leg {idx} battery {label} is {level}, outside [0, {cap}]"))

    covered: dict[int, int] = {}
    for leg in plan.uav_legs:
        if leg.covers_cell is not None:
            covered[leg.covers_cell] = covered.get(leg.covers_cell, 0) + 1
    for cell in cells:
        count = covered.get(cell.index, 0)
        if count == 0:
            issues.append(Issue("violation", "cell-uncovered",
                                f"cell {cell.index} is never covered"))
        elif count > 1:
            issues.append(Issue("violation", "cell-recovered",
                                f"cell {cell.index} is covered {count} times"))
    for index in covered:
        if not any(c.index == index for c in cells):
            issues.append(Issue("violation", "cell-unknown",
                                f"plan covers unknown cell {index}"))

    for idx, leg in enumerate(plan.uav_legs):
        if leg.kind is LegKind.RECHARGE_IN_PLACE and not leg.start_site.on_road:
            issues.append(Issue(
                "violation", "recharge-off-road",
                f"leg {idx} recharges at off-road site {leg.start_site.id}"))
        if leg.kind is LegKind.RIDE_AND_RECHARGE and not (
                leg.start_site.on_road and leg.end_site.on_road):
            issues.append(Issue(
                "violation", "ride-off-road",
                f"leg {idx} rides between sites {leg.start_site.id} and "
                f"{leg.end_site.id}, not both on the road"))

    elapsed = 0.0
    for leg in plan.uav_legs:
        elapsed += leg.duration
    if abs(elapsed - plan.total_time) > 1e-6:
        issues.append(Issue(
            "violation", "time-mismatch",
            f"leg durations sum to {elapsed!r} but total_time is "
            f"{plan.total_time!r}"))

    if plan.ugv_waypoints:
        # The UGV starts pre-positioned at its first waypoint.
        prev = plan.ugv_waypoints[0]
        depart = prev.depart_at
        for wp in plan.ugv_waypoints[1:]:
            if wp.via_ride:
                arrival = wp.arrive_by  # carries the UAV on this hop
            else:
                arrival = depart + ugv_time(prev.site, wp.site, cfg)
            if arrival > wp.arrive_by + 1e-9:
                issues.append(Issue(
                    "warning", "ugv-late",
                    f"ugv reaches site {wp.site.id} at {arrival:.3f} but is "
                    f"needed by {wp.arrive_by:.3f}",
                    wait=arrival - wp.arrive_by))
            depart = max(arrival, wp.depart_at)
            prev = wp
    return issues


def baseline_plan(cells: list[Cell], cfg: PlannerConfig) -> Plan:
    """Visit cells in input order, multi-rotor only, recharging myopically."""
    cap = cfg.battery_levels
    b = _Builder(cap)
    order: list[tuple[int, str]] = []
    current: Site | None = None

    for cell in cells:
        if current is None:
            entry_end = "A"
        else:
            d_a = euclid(current, cell.end_a)
            d_b = euclid(current, cell.end_b)
            entry_end = "A" if d_a <= d_b else "B"
        entry = cell.end(entry_end)
        exit_site = cell.other_end(entry_end)
        transit = 0.0 if current is None else euclid(current, entry)
        need = (consumption_levels(transit, FlightMode.MULTI_ROTOR, cfg)
                + consumption_levels(cell.length, FlightMode.MULTI_ROTOR, cfg))
        if need > cap:
            raise Infeasible(
                f"cell {cell.index} needs {need} levels, above capacity {cap}")
        if b.battery < need:
            if current is None:
                raise Infeasible("start battery cannot cover the first cell")
            if not current.on_road:
                raise Infeasible(
                    f"site {current.id} is off-road, cannot recharge there")
            _emit_stop(b, current, cap - b.battery, cfg)
        if transit > 0.0:
            b.emit(LegKind.FLY, current, entry, transit,
                   b.battery - consumption_levels(
                       transit, FlightMode.MULTI_ROTOR, cfg),
                   mode=FlightMode.MULTI_ROTOR)
        b.emit(LegKind.FLY, entry, exit_site, cell.length,
               b.battery - consumption_levels(
                   cell.length, FlightMode.MULTI_ROTOR, cfg),
               mode=FlightMode.MULTI_ROTOR, covers_cell=cell.index)
        order.append((cell.index, entry_end))
        current = exit_site

    return Plan(tuple(order), tuple(b.legs), tuple(b.waypoints), b.clock,
                tuple(b.trace))

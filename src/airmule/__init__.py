"""Minimum-time coverage planning for a hybrid UAV with a UGV recharging
mule.

The pipeline: build a clustered graph over battery-annotated cell
traversals (build_instance), solve the resulting generalized TSP
(solve_exact or solve_glns), then decode the tour into a timed plan for
both vehicles (decode).
"""

from .energy import PlannerConfig, RechargeSplit, consumption_levels, recharge_time
from .errors import (Infeasible, InstanceTooLarge, NoFeasibleTour,
                     PlanningError, SamplingExhausted)
from .geometry import (Cell, DubinsPath, FlightMode, Pose, Site,
                       dubins_shortest, euclid, ugv_time)
from .graph import ClusteredGraph, EdgeType, Vertex, build_instance
from .instances import (gen_random, load_instance, load_plan, parse_instance,
                        parse_plan, save_instance, save_plan,
                        serialize_instance, serialize_plan)
from .plan import (Issue, Leg, LegKind, Plan, UgvWaypoint, baseline_plan,
                   decode, validate)
from .solver import (GtspTour, SolverParams, solve_exact, solve_glns,
                     tour_cost)
from .svg_render import render_svg, render_svg_str

__version__ = "0.1.0"

__all__ = [
    "Cell", "ClusteredGraph", "DubinsPath", "EdgeType", "FlightMode",
    "GtspTour", "Infeasible", "InstanceTooLarge", "Issue", "Leg", "LegKind",
    "NoFeasibleTour", "Plan", "PlannerConfig", "PlanningError", "Pose",
    "RechargeSplit", "SamplingExhausted", "Site", "SolverParams",
    "UgvWaypoint", "Vertex", "baseline_plan", "build_instance",
    "consumption_levels", "decode", "dubins_shortest", "euclid",
    "gen_random", "load_instance", "load_plan",
    "parse_instance", "parse_plan", "recharge_time", "render_svg",
    "render_svg_str", "save_instance", "save_plan", "serialize_instance",
    "serialize_plan", "solve_exact", "solve_glns", "tour_cost", "validate",
]

"""Independent edge-cost oracle.

Re-derives each of the eighteen travel options directly from its
definition, sharing nothing with airmule.graph; its Dubins paths come
from the frozen scalar copy in dubins_reference, not from src/.  Used to
cross-check the dense cost matrix, edge_costs and ClusteredGraph.typed.
"""

import math

from dubins_reference import Pose, dubins_shortest, mod2pi

from airmule.geometry import euclid

MR, FW = "mr", "fw"

# (cover mode, transit mode, stop layout) in tie-break order.
PROFILES = [
    (MR, MR, "none"), (FW, FW, "none"), (MR, FW, "none"), (FW, MR, "none"),
    (MR, None, "ride"), (FW, None, "ride"),
    (MR, MR, "entry"), (FW, FW, "entry"), (MR, FW, "entry"), (FW, MR, "entry"),
    (MR, MR, "exit"), (FW, FW, "exit"), (MR, FW, "exit"), (FW, MR, "exit"),
    (MR, MR, "both"), (FW, FW, "both"), (MR, FW, "both"), (FW, MR, "both"),
]


def _levels(distance, mode, cfg):
    span = cfg.d_max if mode == MR else cfg.d_max * cfg.fixed_wing_ratio
    return max(0, math.ceil(distance * cfg.battery_levels / span - 1e-9))


def _heading(cell, entry_end):
    a = cell.end(entry_end)
    b = cell.other_end(entry_end)
    return math.atan2(b.y - a.y, b.x - a.x)


def oracle_type_cost(idx, u, v, cells, cfg):
    """Cost of one travel option, or None when infeasible."""
    cover, transit, stop = PROFILES[idx]
    cell_i = cells[u.cell_index]
    cell_j = cells[v.cell_index]
    exit_i = cell_i.other_end(u.entry_end)
    entry_j = cell_j.end(v.entry_end)

    if stop in ("exit", "both", "ride") and not exit_i.on_road:
        return None
    if stop in ("entry", "both", "ride") and not entry_j.on_road:
        return None

    if cover == MR:
        t1 = cell_i.length
    else:
        t1 = cell_i.length / cfg.fixed_wing_speed
    c1 = _levels(cell_i.length, cover, cfg)

    if transit is None:
        t2 = None
        c2 = 0
    elif transit == MR:
        d2 = euclid(exit_i, entry_j)
        t2 = d2
        c2 = _levels(d2, MR, cfg)
    else:
        start_heading = _heading(cell_j, v.entry_end) if stop in ("exit", "both") \
            else _heading(cell_i, u.entry_end)
        path = dubins_shortest(
            Pose((exit_i.x, exit_i.y), mod2pi(start_heading)),
            Pose((entry_j.x, entry_j.y),
                 mod2pi(_heading(cell_j, v.entry_end))),
            cfg.turn_radius)
        t2 = path.total_length / cfg.fixed_wing_speed
        c2 = _levels(path.total_length, FW, cfg)

    cap = cfg.battery_levels
    k_mid = u.level - c1
    if k_mid < 0:
        return None
    r = cfg.recharge_rate

    if stop == "none":
        if v.level != k_mid - c2:
            return None
        return t1 + t2
    if stop == "ride":
        gain = v.level - k_mid
        if gain < 0:
            return None
        t_g = euclid(exit_i, entry_j) / cfg.ugv_speed_ratio
        return ((t1 + cfg.t_land) + max(t_g, r * gain)) + cfg.t_takeoff
    if stop == "entry":
        arrival = k_mid - c2
        if arrival < 0:
            return None
        gain = v.level - arrival
        if gain < 0:
            return None
        return (((t1 + t2) + cfg.t_land) + r * gain) + cfg.t_takeoff
    if stop == "exit":
        departure = v.level + c2
        if departure > cap:
            return None
        gain = departure - k_mid
        if gain < 0:
            return None
        return ((((t1 + cfg.t_land) + r * gain) + cfg.t_takeoff) + t2)
    # both
    if c2 > cap:
        return None
    total = (v.level + c2) - k_mid
    if total < 0:
        return None
    gain_exit = max(0, min(cap, v.level + c2) - k_mid)
    gain_entry = total - gain_exit
    return ((((((t1 + cfg.t_land) + r * gain_exit) + cfg.t_takeoff) + t2)
             + cfg.t_land) + r * gain_entry) + cfg.t_takeoff


def oracle_edge_cost(u, v, cells, cfg):
    """(cost, type index) minimum over the eighteen options."""
    best = math.inf
    best_idx = None
    for idx in range(18):
        cost = oracle_type_cost(idx, u, v, cells, cfg)
        if cost is not None and cost < best:
            best = cost
            best_idx = idx
    return best, best_idx

"""Command line interface.

Subcommands: gen, plan, compare, sweep, render.  Exit codes: 0 success,
1 infeasible problem, 2 usage or input-format error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields, replace

from .energy import PlannerConfig
from .errors import (Infeasible, InstanceTooLarge, NoFeasibleTour,
                     SamplingExhausted)
from .experiments import baseline_cost, report_to_csv, solve, sweep
from .instances import (gen_random, load_instance, load_plan,
                        serialize_instance, serialize_plan)
from .plan import decode, validate
from .solver import SolverParams
from .svg_render import render_svg


def _add_config_args(parser: argparse.ArgumentParser) -> None:
    defaults = PlannerConfig()
    parser.add_argument("--d-max", type=float, default=defaults.d_max,
                        help="multi-rotor range on a full battery")
    parser.add_argument("--levels", dest="battery_levels", metavar="LEVELS",
                        type=int, default=defaults.battery_levels,
                        help="number of discrete battery levels")
    parser.add_argument("--f-ratio", dest="fixed_wing_ratio", type=float,
                        metavar="F_RATIO", default=defaults.fixed_wing_ratio,
                        help="fixed-wing over multi-rotor range ratio")
    parser.add_argument("--turn-radius", type=float,
                        default=defaults.turn_radius,
                        help="fixed-wing minimum turn radius")
    parser.add_argument("--ugv-speed-ratio", type=float,
                        default=defaults.ugv_speed_ratio,
                        help="ugv speed as a fraction of multi-rotor speed")
    parser.add_argument("--fixed-wing-speed", type=float,
                        default=defaults.fixed_wing_speed,
                        help="fixed-wing speed relative to multi-rotor")
    parser.add_argument("--t-takeoff", type=float, default=defaults.t_takeoff)
    parser.add_argument("--t-land", type=float, default=defaults.t_land)
    parser.add_argument("--recharge-rate", type=float,
                        default=defaults.recharge_rate,
                        help="seconds per battery level recharged")


def _config_from_args(args: argparse.Namespace) -> PlannerConfig:
    return PlannerConfig(**{f.name: getattr(args, f.name)
                            for f in fields(PlannerConfig)})


def _add_solver_args(parser: argparse.ArgumentParser) -> None:
    defaults = SolverParams()
    parser.add_argument("--solver", choices=("exact", "glns"),
                        default="glns")
    parser.add_argument("--mode", choices=("fast", "default", "slow"),
                        default=defaults.mode, help="glns effort level")
    parser.add_argument("--time-budget", type=float,
                        default=defaults.time_budget)
    parser.add_argument("--restarts", type=int, default=defaults.restarts)
    parser.add_argument("--seed", type=int, default=defaults.rng_seed,
                        help="glns random seed")


def _add_gen_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--extent", type=float, default=100.0)
    parser.add_argument("--max-len", type=float, default=10.0)
    parser.add_argument("--gen-seed", type=int, default=0)
    parser.add_argument("--road-fraction", type=float, default=1.0)


def _params_from_args(args: argparse.Namespace) -> SolverParams:
    return SolverParams(mode=args.mode, time_budget=args.time_budget,
                        restarts=args.restarts, rng_seed=args.seed)


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _cmd_gen(args: argparse.Namespace) -> int:
    cells = gen_random(args.n, args.extent, args.max_len, args.gen_seed,
                       args.road_fraction)
    cfg = _config_from_args(args)
    _write_text(args.output, serialize_instance(cells, cfg))
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    cells, cfg = load_instance(args.instance)
    g, tour = solve(cells, cfg, args.solver, _params_from_args(args))
    plan = decode(g, tour, cfg)
    issues = validate(plan, cells, cfg)
    for issue in issues:
        print(f"{issue.severity}: {issue.message}", file=sys.stderr)
    if any(i.severity == "violation" for i in issues):
        print("error: decoded plan failed validation", file=sys.stderr)
        return 1
    _write_text(args.output, serialize_plan(plan))
    print(f"plan cost {plan.total_time:.3f}", file=sys.stderr)
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    cells, cfg = load_instance(args.instance)
    g, tour = solve(cells, cfg, args.solver, _params_from_args(args))
    plan = decode(g, tour, cfg)
    base = baseline_cost(cells, cfg)
    print(f"optimized {plan.total_time:.3f}")
    if base is None:
        print("baseline infeasible")
        return 0
    print(f"baseline {base:.3f}")
    print(f"improvement {100.0 * (base - plan.total_time) / base:.2f}%")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    # Every value is parsed and checked before the first solve.
    params = _params_from_args(args)
    if args.kind == "cells":
        cfg = _config_from_args(args)
        family = [(gen_random(int(v), args.extent, args.max_len,
                              args.gen_seed, args.road_fraction), cfg)
                  for v in args.values.split(",")]
        rows = sweep(family, args.solver, params, args.gen_seed)
    else:
        cells, cfg = load_instance(args.instance)
        if args.kind == "dmax":
            values = [float(v) for v in args.values.split(",")]
            if values != sorted(values):
                raise ValueError("d_max values must be ascending")
            family = [(cells, replace(cfg, d_max=v)) for v in values]
        else:
            family = [(cells, replace(cfg, battery_levels=int(v)))
                      for v in args.values.split(",")]
        rows = sweep(family, args.solver, params)
    _write_text(args.output, report_to_csv(rows))
    return 0


def _cmd_render(args: argparse.Namespace) -> int:
    cells, cfg = load_instance(args.instance)
    plan = load_plan(args.plan) if args.plan else None
    render_svg(cells, plan, args.output, cfg)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="airmule",
        description="Minimum-time coverage planning for a hybrid UAV "
                    "supported by a UGV recharging mule.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a random instance")
    p_gen.add_argument("-n", type=int, required=True, help="number of cells")
    _add_gen_args(p_gen)
    p_gen.add_argument("-o", "--output", default=None)
    _add_config_args(p_gen)

    p_plan = sub.add_parser("plan", help="solve an instance and emit a plan")
    p_plan.add_argument("instance")
    p_plan.add_argument("-o", "--output", default=None)
    _add_solver_args(p_plan)

    p_cmp = sub.add_parser("compare",
                           help="solve and compare against the baseline")
    p_cmp.add_argument("instance")
    _add_solver_args(p_cmp)

    p_sweep = sub.add_parser("sweep", help="run a parameter sweep to CSV")
    kinds = p_sweep.add_subparsers(dest="kind", required=True)
    for kind in ("dmax", "cells", "levels"):
        p_kind = kinds.add_parser(kind)
        p_kind.add_argument("--values", required=True,
                            help="comma-separated sweep values")
        p_kind.add_argument("-o", "--output", default=None)
        _add_solver_args(p_kind)
        # dmax and levels vary the instance file's config; cells generates
        # its farms from the generator and config flags.
        if kind == "cells":
            _add_gen_args(p_kind)
            _add_config_args(p_kind)
        else:
            p_kind.add_argument("--instance", required=True)

    p_render = sub.add_parser("render", help="render an instance to SVG")
    p_render.add_argument("instance")
    p_render.add_argument("--plan", default=None)
    p_render.add_argument("-o", "--output", required=True)

    # main reports a flag that a command does not take with the usage line
    # of that command's own parser.
    for command in (p_gen, p_plan, p_cmp, *kinds.choices.values(), p_render):
        command.set_defaults(parser=command)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args, extra = parser.parse_known_args(argv)
        if extra:
            # parse_args would report them with the root's usage line.
            args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        if args.command == "gen":
            return _cmd_gen(args)
        if args.command == "plan":
            return _cmd_plan(args)
        if args.command == "compare":
            return _cmd_compare(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        return _cmd_render(args)
    except json.JSONDecodeError as exc:
        print(f"error: invalid JSON at line {exc.lineno} column {exc.colno}: "
              f"{exc.msg}", file=sys.stderr)
        return 2
    except (Infeasible, NoFeasibleTour, SamplingExhausted) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (InstanceTooLarge, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

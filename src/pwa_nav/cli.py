"""Command-line entry points: plan | truth-graph | sysid-check."""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import replace

import numpy as np

from .artifacts import (
    atomic_write_text,
    write_graph_json,
    write_mission_json,
    write_trajectory_csv,
)
from .dynamics import linearize_at
from .graph import ReachGraph, ReachStatus, WeightMode, build_reach_graph, update_graph
from .planner import MissionConfig, MissionConfigError, MissionStatus, run_mission
# Unused here; the benchmark tracer (perfbench/tracer.py) wraps this binding.
from .reach import decide_exit_facet  # noqa: F401
from .render import render_graph_svg, render_trajectory_svg
from .scenario import ScenarioError, load_scenario
from .sysid import IdentificationError, identify

log = logging.getLogger("pwa_nav")

EXIT_OK = 0
EXIT_BAD_SCENARIO = 1
EXIT_STUCK = 2
EXIT_ITERATION_CAP = 3
EXIT_SYSID_FAILED = 4


def _setup_logging() -> None:
    level = os.environ.get("PWA_NAV_LOG", "error").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    logging.basicConfig(stream=sys.stderr,
                        level=levels.get(level, logging.ERROR),
                        format="%(levelname)s %(name)s: %(message)s")


def cmd_plan(args) -> int:
    try:
        scenario = load_scenario(args.scenario)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_BAD_SCENARIO
    try:
        cfg = MissionConfig(scenario, max_iterations=args.max_iters, seed=args.seed)
    except MissionConfigError:
        print(f"option error: --max-iters must be positive, got {args.max_iters}",
              file=sys.stderr)
        return EXIT_BAD_SCENARIO
    os.makedirs(args.out, exist_ok=True)
    try:
        mission = run_mission(cfg)
    except IdentificationError as exc:
        print(f"identification failed: {exc}", file=sys.stderr)
        return EXIT_SYSID_FAILED
    log.info("mission finished: %s after %d iterations",
             mission.status.value, len(mission.records))

    n, m = scenario.field.n, scenario.field.m
    write_trajectory_csv(os.path.join(args.out, "trajectory.csv"),
                         mission.trajectory, n, m)
    write_graph_json(os.path.join(args.out, "graph_final.json"),
                     mission.graph, scenario.partition)
    write_mission_json(os.path.join(args.out, "mission.json"), mission)
    render_trajectory_svg(os.path.join(args.out, "trajectory.svg"),
                          scenario.partition, mission.trajectory,
                          mission.explored, mission.initial_cell, mission.target_cell)
    render_graph_svg(os.path.join(args.out, "graph.svg"),
                     scenario.partition, mission.graph,
                     mission.explored, mission.initial_cell, mission.target_cell)
    return {
        MissionStatus.REACHED_TARGET: EXIT_OK,
        MissionStatus.STUCK: EXIT_STUCK,
        MissionStatus.ITERATION_CAP: EXIT_ITERATION_CAP,
    }[mission.status]


def truth_graph(scenario) -> ReachGraph:
    """The ground-truth graph of a scenario: every cell explored with the
    exact linearization at its center, so one refresh decides every edge
    definitively, with unit weights."""
    partition = scenario.partition
    graph = build_reach_graph(partition, scenario.gamma, WeightMode.CONSTANT)
    models = {cid: linearize_at(scenario.field, partition.center(cid))
              for cid in range(partition.n_cells)}
    update_graph(graph, partition, models, scenario.L_df, scenario.L_g,
                 scenario.control_box)
    return graph


def cmd_truth_graph(args) -> int:
    try:
        scenario = load_scenario(args.scenario)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_BAD_SCENARIO
    os.makedirs(args.out, exist_ok=True)
    partition = scenario.partition
    graph = truth_graph(scenario)
    write_graph_json(os.path.join(args.out, "graph_truth.json"), graph, partition)
    render_graph_svg(os.path.join(args.out, "truth.svg"), partition, graph)
    n_exists = sum(e.status is ReachStatus.EXISTS for e in graph.edges.values())
    log.info("truth graph: %d nodes, %d/%d edges exist",
             partition.n_cells, n_exists, len(graph.edges))
    return EXIT_OK


def cmd_sysid_check(args) -> int:
    try:
        scenario = load_scenario(args.scenario)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_BAD_SCENARIO
    os.makedirs(args.out, exist_ok=True)
    partition = scenario.partition
    if not 0 <= args.cell < partition.n_cells:
        print(f"scenario error: cell id {args.cell} out of range", file=sys.stderr)
        return EXIT_BAD_SCENARIO
    center = partition.center(args.cell)
    overrides = {"samples": args.samples, "seed": args.seed}
    cfg = replace(scenario.sysid, **{k: v for k, v in overrides.items() if v is not None})
    try:
        model, _final, residual = identify(scenario.field, center, cfg,
                                           control_box=scenario.control_box)
    except IdentificationError as exc:
        print(f"identification failed: {exc}", file=sys.stderr)
        return EXIT_SYSID_FAILED

    ref = linearize_at(scenario.field, center)
    err_A = np.abs(model.A - ref.A)
    err_B = np.abs(model.B - ref.B)
    err_c = np.abs(model.c - ref.c)
    report = {
        "cell": args.cell,
        "center": center.tolist(),
        "recovered": {"A": model.A.tolist(), "B": model.B.tolist(), "c": model.c.tolist()},
        "residual_rms": residual,
        "analytic": {"A": ref.A.tolist(), "B": ref.B.tolist(), "c": ref.c.tolist()},
        "error": {"A": err_A.tolist(), "B": err_B.tolist(), "c": err_c.tolist()},
        "max_entry_error": float(max(err_A.max(), err_B.max(), err_c.max())),
    }
    atomic_write_text(os.path.join(args.out, "sysid_report.json"),
                      json.dumps(report, indent=1) + "\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pwa-nav",
        description="Motion planning under unknown control-affine dynamics "
                    "over a piecewise-affine reachability graph.")
    sub = parser.add_subparsers(dest="command", required=True)

    plan = sub.add_parser("plan", help="run a mission and emit its artifacts")
    plan.add_argument("--scenario", required=True, help="scenario JSON path")
    plan.add_argument("--out", required=True, help="output directory")
    plan.add_argument("--seed", type=int, default=None, help="override sysid seed")
    plan.add_argument("--max-iters", type=int, default=400, dest="max_iters")
    plan.set_defaults(func=cmd_plan)

    truth = sub.add_parser("truth-graph",
                           help="reachability graph from analytic linearizations")
    truth.add_argument("--scenario", required=True)
    truth.add_argument("--out", required=True)
    truth.set_defaults(func=cmd_truth_graph)

    check = sub.add_parser("sysid-check",
                           help="identify one cell and report recovery error")
    check.add_argument("--scenario", required=True)
    check.add_argument("--out", required=True)
    check.add_argument("--cell", type=int, required=True)
    check.add_argument("--seed", type=int, default=None)
    check.add_argument("--samples", type=int, default=None,
                       help="override the scenario sample count N")
    check.set_defaults(func=cmd_sysid_check)
    return parser


def main(argv=None) -> int:
    _setup_logging()
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

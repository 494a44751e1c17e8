#!/usr/bin/env python3
"""Sweep identification sample count and sampling period on a scenario with
analytic dynamics and report the recovered-model error against the exact
linearization at the cell center.

Useful for picking the sysid block of a scenario: the error should be limited
by local nonlinearity (excursion from the center), not by sample count.
"""

import argparse
from pathlib import Path

import numpy as np

from pwa_nav.dynamics import linearize_at
from pwa_nav.scenario import load_scenario
from pwa_nav.sysid import IdentificationConfig, VelocityMode, identify

ROOT = Path(__file__).resolve().parents[1]


def model_error(model, ref) -> float:
    return max(np.abs(model.A - ref.A).max(), np.abs(model.B - ref.B).max(),
               np.abs(model.c - ref.c).max())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scenario", default=str(ROOT / "scenarios" / "terrain.json"))
    parser.add_argument("--cell", type=int, default=None,
                        help="cell to identify (default: the initial cell)")
    parser.add_argument("--samples", type=int, nargs="+", default=[10, 30, 100, 300])
    parser.add_argument("--time-steps", type=float, nargs="+",
                        default=[1e-4, 2e-4, 1e-3, 5e-3])
    parser.add_argument("--mode", choices=[m.value for m in VelocityMode],
                        default="oracle")
    parser.add_argument("--seeds", type=int, default=10,
                        help="number of excitation seeds to average over")
    args = parser.parse_args()

    scenario = load_scenario(args.scenario)
    cell = args.cell if args.cell is not None else \
        scenario.partition.locate(scenario.initial_state)
    center = scenario.partition.center(cell)
    ref = linearize_at(scenario.field, center)
    mode = VelocityMode(args.mode)

    print(f"cell {cell}, center ({', '.join(f'{v:.2f}' for v in center)}), "
          f"mode {mode.value}, {args.seeds} seeds")
    # Entry error compares (A, B, c) with the exact linearization; with tiny
    # excursions the state regressor is nearly constant, so A and c are not
    # separately identifiable and the entry error stays large even though the
    # combined velocity prediction (what the planner uses) is accurate.
    print(f"{'N':>5} {'T':>9} {'entry err':>10} {'vel err':>10} {'excursion':>10}")
    for n in args.samples:
        for t in args.time_steps:
            errs, vel_errs, excursions = [], [], []
            for seed in range(args.seeds):
                cfg = IdentificationConfig(samples=n, time_step=t,
                                           input_scale=scenario.sysid.input_scale,
                                           velocity_mode=mode, seed=seed)
                model, x_final, _ = identify(scenario.field, center, cfg,
                                             control_box=scenario.control_box)
                errs.append(model_error(model, ref))
                u0 = np.zeros(scenario.field.m)
                vel_errs.append(np.linalg.norm(
                    model.velocity(center, u0)
                    - scenario.field.velocity(center, u0)))
                excursions.append(np.linalg.norm(x_final - center))
            print(f"{n:>5} {t:>9.1e} {np.mean(errs):>10.2e} "
                  f"{np.mean(vel_errs):>10.2e} {np.mean(excursions):>10.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

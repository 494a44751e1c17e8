#!/usr/bin/env python3
"""Run a scenario end to end and print a per-iteration mission report.

Equivalent to `pwa-nav plan` but with a verbose console trace instead of
artifact files, handy when tuning scenario parameters.
"""

import argparse
import collections
from pathlib import Path

from pwa_nav.planner import MissionConfig, run_mission
from pwa_nav.scenario import load_scenario

ROOT = Path(__file__).resolve().parents[1]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scenario", default=str(ROOT / "scenarios" / "terrain.json"))
    parser.add_argument("--max-iters", type=int, default=400)
    parser.add_argument("--seed", type=int, default=None,
                        help="override the scenario's identification seed")
    args = parser.parse_args()

    scenario = load_scenario(args.scenario)
    log = run_mission(MissionConfig(scenario, max_iterations=args.max_iters,
                                    seed=args.seed))

    print(f"{'it':>3} {'cell':>5} {'ident':>5} {'edge':>11} {'outcome':>15} "
          f"{'facet':>5} {'transit':>9} {'residual':>10}")
    for r in log.records:
        edge = f"{r.target_edge[0]}->{r.target_edge[1]}" if r.target_edge else "-"
        res = f"{r.residual_rms:.2e}" if r.residual_rms is not None else "-"
        print(f"{r.iteration:>3} {r.cell:>5} {str(r.identified):>5} {edge:>11} "
              f"{r.outcome:>15} {str(r.exit_facet):>5} {r.transit_time:>9.4f} {res:>10}")

    counts = collections.Counter(e.status.value for e in log.graph.edges.values())
    t_final, x_final, *_ = log.trajectory[-1]
    print(f"\nstatus: {log.status.value} after {len(log.records)} iterations, "
          f"t = {t_final:.3f}")
    print(f"final state: ({', '.join(f'{v:.4f}' for v in x_final)}), "
          f"target cell {log.target_cell}, explored {len(log.explored)} cells")
    print("edge statuses:", dict(sorted(counts.items())))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

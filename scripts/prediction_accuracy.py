#!/usr/bin/env python3
"""Score the predictive edge classifier against ground truth on a scenario
with analytic dynamics.

For every directed cell adjacency, predict the edge status from the exact
linearization at a reference cell a given hop distance away, then compare
with the definitive decision from the edge's own linearization. Soundness
demands that every definitive prediction (Exists/Absent) agrees; the fraction
left Uncertain measures how conservative the deviation bounds are at that
distance. The deviation radii are computed once per cell, and the edges of
each hop distance are predicted in one predict_exit_facets batch.
"""

import argparse
import collections
from pathlib import Path

from pwa_nav.cli import truth_graph
from pwa_nav.dynamics import linearize_at
from pwa_nav.reach import ReachStatus, deviation_bounds, predict_exit_facets
from pwa_nav.scenario import load_scenario

ROOT = Path(__file__).resolve().parents[1]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scenario", default=str(ROOT / "scenarios" / "terrain.json"))
    parser.add_argument("--hops", type=int, nargs="+", default=[1, 2, 4],
                        help="reference-cell offsets (in cells along axis 0)")
    args = parser.parse_args()

    scenario = load_scenario(args.scenario)
    partition = scenario.partition
    box = scenario.control_box

    # Ground truth as in `pwa-nav truth-graph`.
    graph = truth_graph(scenario)

    for hops in args.hops:
        items, truths = [], []
        for cid in range(partition.n_cells):
            # Reference center shifted by `hops` cell widths along axis 0,
            # clamped into the domain.
            center = partition.center(cid).copy()
            width = (partition.bounds[0, 1] - partition.bounds[0, 0]) \
                / partition.resolution[0]
            center[0] = min(partition.bounds[0, 1] - 1e-9,
                            center[0] + hops * width)
            ref_cell = partition.locate(center)
            ref_center = partition.center(ref_cell)
            ref_model = linearize_at(scenario.field, ref_center)
            # The radii depend on the cell alone, not on the exit facet.
            bounds = deviation_bounds(ref_model, ref_center, partition.center(cid),
                                      scenario.L_df, scenario.L_g)
            cell = partition.cell(cid)
            for nbr, facet in partition.neighbors(cid):
                items.append((cell, facet, ref_model, bounds))
                truths.append(graph.edges[(cid, nbr)].status)
        counts = collections.Counter()
        unsound = 0
        for pred, truth in zip(predict_exit_facets(items, box), truths):
            counts[pred.value] += 1
            if pred is not ReachStatus.UNCERTAIN and pred is not truth:
                unsound += 1
        total = sum(counts.values())
        decided = total - counts["uncertain"]
        print(f"hops={hops}: {decided}/{total} edges decided "
              f"({counts['exists']} exists, {counts['absent']} absent, "
              f"{counts['uncertain']} uncertain), unsound: {unsound}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

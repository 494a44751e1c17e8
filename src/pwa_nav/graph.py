"""Tri-state reachability graph over the grid partition.

Edges between adjacent cells carry Exists/Absent/Uncertain status. Source
cells with identified dynamics get definitive, frozen decisions; unexplored
sources get predictions anchored at the nearest explored cell. Each refresh
collects every edge it must (re)decide and decides them as two batches, one
definitive and one predictive, each of which reach decides over stacked
vertex systems: the definitive batch in passes over the edges still open,
the predictive one as one screen and one LP call per pattern stack.
Uncertain edges are weighted by proximity to the explored region, scaled
by gamma, once per destination cell.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .dynamics import AffineModel
from .geometry import GridPartition, norm
from .reach import (
    ReachStatus,
    decide_exit_facets,
    deviation_radii,
    predict_exit_facets,
    t0_upper_bound,
)
# Unused here; the benchmark tracer (perfbench/tracer.py) wraps these bindings.
from .reach import decide_exit_facet, predict_exit_facet  # noqa: F401


class WeightOverflowError(ValueError):
    """gamma so large that the Uncertain edge weights, or their sum, are not
    finite numbers, so search could not tell routes apart."""


class WeightMode(Enum):
    CONSTANT = "constant"
    T0_BOUND = "t0_bound"


@dataclass
class EdgeRecord:
    status: ReachStatus
    weight: float
    definitive: bool = False
    witnesses: list | None = None  # set only on definitive Exists edges
    ref_cell: int | None = None  # prediction anchor, for cache invalidation


@dataclass
class ReachGraph:
    nodes: list[int]
    edges: dict[tuple[int, int], EdgeRecord]
    gamma: float
    weight_mode: WeightMode = WeightMode.CONSTANT


def build_reach_graph(
    partition: GridPartition, gamma: float, weight_mode: WeightMode = WeightMode.CONSTANT
) -> ReachGraph:
    """All adjacency edges start Uncertain with unit weight."""
    edges = {}
    for cid in range(partition.n_cells):
        for nbr, _facet in partition.neighbors(cid):
            edges[(cid, nbr)] = EdgeRecord(ReachStatus.UNCERTAIN, 1.0)
    return ReachGraph(list(range(partition.n_cells)), edges, gamma, weight_mode)


def uncertain_weight(
    dst_cell: int,
    explored,
    mean_known_weight: float,
    gamma: float,
    partition: GridPartition,
) -> float:
    """gamma * w_e_mean * mean over explored cells of 1/d(dst, explored),
    with center distances floored at half the cell diameter."""
    if not explored:
        raise ValueError("explored set must be nonempty")
    widths = (partition.bounds[:, 1] - partition.bounds[:, 0]) / np.array(partition.resolution)
    d_floor = 0.5 * float(np.linalg.norm(widths))
    c = partition.center(dst_cell)
    total = 0.0
    for e in explored:
        d = max(float(norm(partition.center(e) - c)), d_floor)
        total += 1.0 / d
    return gamma * mean_known_weight * total / len(explored)


def _definitive_weight(graph, partition, cid, facet, model, decision) -> float:
    if graph.weight_mode is WeightMode.T0_BOUND and decision.status is ReachStatus.EXISTS:
        return t0_upper_bound(partition.cell(cid), facet, model, decision.witnesses)
    return 1.0


def update_graph(
    graph: ReachGraph,
    partition: GridPartition,
    explored_models: dict[int, AffineModel],
    L_df: float,
    L_g: float,
    control_box,
) -> dict:
    """Refresh edge statuses: definitive decisions for explored sources
    (computed once, then frozen), predictions anchored at the nearest
    explored cell for the rest, then reweight the Uncertain edges.

    The not-yet-definitive out-edges of explored sources are decided in one
    decide_exit_facets batch, and the edges of unexplored sources whose
    anchor changed in one predict_exit_facets batch, with one set of
    deviation radii per source cell and one ||A||_2 per anchor.
    """
    if not explored_models:
        raise ValueError("at least one explored model is required")
    explored = sorted(explored_models)
    centers = np.array([partition.center(e) for e in explored])
    summary = {"definitive": 0, "predicted": 0, "reweighted": 0}

    to_decide, decide_items = [], []
    to_predict, predict_items = [], []
    a_norms = {}  # ||A||_2 of the anchors' models
    for cid in graph.nodes:
        if cid in explored_models:
            model = explored_models[cid]
            cell = partition.cell(cid)
            for nbr, facet in partition.neighbors(cid):
                edge = graph.edges[(cid, nbr)]
                if not edge.definitive:
                    to_decide.append((edge, cid, facet, model))
                    decide_items.append((cell, facet, model))
        else:
            dists = norm(centers - partition.center(cid))
            ref = explored[int(np.argmin(dists))]  # ties: lowest cell id
            bounds = None  # the same for every out-edge of cid
            for nbr, facet in partition.neighbors(cid):
                edge = graph.edges[(cid, nbr)]
                if edge.definitive or edge.ref_cell == ref:
                    continue
                if bounds is None:
                    if ref not in a_norms:
                        a_norms[ref] = float(np.linalg.norm(explored_models[ref].A, ord=2))
                    bounds = deviation_radii(a_norms[ref], partition.center(ref),
                                             partition.center(cid), L_df, L_g)
                to_predict.append((edge, ref))
                predict_items.append((partition.cell(cid), facet, explored_models[ref], bounds))

    for (edge, cid, facet, model), decision in zip(
            to_decide, decide_exit_facets(decide_items, control_box)):
        edge.status = decision.status
        edge.witnesses = decision.witnesses
        edge.weight = _definitive_weight(graph, partition, cid, facet, model, decision)
        edge.definitive = True
        edge.ref_cell = None
        summary["definitive"] += 1
    for (edge, ref), status in zip(to_predict, predict_exit_facets(predict_items, control_box)):
        edge.status = status
        edge.ref_cell = ref
        if status is ReachStatus.EXISTS:
            edge.weight = 1.0
        summary["predicted"] += 1

    exists_weights = [
        e.weight for e in graph.edges.values()
        if e.definitive and e.status is ReachStatus.EXISTS
    ]
    w_bar = float(np.mean(exists_weights)) if exists_weights else 1.0
    # The Uncertain weight depends on the destination alone.
    dst_weights: dict[int, float] = {}
    total = 0.0
    for (src, dst), edge in graph.edges.items():
        assert not (src in explored_models and not edge.definitive), \
            "explored sources must have definitive out-edges"
        if edge.status is ReachStatus.UNCERTAIN:
            if dst not in dst_weights:
                dst_weights[dst] = uncertain_weight(dst, explored, w_bar, graph.gamma, partition)
            edge.weight = dst_weights[dst]
            total += edge.weight
            summary["reweighted"] += 1
    # Every route sums fewer Uncertain weights than this total, so with it
    # finite no route cost overflows and search sees every route.
    if not math.isfinite(total):
        raise WeightOverflowError(
            f"field 'gamma': {graph.gamma!r} is too large: the Uncertain edge weights "
            f"sum to {total!r}")
    summary["mean_known_weight"] = w_bar
    return summary


def override_absent(graph: ReachGraph, src: int, dst: int) -> None:
    """Empirical exclusion of a transit that repeatedly fails under the true
    dynamics; frozen so search never re-selects it."""
    edge = graph.edges[(src, dst)]
    edge.status = ReachStatus.ABSENT
    edge.definitive = True
    edge.witnesses = None


def _searchable(graph: ReachGraph):
    adj: dict[int, list[tuple[int, float]]] = {n: [] for n in graph.nodes}
    radj: dict[int, list[tuple[int, float]]] = {n: [] for n in graph.nodes}
    for (src, dst), edge in graph.edges.items():
        if edge.status is ReachStatus.ABSENT:
            continue
        if not math.isfinite(edge.weight):
            raise ValueError(f"edge ({src}, {dst}) has weight {float(edge.weight)}; "
                             "search needs finite weights")
        adj[src].append((dst, edge.weight))
        radj[dst].append((src, edge.weight))
    return adj, radj


def _dijkstra(adj, source):
    dist = {source: 0.0}
    heap = [(0.0, source)]
    done = set()
    while heap:
        d, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        for v, w in adj[u]:
            nd = d + w
            if nd < dist.get(v, np.inf):
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


def shortest_path(graph: ReachGraph, src: int, dst: int) -> list[int] | None:
    """Minimum-weight path over Exists/Uncertain edges; among equal-cost
    paths the lexicographically smallest node sequence wins. Raises
    ValueError on a searchable edge whose weight is not finite: Dijkstra
    would never relax it and report a route through it as missing."""
    adj, radj = _searchable(graph)
    if src not in adj or dst not in adj:
        raise KeyError("unknown node id")
    if src == dst:
        return [src]
    dist = _dijkstra(adj, src)
    if dst not in dist:
        return None
    rdist = _dijkstra(radj, dst)
    total = dist[dst]
    tol = 1e-9 * max(1.0, abs(total))
    # Depth-first along the edges of near-shortest routes, smallest next
    # node first. A node is entered at most once, so edges lighter than tol
    # cannot lead the walk round a cycle, and a dead end backtracks; the
    # reverse search's tree edges keep some route to dst open.
    path, seen = [src], {src}
    options = [iter(sorted(adj[src]))]
    while path[-1] != dst:
        cur = path[-1]
        for v, w in options[-1]:
            if v not in seen and v in rdist and abs(dist[cur] + w + rdist[v] - total) <= tol:
                seen.add(v)
                path.append(v)
                options.append(iter(sorted(adj[v])))
                break
        else:
            path.pop()
            options.pop()
    return path

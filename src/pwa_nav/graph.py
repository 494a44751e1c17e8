"""Tri-state reachability graph over the grid partition.

Edges between adjacent cells carry Exists/Absent/Uncertain status. Source
cells with identified dynamics get definitive, frozen decisions; unexplored
sources get predictions anchored at the nearest explored cell. Each refresh
collects every edge it must (re)decide and decides them as two batches, one
definitive and one predictive, each of which reach decides over stacked
vertex systems: the definitive batch in passes over the edges still open,
the predictive one in closed form where it can, and as one LP call per
pattern stack elsewhere.
Uncertain edges are weighted by proximity to the explored region, scaled
by gamma, for every destination cell in one array pass per refresh.
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
    deviation_bounds,
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
    dst_cells: np.ndarray,
    explored,
    mean_known_weight: float,
    gamma: float,
    partition: GridPartition,
) -> np.ndarray:
    """gamma * w_e_mean * mean over explored cells of 1/d(dst, explored) for
    every cell id of dst_cells, with center distances floored at half the
    cell diameter."""
    if not explored:
        raise ValueError("explored set must be nonempty")
    widths = (partition.bounds[:, 1] - partition.bounds[:, 0]) / np.array(partition.resolution)
    d_floor = 0.5 * float(np.linalg.norm(widths))
    c = partition.center(dst_cells)
    total = np.zeros(np.shape(dst_cells))
    for e in explored:
        total += 1.0 / np.maximum(norm(partition.center(e) - c), d_floor)
    with np.errstate(over="ignore"):  # update_graph rejects a non-finite sum
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
    deviation radii per source cell.
    """
    if not explored_models:
        raise ValueError("at least one explored model is required")
    explored = sorted(explored_models)

    # Nearest explored cell of every unexplored one, one pass per explored
    # cell and none when all are explored; strict < keeps the lowest id.
    unexplored = [cid for cid in graph.nodes if cid not in explored_models]
    points = partition.center(np.array(unexplored, dtype=int))
    nearest, ref_ids = np.full(len(unexplored), np.inf), np.zeros(len(unexplored), dtype=int)
    for e in explored if unexplored else ():
        dists = norm(partition.center(e) - points)
        ref_ids[dists < nearest] = e
        nearest = np.minimum(nearest, dists)

    to_decide, decide_items = [], []
    for cid in explored:
        model = explored_models[cid]
        cell = partition.cell(cid)
        for nbr, facet in partition.neighbors(cid):
            edge = graph.edges[(cid, nbr)]
            if not edge.definitive:
                to_decide.append((edge, cid, facet, model))
                decide_items.append((cell, facet, model))
    to_predict, predict_items = [], []
    for cid, ref in zip(unexplored, ref_ids.tolist()):
        bounds = None  # the same for every out-edge of cid
        for nbr, facet in partition.neighbors(cid):
            edge = graph.edges[(cid, nbr)]
            if edge.definitive or edge.ref_cell == ref:
                continue
            if bounds is None:
                bounds = deviation_bounds(explored_models[ref], partition.center(ref),
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
    for (edge, ref), status in zip(to_predict, predict_exit_facets(predict_items, control_box)):
        edge.status = status
        edge.ref_cell = ref
        if status is ReachStatus.EXISTS:
            edge.weight = 1.0

    exists_weights = [
        e.weight for e in graph.edges.values()
        if e.definitive and e.status is ReachStatus.EXISTS
    ]
    w_bar = float(np.mean(exists_weights)) if exists_weights else 1.0
    assert all(e.definitive for (src, _), e in graph.edges.items() if src in explored_models), \
        "explored sources must have definitive out-edges"
    uncertain = [(dst, e) for (_, dst), e in graph.edges.items()
                 if e.status is ReachStatus.UNCERTAIN]
    total = 0.0
    if uncertain:  # the Uncertain weight depends on the destination alone
        weights = uncertain_weight(np.arange(partition.n_cells), explored, w_bar, graph.gamma,
                                   partition).tolist()
        for dst, edge in uncertain:
            edge.weight = weights[dst]
            total += edge.weight
    # Every route sums fewer Uncertain weights than this total, so with it
    # finite no route cost overflows and search sees every route.
    if not math.isfinite(total):
        raise WeightOverflowError(
            f"field 'gamma': {graph.gamma!r} is too large: the Uncertain edge weights "
            f"sum to {total!r}")
    return {"definitive": len(to_decide), "predicted": len(to_predict),
            "reweighted": len(uncertain), "mean_known_weight": w_bar}


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
        if not (math.isfinite(edge.weight) and edge.weight >= 0):
            raise ValueError(f"edge ({src}, {dst}) has weight {float(edge.weight)}; "
                             "search needs finite nonnegative weights")
        adj[src].append((dst, edge.weight))
        radj[dst].append((src, edge.weight))
    return adj, radj


def _dijkstra(adj, source):
    dist = {source: 0.0}
    heap = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:  # u was settled at a lower cost
            continue
        for v, w in adj[u]:
            nd = d + w
            if nd < dist.get(v, np.inf):
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


def shortest_path(graph: ReachGraph, src: int, dst: int) -> list[int] | None:
    """Minimum-weight path over Exists/Uncertain edges; among equal-cost
    paths the lexicographically smallest node sequence wins. Raises
    ValueError on a searchable edge whose weight is negative or not finite:
    Dijkstra can settle no distance across a negative one, and never
    relaxes an infinite one, so a route through it would read as missing."""
    adj, radj = _searchable(graph)
    if src not in adj or dst not in adj:
        raise KeyError("unknown node id")
    if src == dst:
        return [src]
    rdist = _dijkstra(radj, dst)  # cost of the cheapest route to dst
    if src not in rdist:
        return None
    tol = 1e-9 * max(1.0, rdist[src])
    # Depth-first along the edges (cur, v) that start a cheapest route from
    # cur to dst, w + rdist[v] == rdist[cur] within tol, smallest next node
    # first. A node is entered at most once, so edges lighter than tol
    # cannot lead the walk round a cycle, and a dead end backtracks; the
    # reverse search's tree edges keep some route to dst open.
    path, seen = [src], {src}
    options = [iter(sorted(adj[src]))]
    while path[-1] != dst:
        cur = path[-1]
        for v, w in options[-1]:
            if v not in seen and v in rdist and abs(w + rdist[v] - rdist[cur]) <= tol:
                seen.add(v)
                path.append(v)
                options.append(iter(sorted(adj[v])))
                break
        else:
            path.pop()
            options.pop()
    return path

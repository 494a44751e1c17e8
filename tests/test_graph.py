import itertools
import sys

import numpy as np
import pytest

from pwa_nav import graph as graph_module
from pwa_nav.dynamics import AffineModel, TerrainField, linearize_at
from pwa_nav.geometry import GridPartition
from pwa_nav.graph import (
    EdgeRecord,
    ReachGraph,
    ReachStatus,
    WeightMode,
    WeightOverflowError,
    build_reach_graph,
    override_absent,
    shortest_path,
    uncertain_weight,
    update_graph,
)
from pwa_nav.reach import (
    ModelDeviationBounds,
    decide_exit_facet,
    deviation_bounds,
    predict_exit_facet,
)

BOX = np.array([[-5.0, 5.0], [-5.0, 5.0]])


def single_integrator(center=(0.0, 0.0)):
    return AffineModel(np.zeros((2, 2)), np.eye(2), np.zeros(2), np.asarray(center, float))


class TestBuildReachGraph:
    def test_all_edges_start_uncertain(self):
        part = GridPartition([[0, 3], [0, 3]], (3, 3))
        graph = build_reach_graph(part, gamma=100.0)
        # 3x3 grid: 2*3*2 interior facet pairs, directed both ways = 24 edges.
        assert len(graph.edges) == 24
        for edge in graph.edges.values():
            assert edge.status is ReachStatus.UNCERTAIN
            assert not edge.definitive

    def test_edges_only_between_facet_neighbors(self):
        part = GridPartition([[0, 3], [0, 3]], (3, 3))
        graph = build_reach_graph(part, gamma=1.0)
        for src, dst in graph.edges:
            assert part.common_facet(src, dst) is not None


class TestUncertainWeight:
    def test_single_explored_at_distance_two(self):
        part = GridPartition([[0, 4], [0, 1]], (4, 1))
        w, = uncertain_weight(np.array([2]), [0], mean_known_weight=1.0, gamma=100.0,
                              partition=part)
        assert w == pytest.approx(100.0 * 1.0 * (1.0 / 2.0) / 1)

    def test_two_explored_at_unit_distance(self):
        part = GridPartition([[0, 4], [0, 1]], (4, 1))
        w, = uncertain_weight(np.array([1]), [0, 2], mean_known_weight=1.0, gamma=100.0,
                              partition=part)
        assert w == pytest.approx(100.0 * (1.0 + 1.0) / 2)

    def test_doubling_distances_halves_weight(self):
        part1 = GridPartition([[0, 4], [0, 0.1]], (4, 1))
        part2 = GridPartition([[0, 8], [0, 0.1]], (4, 1))
        w1, = uncertain_weight(np.array([3]), [0], 1.0, 100.0, part1)
        w2, = uncertain_weight(np.array([3]), [0], 1.0, 100.0, part2)
        assert w1 == pytest.approx(2 * w2)

    def test_distance_floor_guards_small_separations(self):
        # Adjacent centers 1 apart but the cell diameter is ~2.24.
        part = GridPartition([[0, 4], [0, 2]], (4, 1))
        w, = uncertain_weight(np.array([1]), [0], 1.0, 1.0, part)
        d_floor = 0.5 * np.hypot(1.0, 2.0)
        assert w == pytest.approx(1.0 / d_floor)

    @pytest.mark.parametrize("bounds, resolution", [
        ([[0, 5]], (7,)),
        ([[0, 4], [-1, 2]], (5, 3)),
        ([[0, 1], [0, 2], [-3, 0]], (3, 2, 4)),
    ])
    def test_array_weights_equal_scalar_weights(self, bounds, resolution):
        part = GridPartition(bounds, resolution)
        explored = [0, 3, part.n_cells - 1]  # their own weights take the distance floor
        cells = np.arange(part.n_cells)
        weights = uncertain_weight(cells, explored, 1.3, 7.0, part)
        assert weights.shape == (part.n_cells,)
        widths = (part.bounds[:, 1] - part.bounds[:, 0]) / np.array(part.resolution)
        d_floor = 0.5 * float(np.linalg.norm(widths))
        for c in cells.tolist():
            total = 0.0
            for e in explored:
                d = float(np.linalg.norm(part.center(e) - part.center(c)))
                total += 1.0 / max(d, d_floor)
            assert weights[c] == 7.0 * 1.3 * total / len(explored)

    def test_empty_explored_rejected(self):
        part = GridPartition([[0, 2], [0, 1]], (2, 1))
        with pytest.raises(ValueError):
            uncertain_weight(np.array([1]), [], 1.0, 1.0, part)


class TestUpdateGraph:
    def test_definitive_and_predictive_edges(self):
        part = GridPartition([[0, 2], [0, 1]], (2, 1))
        graph = build_reach_graph(part, gamma=100.0)
        model = single_integrator(part.center(0))
        update_graph(graph, part, {0: model}, 0.03, 0.03, BOX)

        out_edge = graph.edges[(0, 1)]
        assert out_edge.definitive and out_edge.status is ReachStatus.EXISTS

        back_edge = graph.edges[(1, 0)]
        assert not back_edge.definitive
        bounds = deviation_bounds(model, part.center(0), part.center(1), 0.03, 0.03)
        standalone = predict_exit_facet(
            part.cell(1), part.common_facet(1, 0), model, bounds, BOX
        )
        assert back_edge.status is standalone.status

    @pytest.mark.parametrize("gamma", [1e307, 1e308, sys.float_info.max])
    def test_overflowing_uncertain_weights_rejected(self, gamma):
        # 20 Uncertain edges of weights up to gamma sqrt(2): at 1e307 each
        # weight is finite but their sum is not.
        part = GridPartition([[0, 3], [0, 3]], (3, 3))
        graph = build_reach_graph(part, gamma=gamma)
        stuck = AffineModel(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros(2), part.center(4))
        with pytest.raises(WeightOverflowError, match="field 'gamma'"):
            update_graph(graph, part, {4: stuck}, 0.03, 0.03, BOX)

    def test_large_finite_gamma_runs(self):
        part = GridPartition([[0, 3], [0, 3]], (3, 3))
        graph = build_reach_graph(part, gamma=1e306)
        stuck = AffineModel(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros(2), part.center(4))
        summary = update_graph(graph, part, {4: stuck}, 0.03, 0.03, BOX)
        assert summary["reweighted"] == 20
        assert shortest_path(graph, 0, 8) is not None

    def test_requires_an_explored_model(self):
        part = GridPartition([[0, 2], [0, 1]], (2, 1))
        graph = build_reach_graph(part, gamma=1.0)
        with pytest.raises(ValueError):
            update_graph(graph, part, {}, 0.03, 0.03, BOX)

    def test_idempotence(self):
        part = GridPartition([[0, 3], [0, 3]], (3, 3))
        graph = build_reach_graph(part, gamma=100.0)
        models = {4: single_integrator(part.center(4))}
        update_graph(graph, part, models, 0.03, 0.03, BOX)
        snapshot = {
            k: (e.status, e.weight, e.definitive) for k, e in graph.edges.items()
        }
        update_graph(graph, part, models, 0.03, 0.03, BOX)
        assert snapshot == {
            k: (e.status, e.weight, e.definitive) for k, e in graph.edges.items()
        }

    def test_definitive_freeze(self):
        part = GridPartition([[0, 3], [0, 3]], (3, 3))
        graph = build_reach_graph(part, gamma=100.0)
        models = {4: single_integrator(part.center(4))}
        update_graph(graph, part, models, 0.03, 0.03, BOX)
        frozen = {
            k: (e.status, e.weight) for k, e in graph.edges.items() if e.definitive
        }
        models[0] = single_integrator(part.center(0))
        update_graph(graph, part, models, 0.03, 0.03, BOX)
        for k, (status, weight) in frozen.items():
            assert graph.edges[k].status is status
            assert graph.edges[k].weight == weight

    def test_explored_sources_have_no_uncertain_out_edges(self):
        part = GridPartition([[0, 3], [0, 3]], (3, 3))
        graph = build_reach_graph(part, gamma=100.0)
        models = {0: single_integrator(part.center(0)),
                  8: single_integrator(part.center(8))}
        update_graph(graph, part, models, 0.03, 0.03, BOX)
        for (src, _dst), edge in graph.edges.items():
            if src in models:
                assert edge.definitive
                assert edge.status is not ReachStatus.UNCERTAIN

    def test_t0_weight_mode(self):
        part = GridPartition([[0, 2], [0, 1]], (2, 1))
        graph = build_reach_graph(part, gamma=100.0, weight_mode=WeightMode.T0_BOUND)
        model = single_integrator(part.center(0))
        update_graph(graph, part, {0: model}, 0.03, 0.03, BOX)
        edge = graph.edges[(0, 1)]
        assert edge.status is ReachStatus.EXISTS
        # Worst-case entry across a width-1 cell at up-to-5 exit speed.
        assert 1.0 / 5.0 <= edge.weight <= 1.0

    def test_predictive_soundness_with_exact_linearizations(self):
        # Predictions anchored at an exact linearization must agree with the
        # definitive decision once the destination source is explored.
        env = TerrainField()
        part = GridPartition([[-10, -6], [-10, -6]], (4, 4))
        graph = build_reach_graph(part, gamma=100.0)
        models = {5: linearize_at(env, part.center(5))}
        update_graph(graph, part, models, env.L_df, env.L_g, BOX)
        predicted = {
            k: e.status for k, e in graph.edges.items()
            if not e.definitive and e.status is not ReachStatus.UNCERTAIN
        }
        for cid in range(part.n_cells):
            models[cid] = linearize_at(env, part.center(cid))
        update_graph(graph, part, models, env.L_df, env.L_g, BOX)
        violations = [
            k for k, status in predicted.items() if graph.edges[k].status is not status
        ]
        assert violations == []

    def test_refresh_matches_single_edge_decisions(self):
        # The refresh decides its edges as batches; each edge must come out
        # as its own single-edge decision, witnesses included. Predictions
        # carry none.
        env = TerrainField()
        part = GridPartition([[-10, -6], [-10, -6]], (4, 4))
        graph = build_reach_graph(part, gamma=100.0)
        models = {5: linearize_at(env, part.center(5)), 10: linearize_at(env, part.center(10))}
        update_graph(graph, part, models, env.L_df, env.L_g, BOX)
        for (src, dst), edge in graph.edges.items():
            facet = part.common_facet(src, dst)
            if src in models:
                alone = decide_exit_facet(part.cell(src), facet, models[src], BOX)
            else:
                ref = models[edge.ref_cell]
                bounds = deviation_bounds(ref, part.center(edge.ref_cell), part.center(src),
                                          env.L_df, env.L_g)
                alone = predict_exit_facet(part.cell(src), facet, ref, bounds, BOX)
                assert alone.witnesses is None
            assert edge.status is alone.status
            if alone.witnesses is None:
                assert edge.witnesses is None
            else:
                assert all(np.array_equal(u, v) for u, v in zip(edge.witnesses, alone.witnesses))

    def test_uncertain_weight_once_per_refresh(self, monkeypatch):
        calls = []

        def counting(dst, *args):
            calls.append(dst)
            return uncertain_weight(dst, *args)

        monkeypatch.setattr(graph_module, "uncertain_weight", counting)
        part = GridPartition([[0, 4], [0, 4]], (4, 4))
        graph = build_reach_graph(part, gamma=100.0)
        models = {5: single_integrator(part.center(5))}
        # Lipschitz constants this large leave most predictions Uncertain.
        summary = update_graph(graph, part, models, 2.0, 2.0, BOX)
        uncertain = [(dst, e) for (_, dst), e in graph.edges.items()
                     if e.status is ReachStatus.UNCERTAIN]
        assert summary["reweighted"] == len(uncertain) > 0
        assert len(calls) == 1 and np.array_equal(calls[0], np.arange(part.n_cells))
        weights = uncertain_weight(np.arange(part.n_cells), [5], summary["mean_known_weight"],
                                   graph.gamma, part)
        for dst, edge in uncertain:
            assert edge.weight == weights[dst]

    def test_no_uncertain_weight_without_uncertain_edges(self, monkeypatch):
        calls = []
        monkeypatch.setattr(graph_module, "uncertain_weight",
                            lambda *args: calls.append(args) or uncertain_weight(*args))
        part = GridPartition([[0, 3], [0, 3]], (3, 3))
        graph = build_reach_graph(part, gamma=100.0)
        models = {cid: single_integrator(part.center(cid)) for cid in range(part.n_cells)}
        summary = update_graph(graph, part, models, 0.03, 0.03, BOX)
        assert summary["reweighted"] == 0 and calls == []

    def test_equidistant_anchors_pick_the_lower_id(self):
        # Cell 1 lies one cell width from cells 0 and 2.
        part = GridPartition([[0, 3], [0, 1]], (3, 1))
        graph = build_reach_graph(part, gamma=100.0)
        models = {0: single_integrator(part.center(0)), 2: single_integrator(part.center(2))}
        update_graph(graph, part, models, 0.03, 0.03, BOX)
        assert {graph.edges[(1, 0)].ref_cell, graph.edges[(1, 2)].ref_cell} == {0}


class TestOverrideAbsent:
    def test_override_freezes_edge(self):
        part = GridPartition([[0, 2], [0, 1]], (2, 1))
        graph = build_reach_graph(part, gamma=1.0)
        override_absent(graph, 0, 1)
        edge = graph.edges[(0, 1)]
        assert edge.status is ReachStatus.ABSENT and edge.definitive
        update_graph(graph, part, {0: single_integrator()}, 0.03, 0.03, BOX)
        assert graph.edges[(0, 1)].status is ReachStatus.ABSENT


def make_graph(n_nodes, edge_specs, gamma=1.0):
    edges = {
        (s, d): EdgeRecord(status, w) for (s, d, status, w) in edge_specs
    }
    return ReachGraph(list(range(n_nodes)), edges, gamma)


def enumerate_paths(graph, src, dst):
    """All simple src->dst paths over non-Absent edges, with costs."""
    adj = {}
    for (s, d), e in graph.edges.items():
        if e.status is not ReachStatus.ABSENT:
            adj.setdefault(s, []).append((d, e.weight))
    out = []

    def walk(node, path, cost):
        if node == dst:
            out.append((cost, list(path)))
            return
        for nxt, w in adj.get(node, []):
            if nxt not in path:
                path.append(nxt)
                walk(nxt, path, cost + w)
                path.pop()

    walk(src, [src], 0.0)
    return out


def assert_matches_enumeration(g, src, dst):
    """shortest_path finds a cheapest route, and the lexicographically
    smallest of those within the search's tie tolerance."""
    candidates = enumerate_paths(g, src, dst)
    got = shortest_path(g, src, dst)
    if not candidates:
        assert got is None
        return
    best_cost = min(c for c, _ in candidates)
    best_path = min(p for c, p in candidates if c <= best_cost + 1e-9 * max(1.0, best_cost))
    got_cost = sum(g.edges[(a, b)].weight for a, b in zip(got, got[1:]))
    assert got_cost == pytest.approx(best_cost)
    assert got == best_path


class TestShortestPath:
    def test_single_edge(self):
        g = make_graph(2, [(0, 1, ReachStatus.EXISTS, 1.0)])
        assert shortest_path(g, 0, 1) == [0, 1]

    def test_all_absent_gives_none(self):
        g = make_graph(2, [(0, 1, ReachStatus.ABSENT, 1.0)])
        assert shortest_path(g, 0, 1) is None

    def test_src_equals_dst(self):
        g = make_graph(1, [])
        assert shortest_path(g, 0, 0) == [0]

    def test_uncertain_edges_are_searchable(self):
        g = make_graph(3, [
            (0, 1, ReachStatus.UNCERTAIN, 2.0),
            (1, 2, ReachStatus.EXISTS, 1.0),
        ])
        assert shortest_path(g, 0, 2) == [0, 1, 2]

    @pytest.mark.parametrize("weight", [np.inf, np.nan])
    def test_non_finite_weight_rejected(self, weight):
        # Dijkstra never relaxes an infinite edge, so 0 -> 2 would read as
        # unreachable.
        g = make_graph(3, [
            (0, 1, ReachStatus.UNCERTAIN, weight),
            (1, 2, ReachStatus.UNCERTAIN, 1.0),
        ])
        with pytest.raises(ValueError, match=r"edge \(0, 1\)"):
            shortest_path(g, 0, 2)
        g.edges[(0, 1)].status = ReachStatus.ABSENT  # not searched, so not read
        assert shortest_path(g, 0, 2) is None

    def test_negative_weight_rejected(self):
        # Dijkstra settles 1 at cost 1 before the route 0 -> 3 -> 1 of cost -2.
        g = make_graph(4, [
            (0, 1, ReachStatus.UNCERTAIN, 1.0),
            (1, 2, ReachStatus.UNCERTAIN, 1.0),
            (0, 3, ReachStatus.UNCERTAIN, 3.0),
            (3, 1, ReachStatus.UNCERTAIN, -5.0),
        ])
        with pytest.raises(ValueError, match=r"edge \(3, 1\)"):
            shortest_path(g, 0, 2)

    def test_unknown_node_rejected(self):
        g = make_graph(2, [(0, 1, ReachStatus.EXISTS, 1.0)])
        with pytest.raises(KeyError):
            shortest_path(g, 0, 7)

    def test_lexicographic_tie_break(self):
        # Two cost-2 paths: [0,1,3] and [0,2,3]; the former is lex smaller.
        g = make_graph(4, [
            (0, 2, ReachStatus.EXISTS, 1.0),
            (0, 1, ReachStatus.EXISTS, 1.0),
            (2, 3, ReachStatus.EXISTS, 1.0),
            (1, 3, ReachStatus.EXISTS, 1.0),
        ])
        assert shortest_path(g, 0, 3) == [0, 1, 3]

    def test_cycle_below_tie_tolerance(self):
        # Edge weights below the tie tolerance make 0 -> 1 -> 0 a tie too;
        # the walk enters each node once.
        g = make_graph(3, [
            (0, 1, ReachStatus.UNCERTAIN, 1e-10),
            (1, 0, ReachStatus.UNCERTAIN, 1e-10),
            (1, 2, ReachStatus.EXISTS, 1.0),
        ])
        assert shortest_path(g, 0, 2) == [0, 1, 2]

    def test_tied_dead_end_backtracks(self):
        # 0 -> 1 ties with the route 0 -> 2, but 1 leads only back to 0.
        g = make_graph(3, [
            (0, 1, ReachStatus.UNCERTAIN, 1e-10),
            (1, 0, ReachStatus.UNCERTAIN, 1e-10),
            (0, 2, ReachStatus.EXISTS, 1.0),
        ])
        assert shortest_path(g, 0, 2) == [0, 2]

    def test_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(20250823)
        statuses = [ReachStatus.EXISTS, ReachStatus.UNCERTAIN, ReachStatus.ABSENT]
        # Integer weights tie exactly; 0.1 + 0.2 and 0.3 tie only within
        # rounding, which differs with the order a route is summed in.
        for weights in ([1.0, 2.0, 3.0], [0.1, 0.2, 0.3]):
            for _ in range(200):
                n = int(rng.integers(2, 9))
                specs = []
                for s in range(n):
                    for d in range(n):
                        if s != d and rng.random() < 0.4:
                            status = statuses[rng.integers(0, 3)]
                            specs.append((s, d, status, weights[rng.integers(0, 3)]))
                assert_matches_enumeration(make_graph(n, specs), 0, n - 1)

    def test_constant_mode_cost_decomposition(self):
        part = GridPartition([[0, 3], [0, 3]], (3, 3))
        graph = build_reach_graph(part, gamma=7.0)
        update_graph(graph, part, {0: single_integrator(part.center(0))},
                     0.03, 0.03, BOX)
        path = shortest_path(graph, 0, 8)
        assert path is not None
        cost = sum(graph.edges[(a, b)].weight for a, b in zip(path, path[1:]))
        n_exists = sum(
            1 for a, b in zip(path, path[1:])
            if graph.edges[(a, b)].status is ReachStatus.EXISTS
        )
        uncertain = sum(
            graph.edges[(a, b)].weight for a, b in zip(path, path[1:])
            if graph.edges[(a, b)].status is ReachStatus.UNCERTAIN
        )
        assert cost == pytest.approx(n_exists * 1.0 + uncertain)

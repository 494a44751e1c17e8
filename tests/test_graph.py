import itertools

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
        w = uncertain_weight(2, [0], mean_known_weight=1.0, gamma=100.0, partition=part)
        assert w == pytest.approx(100.0 * 1.0 * (1.0 / 2.0) / 1)

    def test_two_explored_at_unit_distance(self):
        part = GridPartition([[0, 4], [0, 1]], (4, 1))
        w = uncertain_weight(1, [0, 2], mean_known_weight=1.0, gamma=100.0, partition=part)
        assert w == pytest.approx(100.0 * (1.0 + 1.0) / 2)

    def test_doubling_distances_halves_weight(self):
        part1 = GridPartition([[0, 4], [0, 0.1]], (4, 1))
        part2 = GridPartition([[0, 8], [0, 0.1]], (4, 1))
        w1 = uncertain_weight(3, [0], 1.0, 100.0, part1)
        w2 = uncertain_weight(3, [0], 1.0, 100.0, part2)
        assert w1 == pytest.approx(2 * w2)

    def test_distance_floor_guards_small_separations(self):
        # Adjacent centers 1 apart but the cell diameter is ~2.24.
        part = GridPartition([[0, 4], [0, 2]], (4, 1))
        w = uncertain_weight(1, [0], 1.0, 1.0, part)
        d_floor = 0.5 * np.hypot(1.0, 2.0)
        assert w == pytest.approx(1.0 / d_floor)

    def test_empty_explored_rejected(self):
        part = GridPartition([[0, 2], [0, 1]], (2, 1))
        with pytest.raises(ValueError):
            uncertain_weight(1, [], 1.0, 1.0, part)


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
        # as its own single-edge decision, witnesses included.
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
            assert edge.status is alone.status
            if alone.witnesses is None:
                assert edge.witnesses is None
            else:
                assert all(np.array_equal(u, v) for u, v in zip(edge.witnesses, alone.witnesses))

    def test_uncertain_weight_once_per_destination(self, monkeypatch):
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
        assert summary["reweighted"] == len(uncertain) > len(set(calls))
        assert sorted(calls) == sorted({dst for dst, _ in uncertain})
        for dst, edge in uncertain:
            assert edge.weight == uncertain_weight(dst, [5], summary["mean_known_weight"],
                                                   graph.gamma, part)


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

    def test_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(20250823)
        statuses = [ReachStatus.EXISTS, ReachStatus.UNCERTAIN, ReachStatus.ABSENT]
        for _ in range(200):
            n = int(rng.integers(2, 9))
            specs = []
            for s in range(n):
                for d in range(n):
                    if s != d and rng.random() < 0.4:
                        status = statuses[rng.integers(0, 3)]
                        weight = float(rng.integers(1, 4))  # exact ties possible
                        specs.append((s, d, status, weight))
            g = make_graph(n, specs)
            src, dst = 0, n - 1
            candidates = enumerate_paths(g, src, dst)
            got = shortest_path(g, src, dst)
            if not candidates:
                assert got is None
                continue
            best_cost = min(c for c, _ in candidates)
            best_path = min(p for c, p in candidates if c == best_cost)
            got_cost = sum(
                g.edges[(a, b)].weight for a, b in zip(got, got[1:])
            )
            assert got_cost == pytest.approx(best_cost)
            assert got == best_path

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

"""The graph JSON, the trajectory CSV and both SVGs are written as text
directly; each must equal, byte for byte, what the general-purpose writers
they replace (json.dumps, an ElementTree, a per-value f-string) produce
from the same graph, partition and trajectory."""

import itertools
import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from pwa_nav.artifacts import write_graph_json, write_trajectory_csv
from pwa_nav.geometry import GridPartition
from pwa_nav.graph import EdgeRecord, ReachGraph, ReachStatus, build_reach_graph
from pwa_nav.render import CANVAS, MARGIN, STATUS_COLOR, render_graph_svg, render_trajectory_svg


def reference_graph_json(graph, partition) -> str:
    nodes = [{"id": cid, "center": [float(v) for v in partition.center(cid)]}
             for cid in graph.nodes]
    edges = [{"src": src, "dst": dst, "status": edge.status.value,
              "weight": float(edge.weight), "definitive": bool(edge.definitive)}
             for (src, dst), edge in sorted(graph.edges.items())]
    return json.dumps({"nodes": nodes, "edges": edges}, indent=1) + "\n"


def reference_trajectory_csv(trajectory, n, m) -> str:
    def fmt(x):
        return f"{x:.17g}"

    header = ["t"] + [f"x{i+1}" for i in range(n)] + [f"u{i+1}" for i in range(m)] + ["cell_id"]
    lines = [",".join(header)]
    for t, x, u, cid in trajectory:
        lines.append(",".join([fmt(t)] + [fmt(v) for v in x.tolist()]
                              + [fmt(v) for v in u.tolist()] + [str(cid)]))
    return "\n".join(lines) + "\n"


class ReferenceCanvas:
    """The state-to-pixel map of the ElementTree renderer, one point at a
    time."""

    def __init__(self, partition):
        self.bounds = partition.bounds
        if partition.dim == 1:
            width = (self.bounds[0, 1] - self.bounds[0, 0]) / partition.resolution[0]
            self.bounds = np.vstack([self.bounds, [0.0, width]])
        span = self.bounds[:, 1] - self.bounds[:, 0]
        self.scale = (CANVAS - 2 * MARGIN) / float(span.max())

    def to_px(self, x, row=0.5):
        if len(x) > 1:
            y = x[1]
        else:
            y = self.bounds[1, 0] + row * (self.bounds[1, 1] - self.bounds[1, 0])
        px = MARGIN + (x[0] - self.bounds[0, 0]) * self.scale
        py = CANVAS - MARGIN - (y - self.bounds[1, 0]) * self.scale
        return px, py


def reference_svg_root(partition, canvas, explored, initial, target):
    root = ET.Element("svg", {
        "xmlns": "http://www.w3.org/2000/svg",
        "width": str(int(CANVAS)),
        "height": str(int(CANVAS)),
        "viewBox": f"0 0 {int(CANVAS)} {int(CANVAS)}",
    })
    explored = set(explored)
    for cid, mi in enumerate(itertools.product(*map(range, partition.resolution))):
        low = [partition.edges[d][i] for d, i in enumerate(mi)]
        high = [partition.edges[d][i + 1] for d, i in enumerate(mi)]
        x0, y1 = canvas.to_px(low, row=0.0)
        x1, y0 = canvas.to_px(high, row=1.0)
        fill = "#ffffff"
        if cid in explored:
            fill = "#fdf3c0"
        if cid == initial:
            fill = "#f5e04a"
        if cid == target:
            fill = "#79d279"
        ET.SubElement(root, "rect", {
            "x": f"{x0:.2f}", "y": f"{y0:.2f}",
            "width": f"{x1 - x0:.2f}", "height": f"{y1 - y0:.2f}",
            "fill": fill, "stroke": "#888888", "stroke-width": "0.5",
        })
    return root


def reference_graph_svg(partition, graph, explored=(), initial=None, target=None) -> str:
    canvas = ReferenceCanvas(partition)
    root = reference_svg_root(partition, canvas, explored, initial, target)
    for (src, dst), edge in sorted(graph.edges.items()):
        a = canvas.to_px(partition.center(src))
        b = canvas.to_px(partition.center(dst))
        ax = a[0] + 0.25 * (b[0] - a[0])
        ay = a[1] + 0.25 * (b[1] - a[1])
        bx = a[0] + 0.72 * (b[0] - a[0])
        by = a[1] + 0.72 * (b[1] - a[1])
        color = STATUS_COLOR[edge.status]
        ET.SubElement(root, "line", {
            "x1": f"{ax:.2f}", "y1": f"{ay:.2f}",
            "x2": f"{bx:.2f}", "y2": f"{by:.2f}",
            "stroke": color, "stroke-width": "1.2",
        })
        ET.SubElement(root, "circle", {
            "cx": f"{bx:.2f}", "cy": f"{by:.2f}", "r": "1.8", "fill": color,
        })
    return ET.tostring(root, encoding="unicode") + "\n"


def reference_trajectory_svg(partition, trajectory, explored=(), initial=None,
                             target=None) -> str:
    canvas = ReferenceCanvas(partition)
    root = reference_svg_root(partition, canvas, explored, initial, target)
    pts = []
    for _, x, _, _ in trajectory:
        # The path ends at the first state that is not finite.
        if not np.all(np.isfinite(x)):
            break
        pts.append(canvas.to_px(np.asarray(x)))
    if pts:
        d = "M " + " L ".join(f"{px:.2f} {py:.2f}" for px, py in pts)
        ET.SubElement(root, "path", {
            "d": d, "fill": "none", "stroke": "#202020", "stroke-width": "1.5",
        })
    return ET.tostring(root, encoding="unicode") + "\n"


WEIGHTS = [1.0, 5e-324, 1e300, np.inf, -np.inf, np.nan, -0.0, 0.1, 2.5, 1.0 / 3.0]

PARTITIONS = {
    "1d": ([[-2.0, 3.0]], [7]),
    "2d": ([[-9.0, 1.0], [0.0, 4.5]], [5, 3]),
    "2d-fine": ([[0.0, 1.0], [-1.0, 0.0]], [11, 13]),
    "3d": ([[0.0, 2.0], [-1.0, 1.0], [5.0, 5.5]], [3, 2, 4]),
    "single": ([[0.0, 1.0], [0.0, 1.0]], [1, 1]),
}


def random_case(rng, name):
    """A partition, a graph of random statuses and weights over it, and
    random explored, initial and target cells. Some centres hold -0.0."""
    partition = GridPartition(*PARTITIONS[name])
    signed = rng.random(partition._centers.shape) < 0.2
    partition._centers[signed] = -0.0
    graph = build_reach_graph(partition, gamma=1.0)
    for edge in graph.edges.values():
        edge.status = list(ReachStatus)[rng.integers(len(ReachStatus))]
        edge.weight = WEIGHTS[rng.integers(len(WEIGHTS))]
        edge.definitive = bool(rng.random() < 0.5)
    # Edges inserted out of order: both writers sort them.
    graph.edges = dict(reversed(list(graph.edges.items())))
    cells = partition.n_cells
    explored = sorted(set(rng.integers(cells, size=rng.integers(cells + 1)).tolist()))
    initial = int(rng.integers(cells)) if rng.random() < 0.8 else None
    target = int(rng.integers(cells)) if rng.random() < 0.8 else None
    return partition, graph, explored, initial, target


def random_trajectory(rng, partition, m, length):
    n = partition.dim
    specials = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 1e300, 0.1]
    trajectory = []
    for k in range(length):
        x = rng.uniform(partition.bounds[:, 0], partition.bounds[:, 1])
        u = rng.normal(size=m)
        if k % 3 == 1:
            x[rng.integers(n)] = specials[rng.integers(len(specials))]
            u[rng.integers(m)] = specials[rng.integers(len(specials))]
        trajectory.append((float(k * 0.01), x, u, int(rng.integers(partition.n_cells))))
    return trajectory


class TestGraphJson:
    @pytest.mark.parametrize("name", sorted(PARTITIONS))
    def test_same_bytes_as_json_dumps(self, tmp_path, name):
        rng = np.random.default_rng(sorted(PARTITIONS).index(name))
        for trial in range(5):
            partition, graph, *_ = random_case(rng, name)
            path = tmp_path / f"graph{trial}.json"
            write_graph_json(path, graph, partition)
            assert path.read_text() == reference_graph_json(graph, partition)

    def test_no_edges(self, tmp_path):
        partition = GridPartition([[0.0, 1.0]], [1])
        graph = ReachGraph([0], {}, 1.0)
        write_graph_json(tmp_path / "g.json", graph, partition)
        assert (tmp_path / "g.json").read_text() == reference_graph_json(graph, partition)

    def test_every_weight_and_status(self, tmp_path):
        partition = GridPartition([[0.0, 1.0]], [2])
        graph = ReachGraph([0, 1], {}, 1.0)
        for k, (weight, status, definitive) in enumerate(itertools.product(
                WEIGHTS, ReachStatus, (False, True))):
            graph.edges[(k, k + 1)] = EdgeRecord(status, weight, definitive)
        write_graph_json(tmp_path / "g.json", graph, partition)
        assert (tmp_path / "g.json").read_text() == reference_graph_json(graph, partition)


class TestTrajectoryCsv:
    @pytest.mark.parametrize("n, m", [(1, 1), (2, 2), (3, 1), (2, 3)])
    def test_same_bytes_as_fstrings(self, tmp_path, n, m):
        rng = np.random.default_rng([n, m])
        partition = GridPartition([[-1.0, 1.0]] * n, [2] * n)
        trajectory = random_trajectory(rng, partition, m, 60)
        write_trajectory_csv(tmp_path / "t.csv", trajectory, n, m)
        assert (tmp_path / "t.csv").read_text() == reference_trajectory_csv(trajectory, n, m)


class TestSvg:
    @pytest.mark.parametrize("name", sorted(PARTITIONS))
    def test_graph_svg_same_bytes_as_element_tree(self, tmp_path, name):
        rng = np.random.default_rng(10 + sorted(PARTITIONS).index(name))
        for trial in range(5):
            partition, graph, explored, initial, target = random_case(rng, name)
            path = tmp_path / f"graph{trial}.svg"
            render_graph_svg(path, partition, graph, explored, initial, target)
            want = reference_graph_svg(partition, graph, explored, initial, target)
            assert path.read_text() == want

    @pytest.mark.parametrize("name", sorted(PARTITIONS))
    def test_trajectory_svg_same_bytes_as_element_tree(self, tmp_path, name):
        rng = np.random.default_rng(20 + sorted(PARTITIONS).index(name))
        for trial in range(5):
            partition, _, explored, initial, target = random_case(rng, name)
            trajectory = random_trajectory(rng, partition, 2, int(rng.integers(1, 40)))
            path = tmp_path / f"trajectory{trial}.svg"
            render_trajectory_svg(path, partition, trajectory, explored, initial, target)
            want = reference_trajectory_svg(partition, trajectory, explored, initial, target)
            assert path.read_text() == want

"""SVG rendering of partitions, graphs, and trajectories.

Visual language: one rectangle per cell (colored by exploration status),
edge arrows colored by status (blue = exists, red = absent, gray =
uncertain), the trajectory as a single polyline path.
"""

from __future__ import annotations

import itertools
import xml.etree.ElementTree as ET

import numpy as np

from .artifacts import atomic_write_text
from .geometry import GridPartition
from .graph import ReachGraph, ReachStatus

CANVAS = 800.0
MARGIN = 20.0

STATUS_COLOR = {
    ReachStatus.EXISTS: "#2060d0",
    ReachStatus.ABSENT: "#d03030",
    ReachStatus.UNCERTAIN: "#b0b0b0",
}


class _Canvas:
    """State-to-pixel map. A 1-D partition is drawn as one row of cells: the
    second axis is one cell wide and holds no state coordinate."""

    def __init__(self, partition: GridPartition):
        self.bounds = partition.bounds
        if partition.dim == 1:
            width = (self.bounds[0, 1] - self.bounds[0, 0]) / partition.resolution[0]
            self.bounds = np.vstack([self.bounds, [0.0, width]])
        span = self.bounds[:, 1] - self.bounds[:, 0]
        self.scale = (CANVAS - 2 * MARGIN) / float(span.max())

    def to_px(self, x, row: float = 0.5):
        """Pixel of state x; a 1-D state sits at height fraction `row` of the
        row of cells."""
        if len(x) > 1:
            y = x[1]
        else:
            y = self.bounds[1, 0] + row * (self.bounds[1, 1] - self.bounds[1, 0])
        px = MARGIN + (x[0] - self.bounds[0, 0]) * self.scale
        py = CANVAS - MARGIN - (y - self.bounds[1, 0]) * self.scale
        return px, py


def _svg_root() -> ET.Element:
    return ET.Element("svg", {
        "xmlns": "http://www.w3.org/2000/svg",
        "width": str(int(CANVAS)),
        "height": str(int(CANVAS)),
        "viewBox": f"0 0 {int(CANVAS)} {int(CANVAS)}",
    })


def _draw_cells(root, partition, canvas, explored=(), initial=None, target=None):
    """One rectangle per cell, its corners read from the partition's grid
    coordinates, which are the floats its box cell is built from."""
    explored = set(explored)
    # Cell ids are C-order multi-indices, as product enumerates them.
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


def _draw_edges(root, partition, graph, canvas):
    for (src, dst), edge in sorted(graph.edges.items()):
        a = canvas.to_px(partition.center(src))
        b = canvas.to_px(partition.center(dst))
        # Offset tip/tail so opposing arrows stay distinguishable.
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


def render_graph_svg(path, partition: GridPartition, graph: ReachGraph,
                     explored=(), initial=None, target=None) -> None:
    canvas = _Canvas(partition)
    root = _svg_root()
    _draw_cells(root, partition, canvas, explored, initial, target)
    _draw_edges(root, partition, graph, canvas)
    atomic_write_text(path, ET.tostring(root, encoding="unicode") + "\n")


def render_trajectory_svg(path, partition: GridPartition, trajectory,
                          explored=(), initial=None, target=None) -> None:
    canvas = _Canvas(partition)
    root = _svg_root()
    _draw_cells(root, partition, canvas, explored, initial, target)
    pts = [canvas.to_px(np.asarray(x)) for _, x, _, _ in trajectory]
    if pts:
        d = "M " + " L ".join(f"{px:.2f} {py:.2f}" for px, py in pts)
        ET.SubElement(root, "path", {
            "d": d, "fill": "none", "stroke": "#202020", "stroke-width": "1.5",
        })
    atomic_write_text(path, ET.tostring(root, encoding="unicode") + "\n")

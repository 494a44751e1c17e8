"""SVG rendering of partitions, graphs, and trajectories.

Visual language: one rectangle per cell (colored by exploration status),
edge arrows colored by status (blue = exists, red = absent, gray =
uncertain), the trajectory as a single polyline path.

The SVG text is written directly as one joined string: attributes in a
fixed order, coordinates as `:.2f` and empty elements closed by ` />`.
These are the bytes an ElementTree of the same elements serializes to,
which the tests check.
"""

from __future__ import annotations

import itertools

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

_SVG_OPEN = (f'<svg xmlns="http://www.w3.org/2000/svg" width="{int(CANVAS)}" '
             f'height="{int(CANVAS)}" viewBox="0 0 {int(CANVAS)} {int(CANVAS)}">')


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

    def px(self, x) -> list[float]:
        """Horizontal pixels of state coordinates x along axis 0."""
        return (MARGIN + (np.asarray(x, dtype=float) - self.bounds[0, 0]) * self.scale).tolist()

    def py(self, y) -> list[float]:
        """Vertical pixels of state coordinates y along axis 1."""
        return (CANVAS - MARGIN
                - (np.asarray(y, dtype=float) - self.bounds[1, 0]) * self.scale).tolist()

    def row_y(self, row: float) -> float:
        """The second coordinate of a 1-D state: height fraction `row` of
        the row of cells."""
        return self.bounds[1, 0] + row * (self.bounds[1, 1] - self.bounds[1, 0])

    def points(self, X: np.ndarray) -> list[tuple[float, float]]:
        """Pixels of the states X (N, n); 1-D states sit mid-row."""
        y = X[:, 1] if X.shape[1] > 1 else np.full(len(X), self.row_y(0.5))
        return list(zip(self.px(X[:, 0]), self.py(y)))


def _cells(partition, canvas, explored=(), initial=None, target=None) -> list[str]:
    """One rectangle per cell, its corners read from the partition's grid
    coordinates, which are the floats its box cell is built from."""
    explored = set(explored)
    xs = canvas.px(partition.edges[0])
    ys = canvas.py(partition.edges[1] if partition.dim > 1
                   else [canvas.row_y(0.0), canvas.row_y(1.0)])
    # Cell ids are C-order multi-indices, as product enumerates them; axes
    # past the second are not drawn apart.
    ranges = [range(r) for r in partition.resolution] + [range(1)] * (partition.dim == 1)
    out = []
    for cid, (i, j, *_) in enumerate(itertools.product(*ranges)):
        x0, x1, y1, y0 = xs[i], xs[i + 1], ys[j], ys[j + 1]
        fill = "#ffffff"
        if cid in explored:
            fill = "#fdf3c0"
        if cid == initial:
            fill = "#f5e04a"
        if cid == target:
            fill = "#79d279"
        out.append(f'<rect x="{x0:.2f}" y="{y0:.2f}" width="{x1 - x0:.2f}" '
                   f'height="{y1 - y0:.2f}" fill="{fill}" stroke="#888888" '
                   f'stroke-width="0.5" />')
    return out


def _write_svg(path, elements: list[str]) -> None:
    atomic_write_text(path, _SVG_OPEN + "".join(elements) + "</svg>\n")


def render_graph_svg(path, partition: GridPartition, graph: ReachGraph,
                     explored=(), initial=None, target=None) -> None:
    canvas = _Canvas(partition)
    elements = _cells(partition, canvas, explored, initial, target)
    centers = canvas.points(partition.center(np.arange(partition.n_cells)))
    for (src, dst), edge in sorted(graph.edges.items()):
        a, b = centers[src], centers[dst]
        # Offset tip/tail so opposing arrows stay distinguishable.
        ax = a[0] + 0.25 * (b[0] - a[0])
        ay = a[1] + 0.25 * (b[1] - a[1])
        bx = a[0] + 0.72 * (b[0] - a[0])
        by = a[1] + 0.72 * (b[1] - a[1])
        color = STATUS_COLOR[edge.status]
        elements.append(
            f'<line x1="{ax:.2f}" y1="{ay:.2f}" x2="{bx:.2f}" y2="{by:.2f}" '
            f'stroke="{color}" stroke-width="1.2" />'
            f'<circle cx="{bx:.2f}" cy="{by:.2f}" r="1.8" fill="{color}" />')
    _write_svg(path, elements)


def render_trajectory_svg(path, partition: GridPartition, trajectory,
                          explored=(), initial=None, target=None) -> None:
    canvas = _Canvas(partition)
    elements = _cells(partition, canvas, explored, initial, target)
    if trajectory:
        X = np.array([x for _, x, _, _ in trajectory], dtype=float)
        # The path ends at the first non-finite state, where a transit diverged.
        X = X[:np.logical_and.accumulate(np.isfinite(X).all(axis=1)).sum()]
        if len(X):
            d = "M " + " L ".join(f"{px:.2f} {py:.2f}" for px, py in canvas.points(X))
            elements.append(f'<path d="{d}" fill="none" stroke="#202020" stroke-width="1.5" />')
    _write_svg(path, elements)

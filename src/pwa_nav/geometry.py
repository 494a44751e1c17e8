"""Axis-aligned grid partitions, their box cells and the Kuhn triangulation
of a box. A cell [low, high] derives the rest in closed form: facet 2d is
the low face of axis d and facet 2d + 1 its high face; vertex j takes the
high side of axis d where bit d of j is set, axis 0 the most significant,
so it lies on facet 2d + (bit d of j) of every axis d.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

FACET_TOL = 1e-9


class GeometryError(ValueError):
    """Invalid geometric input (degenerate bounds, out-of-range cell id, ...)."""


class OutOfDomainError(GeometryError):
    """A query point lies outside the partitioned state space."""


@dataclass(frozen=True)
class Simplex:
    """n+1 affinely independent vertex indices into a parent box, as
    triangulate makes them: the path from the all-low corner that steps
    along the box axes in the order `axes`."""

    vertex_indices: tuple[int, ...]
    axes: tuple[int, ...]


class Polytope:
    """Axis-aligned box [low, high] with positive widths, as unit-normal
    halfspaces normals . x <= offsets and vertices in itertools.product
    order, both in closed form (see the module docstring). Unit normals
    make feasibility margins comparable across facets."""

    def __init__(self, low, high):
        low = np.asarray(low, dtype=float)
        high = np.asarray(high, dtype=float)
        if np.any(high <= low):
            raise GeometryError("degenerate box: low >= high")
        n = len(low)
        axes = np.arange(n)
        self.low, self.high = low, high
        self.normals = np.zeros((2 * n, n))
        self.normals[2 * axes, axes] = -1.0
        self.normals[2 * axes + 1, axes] = 1.0
        self.offsets = np.column_stack([-low, high]).ravel()
        high_side = (np.arange(2**n)[:, None] >> (n - 1 - axes)) & 1 == 1
        self.vertices = np.where(high_side, high, low)

    @classmethod
    def box(cls, low, high) -> "Polytope":
        """The box [low, high]."""
        return cls(low, high)

    @property
    def dim(self) -> int:
        return len(self.low)

    @property
    def n_facets(self) -> int:
        return 2 * self.dim

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    def violation(self, x) -> float:
        """Maximal signed halfspace violation; <= 0 means inside."""
        return float(np.max(self.normals @ np.asarray(x, dtype=float) - self.offsets))

    def contains(self, x, tol: float = FACET_TOL) -> bool:
        return self.violation(x) <= tol


class GridPartition:
    """Uniform axis-aligned grid over a box P_s. Cell ids are flat C-order
    indices of the multi-index (first dimension slowest)."""

    def __init__(self, bounds, resolution):
        bounds = np.asarray(bounds, dtype=float)
        resolution = tuple(int(r) for r in resolution)
        if bounds.ndim != 2 or bounds.shape[1] != 2:
            raise GeometryError("bounds must be an (n, 2) array of [low, high]")
        if not np.all(np.isfinite(bounds)):
            raise GeometryError("bounds must be finite")
        if np.any(bounds[:, 1] <= bounds[:, 0]):
            raise GeometryError("degenerate bounds: low >= high")
        if any(r < 1 for r in resolution):
            raise GeometryError("resolution must be >= 1 per dimension")
        self.bounds = bounds
        self.resolution = resolution
        self.dim = bounds.shape[0]
        # Shared coordinate arrays so adjacent cells coincide exactly.
        self.edges = [
            bounds[d, 0] + np.arange(resolution[d] + 1) * (bounds[d, 1] - bounds[d, 0]) / resolution[d]
            for d in range(self.dim)
        ]
        for d in range(self.dim):
            self.edges[d][-1] = bounds[d, 1]
        self.n_cells = int(np.prod(resolution))
        self._cells: list[Polytope | None] = [None] * self.n_cells
        # C order: the product runs over the last axis fastest.
        self._centers = np.array(list(itertools.product(
            *(0.5 * (e[:-1] + e[1:]) for e in self.edges))))

    def multi_index(self, cid: int) -> tuple[int, ...]:
        if not 0 <= cid < self.n_cells:
            raise GeometryError(f"invalid cell id {cid}")
        return tuple(int(i) for i in np.unravel_index(cid, self.resolution))

    def flat_index(self, mi) -> int:
        return int(np.ravel_multi_index(mi, self.resolution))

    def cell(self, cid: int) -> Polytope:
        if not 0 <= cid < self.n_cells:
            raise GeometryError(f"invalid cell id {cid}")
        if self._cells[cid] is None:
            mi = self.multi_index(cid)
            low = [self.edges[d][mi[d]] for d in range(self.dim)]
            high = [self.edges[d][mi[d] + 1] for d in range(self.dim)]
            self._cells[cid] = Polytope.box(low, high)
        return self._cells[cid]

    def center(self, cid: int) -> np.ndarray:
        return self._centers[cid]

    def locate(self, x) -> int:
        """Cell containing x; points on shared facets resolve to the larger
        multi-index. Points within FACET_TOL of the domain boundary clamp
        inward."""
        x = np.asarray(x, dtype=float)
        mi = []
        for d in range(self.dim):
            if x[d] < self.bounds[d, 0] - FACET_TOL or x[d] > self.bounds[d, 1] + FACET_TOL:
                raise OutOfDomainError(
                    f"state coordinate {d} = {x[d]} outside [{self.bounds[d, 0]}, {self.bounds[d, 1]}]"
                )
            i = int(np.searchsorted(self.edges[d], x[d], side="right")) - 1
            mi.append(min(max(i, 0), self.resolution[d] - 1))
        return self.flat_index(mi)

    def common_facet(self, cell_a: int, cell_b: int) -> int | None:
        """Facet index of cell_a shared with cell_b, or None if not
        adjacent (corner contact and self are not adjacency)."""
        mi_a = self.multi_index(cell_a)
        mi_b = self.multi_index(cell_b)
        diff = [b - a for a, b in zip(mi_a, mi_b)]
        nonzero = [d for d, v in enumerate(diff) if v != 0]
        if len(nonzero) != 1 or abs(diff[nonzero[0]]) != 1:
            return None
        d = nonzero[0]
        return 2 * d + 1 if diff[d] == 1 else 2 * d

    def neighbors(self, cid: int) -> list[tuple[int, int]]:
        """(neighbor id, facet index in cid) pairs, ascending neighbor id."""
        mi = self.multi_index(cid)
        out = []
        for d in range(self.dim):
            for step, facet in ((-1, 2 * d), (1, 2 * d + 1)):
                j = mi[d] + step
                if 0 <= j < self.resolution[d]:
                    nb = list(mi)
                    nb[d] = j
                    out.append((self.flat_index(nb), facet))
        out.sort()
        return out


def triangulate(cell: Polytope) -> list[Simplex]:
    """Kuhn triangulation of a box into n! simplices, one per axis order.

    Every simplex contains the diagonal from the lexicographically smallest
    vertex (the all-low corner, vertex 0) to the all-high corner; in 2-D
    this is the standard diagonal split into two triangles. Raising axis d
    adds 2^(n-1-d) to the vertex index.
    """
    n = cell.dim
    return [Simplex(tuple(itertools.accumulate((1 << (n - 1 - d) for d in perm), initial=0)),
                    perm)
            for perm in itertools.permutations(range(n))]


def find_containing_simplex(
    cell: Polytope, simplices: list[Simplex], x, tol: float = 1e-9
) -> int:
    """Index of the first simplex of triangulate(cell) containing x (ties:
    lowest index). Falls back to the simplex with the least-negative
    barycentric minimum.

    The barycentric coordinates come in closed form: with y the coordinates
    of x normalized to [0, 1] over the box, the simplex stepping along axes
    p_0, ..., p_(n-1) has coordinates 1 - y[p_0], y[p_(i-1)] - y[p_i] and
    y[p_(n-1)]."""
    y = ((np.asarray(x, dtype=float) - cell.low) / (cell.high - cell.low)).tolist()
    best_idx, best_min = 0, -np.inf
    for k, s in enumerate(simplices):
        steps = [y[d] for d in s.axes]
        m = min(1.0 - steps[0], steps[-1], *(a - b for a, b in zip(steps, steps[1:])))
        if m >= -tol:
            return k
        if m > best_min:
            best_idx, best_min = k, m
    return best_idx

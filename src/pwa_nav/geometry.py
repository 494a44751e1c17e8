"""Axis-aligned grid partitions, polytopes with facet/vertex incidence, and
box triangulation.

Cells of a grid partition are axis-aligned boxes, but the Polytope type keeps
a general H+V representation so that every downstream consumer works from
facet normals and vertex/facet index sets alone.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

FACET_TOL = 1e-9


class GeometryError(ValueError):
    """Invalid geometric input (degenerate bounds, non-box cell, ...)."""


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
    """Bounded full-dimensional polytope: halfspaces n.x <= b, vertex list,
    and mutually consistent facet/vertex incidence sets.

    Normals are unit length so feasibility margins are comparable across
    facets.
    """

    def __init__(self, normals, offsets, vertices):
        normals = np.asarray(normals, dtype=float)
        offsets = np.asarray(offsets, dtype=float)
        vertices = np.asarray(vertices, dtype=float)
        if normals.ndim != 2 or vertices.ndim != 2:
            raise GeometryError("normals and vertices must be 2-D arrays")
        if normals.shape[1] != vertices.shape[1]:
            raise GeometryError("normal/vertex dimension mismatch")
        norms = np.linalg.norm(normals, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-12):
            raise GeometryError("facet normals must be unit length")
        slack = normals @ vertices.T - offsets[:, None]  # facets x vertices
        if np.any(slack > FACET_TOL):
            raise GeometryError("a vertex violates a halfspace")
        self.normals = normals
        self.offsets = offsets
        self.vertices = vertices
        on_facet = np.abs(slack) <= FACET_TOL
        self.facet_vertex_index = [
            tuple(sorted(np.nonzero(on_facet[i])[0])) for i in range(len(normals))
        ]
        self.vertex_facet_index = [
            tuple(sorted(np.nonzero(on_facet[:, j])[0])) for j in range(len(vertices))
        ]

    @property
    def dim(self) -> int:
        return self.vertices.shape[1]

    @property
    def n_facets(self) -> int:
        return len(self.offsets)

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    def violation(self, x) -> float:
        """Maximal signed halfspace violation; <= 0 means inside."""
        return float(np.max(self.normals @ np.asarray(x, dtype=float) - self.offsets))

    def contains(self, x, tol: float = FACET_TOL) -> bool:
        return self.violation(x) <= tol

    def is_box(self) -> bool:
        n = self.dim
        if self.n_facets != 2 * n or self.n_vertices != 2**n:
            return False
        eye = np.eye(n)
        for d in range(n):
            if not (
                np.allclose(self.normals[2 * d], -eye[d])
                and np.allclose(self.normals[2 * d + 1], eye[d])
            ):
                return False
        return True

    def box_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        if not self.is_box():
            raise GeometryError("polytope is not an axis-aligned box")
        low = -self.offsets[0::2]
        high = self.offsets[1::2]
        return low, high

    @classmethod
    def box(cls, low, high) -> "Polytope":
        """Axis-aligned box [low, high]. Facet 2d is the low face of dim d
        (normal -e_d), facet 2d+1 the high face (normal +e_d)."""
        low = np.asarray(low, dtype=float)
        high = np.asarray(high, dtype=float)
        n = len(low)
        if np.any(high <= low):
            raise GeometryError("degenerate box: low >= high")
        normals = np.zeros((2 * n, n))
        offsets = np.zeros(2 * n)
        for d in range(n):
            normals[2 * d, d] = -1.0
            offsets[2 * d] = -low[d]
            normals[2 * d + 1, d] = 1.0
            offsets[2 * d + 1] = high[d]
        vertices = np.array(list(itertools.product(*zip(low, high))))
        return cls(normals, offsets, vertices)


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
        self._centers = np.empty((self.n_cells, self.dim))
        for cid in range(self.n_cells):
            mi = self.multi_index(cid)
            self._centers[cid] = [
                0.5 * (self.edges[d][mi[d]] + self.edges[d][mi[d] + 1])
                for d in range(self.dim)
            ]

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
    """Kuhn triangulation of an axis-aligned box into n! simplices.

    Every simplex contains the diagonal from the lexicographically smallest
    vertex (the all-low corner) to the all-high corner; in 2-D this is the
    standard diagonal split into two triangles.
    """
    if not cell.is_box():
        raise GeometryError("triangulate supports axis-aligned boxes only")
    low, high = cell.box_bounds()
    n = cell.dim
    corner_index = {}
    for j, v in enumerate(cell.vertices):
        bits = tuple(int(np.isclose(v[d], high[d])) for d in range(n))
        corner_index[bits] = j
    simplices = []
    for perm in itertools.permutations(range(n)):
        bits = [0] * n
        idxs = [corner_index[tuple(bits)]]
        for d in perm:
            bits[d] = 1
            idxs.append(corner_index[tuple(bits)])
        simplices.append(Simplex(tuple(idxs), perm))
    return simplices


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
    path = simplices[0].vertex_indices
    low, high = cell.vertices[path[0]], cell.vertices[path[-1]]
    y = ((np.asarray(x, dtype=float) - low) / (high - low)).tolist()
    best_idx, best_min = 0, -np.inf
    for k, s in enumerate(simplices):
        steps = [y[d] for d in s.axes]
        m = min(1.0 - steps[0], steps[-1], *(a - b for a, b in zip(steps, steps[1:])))
        if m >= -tol:
            return k
        if m > best_min:
            best_idx, best_min = k, m
    return best_idx

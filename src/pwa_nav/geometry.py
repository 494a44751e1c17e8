"""Axis-aligned grid partitions, their box cells and the Kuhn triangulation
of a box. A cell [low, high] derives the rest in closed form: facet 2d is
the low face of axis d and facet 2d + 1 its high face; vertex j takes the
high side of axis d where bit d of j is set, axis 0 the most significant,
so it lies on facet 2d + (bit d of j) of every axis d.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

FACET_TOL = 1e-9


def norm(v: np.ndarray) -> np.ndarray:
    """Euclidean norms of stacked vectors v (..., n), each as np.linalg.norm
    takes that of one vector: the square root of v @ v. Every centre
    distance and vertex norm goes through it, so a distance taken alone and
    the same distance taken in a stack agree to the last bit."""
    return np.sqrt((v[..., None, :] @ v[..., None])[..., 0, 0])


def _floats(x):
    """A state as Python floats: an array's tolist(), a float sequence as
    it is."""
    return x.tolist() if isinstance(x, np.ndarray) else x


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


@lru_cache(maxsize=None)
def _box_table(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The parts of an n-D box that do not depend on its corners, read-only
    and shared by every box of that dimension: the unit facet normals
    (2n, n) and, per vertex, which axes take the high side (2^n, n)."""
    axes = np.arange(n)
    normals = np.zeros((2 * n, n))
    normals[2 * axes, axes] = -1.0
    normals[2 * axes + 1, axes] = 1.0
    high_side = (np.arange(2**n)[:, None] >> (n - 1 - axes)) & 1 == 1
    normals.setflags(write=False)
    high_side.setflags(write=False)
    return normals, high_side


class Polytope:
    """Axis-aligned box [low, high] with positive widths, as unit-normal
    halfspaces normals . x <= offsets and vertices in itertools.product
    order, both in closed form (see the module docstring). Unit normals
    make feasibility margins comparable across facets; they are shared by
    every box of one dimension, so they are read-only."""

    def __init__(self, low, high):
        low = np.asarray(low, dtype=float)
        high = np.asarray(high, dtype=float)
        if np.any(high <= low):
            raise GeometryError("degenerate box: low >= high")
        self.low, self.high = low, high
        self.normals, high_side = _box_table(len(low))
        self.offsets = np.empty(2 * len(low))
        self.offsets[0::2] = -low
        self.offsets[1::2] = high
        self.vertices = np.where(high_side, high, low)

    @classmethod
    def box(cls, low, high) -> "Polytope":
        """The box [low, high]."""
        return cls(low, high)

    @property
    def dim(self) -> int:
        return len(self.low)

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @cached_property
    def _frame(self) -> tuple[list[float], list[float], list[float]]:
        """low, high and the widths high - low as floats, computed once per
        box for violation and find_containing_simplex."""
        return self.low.tolist(), self.high.tolist(), (self.high - self.low).tolist()

    def violation(self, x) -> float:
        """Maximal signed halfspace violation, max(low - x, x - high), of a
        state given as floats or as an array; <= 0 means inside. With unit
        axis normals this is normals @ x - offsets bit for bit, for every
        finite x; NaN in x gives NaN (never inside), as np.max does."""
        low, high, _ = self._frame
        x = _floats(x)
        terms = [lo - v for lo, v in zip(low, x)] + [v - hi for v, hi in zip(x, high)]
        return math.nan if any(map(math.isnan, terms)) else max(terms)

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
        # How far the flat id moves per step along each axis.
        self._strides = tuple(int(np.prod(resolution[d + 1:])) for d in range(self.dim))
        self._cells: list[Polytope | None] = [None] * self.n_cells
        # C order: the product runs over the last axis fastest.
        self._centers = np.array(list(itertools.product(
            *(0.5 * (e[:-1] + e[1:]) for e in self.edges))))

    def multi_index(self, cid: int) -> tuple[int, ...]:
        if not 0 <= cid < self.n_cells:
            raise GeometryError(f"invalid cell id {cid}")
        rest = operator.index(cid)
        mi = []
        for stride in self._strides:
            i, rest = divmod(rest, stride)
            mi.append(i)
        return tuple(mi)

    def flat_index(self, mi) -> int:
        if len(mi) != self.dim or not all(0 <= i < r for i, r in zip(mi, self.resolution)):
            raise GeometryError(f"invalid multi-index {tuple(mi)}")
        return sum(operator.index(i) * stride for i, stride in zip(mi, self._strides))

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
        inward; a NaN coordinate lies in no cell."""
        x = np.asarray(x, dtype=float)
        mi = []
        for d in range(self.dim):
            if not self.bounds[d, 0] - FACET_TOL <= x[d] <= self.bounds[d, 1] + FACET_TOL:
                raise OutOfDomainError(
                    f"state coordinate {d} = {x[d]} outside [{self.bounds[d, 0]}, {self.bounds[d, 1]}]"
                )
            i = int(np.searchsorted(self.edges[d], x[d], side="right")) - 1
            mi.append(min(max(i, 0), self.resolution[d] - 1))
        return self.flat_index(mi)

    def common_facet(self, cell_a: int, cell_b: int) -> int | None:
        """Facet index of cell_a shared with cell_b, or None if not
        adjacent (corner contact and self are not adjacency)."""
        if not 0 <= cell_b < self.n_cells:
            raise GeometryError(f"invalid cell id {cell_b}")
        return dict(self.neighbors(cell_a)).get(cell_b)

    def neighbors(self, cid: int) -> list[tuple[int, int]]:
        """(neighbor id, facet index in cid) pairs, ascending neighbor id."""
        cid = operator.index(cid)
        out = []
        for d, (i, r, stride) in enumerate(zip(self.multi_index(cid), self.resolution,
                                               self._strides)):
            if i > 0:
                out.append((cid - stride, 2 * d))
            if i < r - 1:
                out.append((cid + stride, 2 * d + 1))
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
    """Index of the first simplex of triangulate(cell) containing the state
    x, floats or an array (ties: lowest index). Falls back to the simplex
    with the least-negative barycentric minimum.

    The barycentric coordinates come in closed form: with y the coordinates
    of x normalized to [0, 1] over the box, the simplex stepping along axes
    p_0, ..., p_(n-1) has coordinates 1 - y[p_0], y[p_(i-1)] - y[p_i] and
    y[p_(n-1)]."""
    # The subtraction and division of the array form, one float at a time.
    low, _, width = cell._frame
    y = [(v - lo) / w for v, lo, w in zip(_floats(x), low, width)]
    best_idx, best_min = 0, -np.inf
    for k, s in enumerate(simplices):
        # The minimum over 1 - y[p_0], y[p_(n-1)], then the differences in
        # axis order: with NaN coordinates min() depends on that order.
        prev = y[s.axes[0]]
        m = min(1.0 - prev, y[s.axes[-1]])
        for d in s.axes[1:]:
            m = min(m, prev - y[d])
            prev = y[d]
        if m >= -tol:
            return k
        if m > best_min:
            best_idx, best_min = k, m
    return best_idx

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pwa_nav.geometry import (
    FACET_TOL,
    GeometryError,
    GridPartition,
    OutOfDomainError,
    Polytope,
    find_containing_simplex,
    triangulate,
)


def barycentric(cell: Polytope, simplex, x) -> np.ndarray:
    """Barycentric coordinates of x in a simplex of the cell, by one linear
    solve: the reference for find_containing_simplex's closed form."""
    verts = cell.vertices[list(simplex.vertex_indices)]
    mat = np.vstack([verts.T, np.ones(cell.dim + 1)])
    return np.linalg.solve(mat, np.append(np.asarray(x, dtype=float), 1.0))


def simplex_volume(cell: Polytope, simplex) -> float:
    """|det(v_1 - v_0, ..., v_n - v_0)| / n! over the simplex's vertices."""
    verts = cell.vertices[list(simplex.vertex_indices)]
    return abs(float(np.linalg.det(verts[1:] - verts[0]))) / math.factorial(cell.dim)


def facet_measure(cell: Polytope, facet: int) -> float:
    """(n-1)-measure of a box facet: product of side lengths off its axis."""
    sides = np.delete(cell.high - cell.low, facet // 2)
    return float(np.prod(sides)) if len(sides) else 1.0


def reference_incidence(cell: Polytope) -> list[tuple[int, ...]]:
    """Vertex-facet incidence from the halfspaces: the facets whose
    constraint each vertex meets within FACET_TOL."""
    slack = cell.normals @ cell.vertices.T - cell.offsets[:, None]
    on_facet = np.abs(slack) <= FACET_TOL
    return [tuple(int(i) for i in np.nonzero(on_facet[:, j])[0])
            for j in range(cell.n_vertices)]


def reference_triangulate(cell: Polytope) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Kuhn simplices as (vertex indices, axes), with each vertex found by
    matching its coordinates to the box's high corner."""
    n = cell.dim
    corner_index = {}
    for j, v in enumerate(cell.vertices):
        bits = tuple(int(np.isclose(v[d], cell.high[d])) for d in range(n))
        corner_index[bits] = j
    out = []
    for perm in itertools.permutations(range(n)):
        bits = [0] * n
        idxs = [corner_index[tuple(bits)]]
        for d in perm:
            bits[d] = 1
            idxs.append(corner_index[tuple(bits)])
        out.append((tuple(idxs), perm))
    return out


def random_box(rng, n: int) -> Polytope:
    """A box with widths between 1e-6 and 1e6, log-uniform, and corners of
    either sign up to 1e3 widths from the origin. Farther out, isclose takes
    a low side for the high one and reference_triangulate fails."""
    widths = 10.0 ** rng.uniform(-6.0, 6.0, size=n)
    low = rng.uniform(-1.0, 1.0, size=n) * widths * 10.0 ** rng.uniform(0.0, 3.0, size=n)
    return Polytope.box(low, low + widths)


class TestPolytope:
    def test_unit_box_combinatorics(self):
        cell = Polytope.box([0.0, 0.0], [1.0, 1.0])
        assert cell.n_facets == 4
        assert cell.n_vertices == 4
        assert all(len(facets) == 2 for facets in reference_incidence(cell))

    def test_vertices_satisfy_halfspaces(self):
        cell = Polytope.box([-1.0, 2.0], [0.5, 7.0])
        slack = cell.normals @ cell.vertices.T - cell.offsets[:, None]
        assert np.all(slack <= 1e-9)

    def test_normals_unit_length(self):
        cell = Polytope.box([0.0, 0.0], [10.0, 0.1])
        assert np.allclose(np.linalg.norm(cell.normals, axis=1), 1.0, atol=1e-12)

    def test_degenerate_box_rejected(self):
        with pytest.raises(GeometryError):
            Polytope.box([0.0, 0.0], [1.0, 0.0])

    def test_closed_surface_identity(self):
        # Sum over facets of (facet measure * outward normal) vanishes.
        cell = Polytope.box([-3.0, 1.0, 0.0], [4.0, 2.5, 9.0])
        total = sum(
            facet_measure(cell, i) * cell.normals[i] for i in range(cell.n_facets)
        )
        assert np.allclose(total, 0.0, atol=1e-9)


class TestBuildGridPartition:
    def test_20x20_unit_squares(self):
        part = GridPartition([[-10, 10], [-10, 10]], (20, 20))
        assert part.n_cells == 400
        cell = part.cell(0)
        assert np.allclose(cell.high - cell.low, 1.0)

    def test_single_cell(self):
        part = GridPartition([[0, 1], [0, 1]], (1, 1))
        assert part.n_cells == 1
        cell = part.cell(0)
        assert cell.n_facets == 4 and cell.n_vertices == 4

    def test_shared_facet_opposing_normals(self):
        part = GridPartition([[0, 2], [0, 1]], (2, 1))
        f01 = part.common_facet(0, 1)
        f10 = part.common_facet(1, 0)
        n01 = part.cell(0).normals[f01]
        n10 = part.cell(1).normals[f10]
        assert np.allclose(n01, [1.0, 0.0])
        assert np.allclose(n01, -n10)

    def test_cell_coverage_layout(self):
        part = GridPartition([[0, 4], [0, 6]], (2, 3))
        cell = part.cell(part.flat_index((1, 2)))
        assert np.allclose(cell.low, [2.0, 4.0])
        assert np.allclose(cell.high, [4.0, 6.0])

    def test_degenerate_bounds_rejected(self):
        with pytest.raises(GeometryError):
            GridPartition([[1, 1], [0, 1]], (2, 2))
        with pytest.raises(GeometryError):
            GridPartition([[0, 1], [0, 1]], (0, 2))


class TestCommonFacet:
    @pytest.fixture
    def part(self):
        return GridPartition([[0, 3], [0, 3]], (3, 3))

    def test_horizontal_neighbors(self, part):
        left = part.flat_index((0, 0))
        right = part.flat_index((1, 0))
        facet = part.common_facet(left, right)
        assert np.allclose(part.cell(left).normals[facet], [1.0, 0.0])

    def test_diagonal_not_adjacent(self, part):
        assert part.common_facet(part.flat_index((0, 0)), part.flat_index((1, 1))) is None

    def test_no_self_edge(self, part):
        assert part.common_facet(4, 4) is None

    def test_adjacency_symmetry_and_antiparallel(self, part):
        for a in range(part.n_cells):
            for b in range(part.n_cells):
                fa = part.common_facet(a, b)
                fb = part.common_facet(b, a)
                assert (fa is None) == (fb is None)
                if fa is not None:
                    assert np.allclose(
                        part.cell(a).normals[fa], -part.cell(b).normals[fb]
                    )


class TestLocate:
    def test_interior_point(self):
        part = GridPartition([[0, 1], [0, 1]], (1, 1))
        assert part.locate((0.5, 0.5)) == 0

    def test_boundary_tie_break_larger_index(self):
        part = GridPartition([[0, 2], [0, 1]], (2, 1))
        assert part.locate((1.0, 0.5)) == 1

    def test_out_of_domain(self):
        part = GridPartition([[-10, 10], [-10, 10]], (20, 20))
        with pytest.raises(OutOfDomainError):
            part.locate((11.0, 0.0))

    def test_domain_boundary_clamps_inward(self):
        part = GridPartition([[0, 2], [0, 2]], (2, 2))
        cid = part.locate((2.0, 2.0))
        assert cid == part.flat_index((1, 1))

    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=30, deadline=None)
    def test_center_roundtrip(self, rx, ry):
        part = GridPartition([[-3, 5], [2, 4]], (rx, ry))
        for cid in range(part.n_cells):
            assert part.locate(part.center(cid)) == cid


class TestTriangulate:
    def test_unit_square_two_triangles(self):
        cell = Polytope.box([0.0, 0.0], [1.0, 1.0])
        simplices = triangulate(cell)
        assert len(simplices) == 2
        for s in simplices:
            assert simplex_volume(cell, s) == pytest.approx(0.5)

    def test_diagonal_from_lexicographically_smallest_vertex(self):
        cell = Polytope.box([1.0, 2.0], [3.0, 5.0])
        low_corner = np.array([1.0, 2.0])
        high_corner = np.array([3.0, 5.0])
        for s in triangulate(cell):
            verts = cell.vertices[list(s.vertex_indices)]
            assert any(np.allclose(v, low_corner) for v in verts)
            assert any(np.allclose(v, high_corner) for v in verts)

    def test_unit_cube_six_tetrahedra(self):
        cell = Polytope.box([0.0] * 3, [1.0] * 3)
        simplices = triangulate(cell)
        assert len(simplices) == 6
        for s in simplices:
            assert simplex_volume(cell, s) == pytest.approx(1 / 6)

    def test_measures_sum_to_cell_volume(self):
        cell = Polytope.box([-1.0, 0.0, 2.0], [2.0, 0.5, 9.0])
        total = sum(simplex_volume(cell, s) for s in triangulate(cell))
        assert total == pytest.approx(float(np.prod(cell.high - cell.low)), rel=1e-9)

    def test_interiors_disjoint_2d(self):
        # Sample points; each interior point must lie in exactly one triangle.
        cell = Polytope.box([0.0, 0.0], [1.0, 1.0])
        simplices = triangulate(cell)
        rng = np.random.default_rng(7)
        for x in rng.uniform(0.01, 0.99, size=(200, 2)):
            hits = sum(
                1 for s in simplices if barycentric(cell, s, x).min() > 1e-9
            )
            assert hits <= 1

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_corner_map_reference(self, n):
        rng = np.random.default_rng(60 + n)
        for _ in range(50):
            cell = random_box(rng, n)
            got = [(s.vertex_indices, s.axes) for s in triangulate(cell)]
            assert got == reference_triangulate(cell)


class TestFindContainingSimplex:
    def test_lowest_index_tie_break_on_diagonal(self):
        cell = Polytope.box([0.0, 0.0], [1.0, 1.0])
        simplices = triangulate(cell)
        assert find_containing_simplex(cell, simplices, (0.5, 0.5)) == 0

    def test_every_cell_point_is_covered(self):
        cell = Polytope.box([0.0, 0.0], [2.0, 3.0])
        simplices = triangulate(cell)
        rng = np.random.default_rng(11)
        for x in rng.uniform((0, 0), (2, 3), size=(100, 2)):
            k = find_containing_simplex(cell, simplices, x)
            assert barycentric(cell, simplices[k], x).min() >= -1e-9

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_barycentric_solve(self, n):
        rng = np.random.default_rng(30 + n)
        low = rng.uniform(-3.0, 3.0, size=n)
        high = low + rng.uniform(0.5, 2.0, size=n)
        cell = Polytope.box(low, high)
        simplices = triangulate(cell)
        tol = 1e-9
        points = list(rng.uniform(low, high, size=(100, n)))  # interior
        points += [low + t * (high - low) for t in np.linspace(0.0, 1.0, 7)]  # main diagonal
        points += list(cell.vertices)  # corners
        for v in cell.vertices:  # just outside, within and beyond tol
            outward = np.where(v == low, -1.0, 1.0)
            points += [v + 0.5 * tol * outward, v + 1e-3 * outward]
        points += list(rng.uniform(low - 0.5, high + 0.5, size=(50, n)))  # all around

        def least(k, x):
            return float(barycentric(cell, simplices[k], x).min())

        for x in points:
            mins = [least(k, x) for k in range(len(simplices))]
            got = find_containing_simplex(cell, simplices, x, tol)
            inside = [k for k, m in enumerate(mins) if m >= -tol]
            if inside:
                assert got == inside[0]
            else:
                # Beyond tol, simplices often tie on the least coordinate,
                # which the solve resolves by its rounding alone.
                assert mins[got] == pytest.approx(max(mins), abs=1e-12)

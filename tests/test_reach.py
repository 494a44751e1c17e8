import itertools

import numpy as np
import pytest

from pwa_nav import feasibility, reach
from pwa_nav.dynamics import AffineModel, TerrainField, linearize_at
from pwa_nav.feasibility import (
    FEASIBLE,
    TOL_STRICT,
    LinearConstraintSystem,
    SystemStack,
    balance_witnesses_batch,
    decide_feasibility,
    decide_stacks,
    screen_feasibility,
)
from pwa_nav.geometry import (
    GridPartition,
    Polytope,
    find_containing_simplex,
)
from pwa_nav.reach import (
    ModelDeviationBounds,
    PiecewiseInterpolationLaw,
    ReachStatus,
    ReachDecision,
    UnboundedTransitError,
    decide_exit_facet,
    decide_exit_facets,
    deviation_bounds,
    expanded_vertex_system,
    predict_exit_facet,
    predict_exit_facets,
    robust_vertex_system,
    sign_patterns,
    t0_upper_bound,
    vertex_constraint_system,
)
from test_feasibility import reference_enumerate
from test_geometry import barycentric, reference_incidence

BOX = np.array([[-5.0, 5.0], [-5.0, 5.0]])
UNIT_SQUARE = Polytope.box([0.0, 0.0], [1.0, 1.0])
EXIT_RIGHT = 1  # facet x1 = 1 of the unit square


def single_integrator():
    return AffineModel(np.zeros((2, 2)), np.eye(2), np.zeros(2), np.zeros(2))


def random_model(rng, scale=1.0):
    return AffineModel(
        rng.normal(scale=scale, size=(2, 2)),
        rng.normal(scale=scale, size=(2, 2)),
        rng.normal(scale=scale, size=2),
        np.zeros(2),
    )


SOLVER_TOL = 1e-9  # LP primal feasibility slack


def rows_satisfied(sys, u):
    for a, rhs, strict in zip(sys.A, sys.b, sys.strict):
        val = float(np.dot(a, u))
        if strict:
            if val - rhs <= TOL_STRICT - SOLVER_TOL:
                return False
        elif val > rhs + SOLVER_TOL:
            return False
    return True


class TestDeviationBounds:
    def test_zero_distance(self):
        model = single_integrator()
        b = deviation_bounds(model, [1.0, 2.0], [1.0, 2.0], 0.03, 0.03)
        assert b.eps_A == 0.0 and b.eps_B == 0.0 and b.eps_c == 0.0

    def test_unit_distance_scales_lipschitz(self):
        model = single_integrator()
        b = deviation_bounds(model, [0.0, 0.0], [1.0, 0.0], 0.03, 0.03)
        assert b.eps_A == pytest.approx(0.03)
        assert b.eps_B == pytest.approx(0.03)

    def test_eps_c_formula(self):
        # ||A|| = 0.2, distance 1, ||x2|| = 10, L_df = 0.03:
        # 2*0.2*1 + 0.5*0.03*1 + 0.03*1*10 = 0.715
        model = AffineModel(np.diag([0.2, 0.0]), np.eye(2), np.zeros(2), np.zeros(2))
        b = deviation_bounds(model, [9.0, 0.0], [10.0, 0.0], 0.03, 0.03)
        assert b.eps_c == pytest.approx(0.715)

    def test_bounds_hold_on_terrain_linearizations(self):
        env = TerrainField()
        rng = np.random.default_rng(0)
        for _ in range(100):
            x1 = rng.uniform(-10, 10, size=2)
            x2 = rng.uniform(-10, 10, size=2)
            m1 = linearize_at(env, x1)
            m2 = linearize_at(env, x2)
            b = deviation_bounds(m1, x1, x2, env.L_df, env.L_g)
            assert np.linalg.norm(m2.A - m1.A, ord=2) <= b.eps_A + 1e-9
            assert np.linalg.norm(m2.B - m1.B, ord=2) <= b.eps_B + 1e-9
            assert np.linalg.norm(m2.c - m1.c) <= b.eps_c + 1e-9

    def test_negative_bounds_rejected(self):
        with pytest.raises(ValueError):
            ModelDeviationBounds(-0.1, 0.0, 0.0)


class TestNonFiniteControlBox:
    BOX = [[-5.0, np.inf], [-5.0, 5.0]]

    def test_decide_rejects(self):
        with pytest.raises(ValueError):
            decide_exit_facet(UNIT_SQUARE, EXIT_RIGHT, single_integrator(), self.BOX)

    def test_predict_rejects(self):
        bounds = ModelDeviationBounds(0.01, 0.01, 0.01)
        with pytest.raises(ValueError):
            predict_exit_facet(UNIT_SQUARE, EXIT_RIGHT, single_integrator(), bounds, self.BOX)


class TestVertexConstraintSystem:
    def test_exit_vertex_rows(self):
        # Vertex (1,1) lies on the exit facet x1=1 and the top facet:
        # rows {u1 > 0, u2 <= 0}.
        sys = vertex_constraint_system(UNIT_SQUARE, EXIT_RIGHT, 3, single_integrator(), BOX)
        assert rows_satisfied(sys, np.array([1.0, 0.0]))
        assert not rows_satisfied(sys, np.array([-1.0, 0.0]))
        assert not rows_satisfied(sys, np.array([1.0, 1.0]))

    def test_non_exit_vertex_keeps_all_incident_rows(self):
        # Vertex (0,0): rows {u1 > 0, -u2 <= 0}. The row -u1 <= 0 of the
        # left facet, opposite the exit facet, is the exit row negated and
        # made non-strict, so the system leaves it out.
        sys = vertex_constraint_system(UNIT_SQUARE, EXIT_RIGHT, 0, single_integrator(), BOX)
        assert sys.A.shape == (2, 2)
        assert np.array_equal(sys.A, [[1.0, 0.0], [0.0, -1.0]])
        assert sys.strict.tolist() == [True, False]
        assert rows_satisfied(sys, np.array([1.0, 0.0]))
        assert not rows_satisfied(sys, np.array([1.0, -1.0]))
        assert not rows_satisfied(sys, np.array([-1.0, 0.0]))

    def test_drift_against_small_control_box(self):
        model = AffineModel(np.zeros((2, 2)), np.eye(2), [-4.5, -4.5], np.zeros(2))
        # Vertex (1,0): {u1 > 4.5, -u2 <= 4.5}; feasible at u = (5, 0).
        sys = vertex_constraint_system(UNIT_SQUARE, EXIT_RIGHT, 2, model, BOX)
        assert decide_feasibility(sys).feasible
        small = np.array([[-4.0, 4.0], [-4.0, 4.0]])
        sys_small = vertex_constraint_system(UNIT_SQUARE, EXIT_RIGHT, 2, model, small)
        assert not decide_feasibility(sys_small).feasible


class TestDecideExitFacet:
    def test_single_integrator_all_facets_exist(self):
        model = single_integrator()
        for facet in range(4):
            assert decide_exit_facet(UNIT_SQUARE, facet, model, BOX).status \
                is ReachStatus.EXISTS

    def test_no_motion_is_absent(self):
        model = AffineModel(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros(2), np.zeros(2))
        for facet in range(4):
            assert decide_exit_facet(UNIT_SQUARE, facet, model, BOX).status \
                is ReachStatus.ABSENT

    def test_witnesses_satisfy_vertex_systems(self):
        rng = np.random.default_rng(1)
        checked = 0
        while checked < 30:
            model = random_model(rng)
            for facet in range(4):
                dec = decide_exit_facet(UNIT_SQUARE, facet, model, BOX)
                if dec.status is ReachStatus.EXISTS:
                    for j, u in enumerate(dec.witnesses):
                        sys = vertex_constraint_system(UNIT_SQUARE, facet, j, model, BOX)
                        assert rows_satisfied(sys, u)
                        assert np.all(u >= BOX[:, 0]) and np.all(u <= BOX[:, 1])
                    checked += 1

    def test_matches_input_sampling_oracle_on_terrain_cells(self):
        env = TerrainField()
        part = GridPartition([[-10, 10], [-10, 10]], (20, 20))
        rng = np.random.default_rng(2)
        grid = np.arange(-5.0, 5.0 + 1e-12, 0.05)
        U = np.array(list(itertools.product(grid, grid)))
        for cid in rng.choice(part.n_cells, size=6, replace=False):
            model = linearize_at(env, part.center(cid))
            cell = part.cell(int(cid))
            for _, facet in part.neighbors(int(cid)):
                dec = decide_exit_facet(cell, facet, model, BOX)
                sampled_ok = True
                for j in range(cell.n_vertices):
                    sys = vertex_constraint_system(cell, facet, j, model, BOX)
                    ok = np.ones(len(U), dtype=bool)
                    for a, rhs, strict in zip(sys.A, sys.b, sys.strict):
                        v = U @ a
                        if strict:
                            ok &= v > rhs + TOL_STRICT
                        else:
                            ok &= v <= rhs
                    if not ok.any():
                        sampled_ok = False
                        break
                assert (dec.status is ReachStatus.EXISTS) == sampled_ok


def reference_rows(cell, facet, j, model, bounds=None, pattern=None, tighten=True,
                   opposite=False):
    """Row-by-row construction of a vertex system as (coeffs, rhs, strict)
    triples: the nominal system when bounds is None, else the robust
    (tighten=True) or expanded (tighten=False) system of one sign pattern.
    The rows are those of the exit facet and of the other facets containing
    the vertex, less the facet opposite the exit facet unless opposite."""
    v = cell.vertices[j]
    drift = model.A @ v + model.c
    facets = [facet] + [i for i in reference_incidence(cell)[j]
                        if i != facet and (opposite or i != facet ^ 1)]
    if bounds is None:
        return [(cell.normals[i] @ model.B, -float(cell.normals[i] @ drift), i == facet)
                for i in facets]
    shift = bounds.eps_A * float(np.linalg.norm(v)) + bounds.eps_c
    s = np.asarray(pattern, dtype=float)
    rows = []
    for i in facets:
        n = cell.normals[i]
        b_minus = n @ model.B - s * bounds.eps_B
        b_plus = n @ model.B + s * bounds.eps_B
        if i == facet:
            rows.append((b_minus, -float(n @ drift) + shift, True) if tighten
                        else (b_plus, -float(n @ drift) - shift, True))
        else:
            rows.append((b_plus, -float(n @ drift) - shift, False) if tighten
                        else (b_minus, -float(n @ drift) + shift, False))
    m = model.B.shape[1]
    for k in range(m):
        e = np.zeros(m)
        e[k] = 1.0
        rows.append((e, 0.0, pattern[k] > 0))
    return rows


class TestRowBuildersMatchReference:
    """The array builders do the reference's arithmetic row for row, so the
    systems must agree exactly."""

    CELLS = [UNIT_SQUARE, Polytope.box([2.0, -1.0], [5.0, 0.5]),
             Polytope.box([-1.0, 0.0, 0.5], [0.0, 2.0, 0.75])]

    @staticmethod
    def assert_same(sys, rows):
        assert np.array_equal(sys.A, np.array([a for a, _, _ in rows]))
        assert np.array_equal(sys.b, np.array([b for _, b, _ in rows]))
        assert np.array_equal(sys.strict, np.array([st for _, _, st in rows]))

    def test_random_models_bounds_patterns(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            cell = self.CELLS[rng.integers(len(self.CELLS))]
            n = cell.dim
            m = int(rng.integers(1, 4))
            model = AffineModel(rng.normal(size=(n, n)), rng.normal(size=(n, m)),
                                rng.normal(size=n), np.zeros(n))
            bounds = ModelDeviationBounds(*rng.uniform(0, 0.5, size=3))
            facet = int(rng.integers(cell.n_facets))
            j = int(rng.integers(cell.n_vertices))
            pattern = sign_patterns(m)[rng.integers(2**m)]
            box = np.tile([-5.0, 5.0], (m, 1))
            self.assert_same(vertex_constraint_system(cell, facet, j, model, box),
                             reference_rows(cell, facet, j, model))
            self.assert_same(
                robust_vertex_system(cell, facet, j, model, bounds, pattern, box),
                reference_rows(cell, facet, j, model, bounds, pattern, tighten=True))
            self.assert_same(
                expanded_vertex_system(cell, facet, j, model, bounds, pattern, box),
                reference_rows(cell, facet, j, model, bounds, pattern, tighten=False))


def as_system(rows, box):
    return LinearConstraintSystem([a for a, _, _ in rows], [b for _, b, _ in rows],
                                  [st for _, _, st in rows], box)


class TestOppositeRowIsRedundant:
    """A vertex off the exit facet leaves out the row of the opposite facet,
    exit_facet ^ 1, which the exit row implies. Against the systems that
    keep it (reference_rows with opposite=True), the nominal, robust and
    expanded systems must decide alike: the same status in both LP forms,
    the same screen decisions, and the same witness, to the bit, wherever
    the optimum with the row kept is the only candidate of its slack."""

    @staticmethod
    def samples(seed, count):
        """(old, new) system pairs: the nominal, robust and expanded systems
        of random vertices, exit facets, models, radii, sign patterns and
        control boxes on random 2-D and 3-D boxes."""
        rng = np.random.default_rng(seed)
        for _ in range(count):
            n, m = int(rng.integers(2, 4)), int(rng.integers(1, 4))
            A, B, c = rng.normal(size=(n, n)), rng.normal(size=(n, m)), rng.normal(size=n)
            low = rng.uniform(-5.0, 5.0, size=n)
            high = low + rng.uniform(0.1, 3.0, size=n)
            kind = rng.random()
            if kind < 0.15:
                B[:] = 0.0
            elif kind < 0.35:
                d = rng.integers(n)
                A[d], B[d], c[d] = 0.0, 0.0, 0.0
            elif kind < 0.6:
                # Dyadic models on integer boxes: every row is exact, so
                # ties between candidate vertices are exact too.
                A, B, c = (rng.integers(-4, 5, size=x.shape) / 4.0 for x in (A, B, c))
                low = rng.integers(-3, 3, size=n).astype(float)
                high = low + rng.integers(1, 3, size=n)
            cell = Polytope.box(low, high)
            model = AffineModel(A, B, c, np.zeros(n))
            bounds = (ModelDeviationBounds(0.0, 0.0, 0.0) if rng.random() < 0.2
                      else ModelDeviationBounds(*rng.uniform(0.0, 0.5, size=3)))
            facet, j = int(rng.integers(2 * n)), int(rng.integers(2 ** n))
            pattern = sign_patterns(m)[rng.integers(2 ** m)]
            lo = rng.uniform(-3.0, 0.0, size=m)
            box = np.column_stack([lo, lo + rng.uniform(0.5, 5.0, size=m)])
            yield (as_system(reference_rows(cell, facet, j, model, opposite=True), box),
                   vertex_constraint_system(cell, facet, j, model, box))
            for tighten, build in ((True, robust_vertex_system), (False, expanded_vertex_system)):
                old = reference_rows(cell, facet, j, model, bounds, pattern, tighten, opposite=True)
                yield (as_system(old, box), build(cell, facet, j, model, bounds, pattern, box))

    def test_decisions_match_the_systems_with_the_row(self):
        groups = {}
        for old, new in self.samples(30, 600):
            groups.setdefault((old.A.shape, new.A.shape), []).append((old, new))
        dropped = unique = 0
        for (old_shape, new_shape), pairs in groups.items():
            old, new = (SystemStack.of(list(systems)) for systems in zip(*pairs))
            dropped += len(pairs) * (old_shape[0] - new_shape[0])
            for got, want in zip(feasibility._screen(new), feasibility._screen(old)):
                assert np.array_equal(got, want, equal_nan=True)
            for balanced in (False, True):
                got, want = (decide_stacks([stack], [balanced])[0] for stack in (new, old))
                assert np.array_equal(got.status, want.status)
                feasible = want.status == FEASIBLE
                d, d_want = got.margin[feasible], want.margin[feasible]
                assert np.all(np.abs(d - d_want) <= 1e-12 * np.maximum(1.0, np.abs(d_want)))
                G, h = feasibility._slack_rows(old.A, old.b, old.strict, balanced)
                bitwise = feasible & reference_enumerate(G, h, old.box)[1]
                assert np.array_equal(got.witness[bitwise], want.witness[bitwise])
                unique += bitwise.sum()
        # Most pairs differ by the row, and many witnesses are compared bit
        # for bit.
        assert dropped > 900 and unique > 500


class TestPerturbedSystems:
    def test_pattern_count(self):
        assert len(sign_patterns(2)) == 4
        assert len(sign_patterns(3)) == 8

    def test_zero_bounds_reduce_to_nominal_plus_signs(self):
        zero = ModelDeviationBounds(0.0, 0.0, 0.0)
        model = single_integrator()
        nominal = vertex_constraint_system(UNIT_SQUARE, EXIT_RIGHT, 3, model, BOX)
        for pat in sign_patterns(2):
            robust = robust_vertex_system(
                UNIT_SQUARE, EXIT_RIGHT, 3, model, zero, pat, BOX
            )
            # The leading rows coincide with the nominal ones.
            r = len(nominal.b)
            assert np.allclose(robust.A[:r], nominal.A)
            assert np.allclose(robust.b[:r], nominal.b)
            assert np.array_equal(robust.strict[:r], nominal.strict)
            assert len(robust.b) == r + 2  # sign rows

    def test_robust_contained_in_nominal_contained_in_expanded(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            model = random_model(rng)
            bounds = ModelDeviationBounds(*rng.uniform(0, 0.5, size=3))
            j = rng.integers(0, 4)
            facet = rng.integers(0, 4)
            pat = sign_patterns(2)[rng.integers(0, 4)]
            nominal = vertex_constraint_system(UNIT_SQUARE, facet, j, model, BOX)
            robust = robust_vertex_system(UNIT_SQUARE, facet, j, model, bounds, pat, BOX)
            expanded = expanded_vertex_system(UNIT_SQUARE, facet, j, model, bounds, pat, BOX)
            for u in rng.uniform(-5, 5, size=(200, 2)):
                if rows_satisfied(robust, u):
                    assert rows_satisfied(nominal, u)
                nominal_and_signed = rows_satisfied(nominal, u) and all(
                    (u[k] > TOL_STRICT if pat[k] > 0 else u[k] <= 0.0)
                    for k in range(2)
                )
                if nominal_and_signed:
                    assert rows_satisfied(expanded, u)

    def test_expansion_recovers_borderline_case(self):
        # u1 > 4.5 is infeasible over [-4,4]^2; loosening by eps_c = 1 admits it.
        model = AffineModel(np.zeros((2, 2)), np.eye(2), [-4.5, 0.0], np.zeros(2))
        small = np.array([[-4.0, 4.0], [-4.0, 4.0]])
        nominal = vertex_constraint_system(UNIT_SQUARE, EXIT_RIGHT, 3, model, small)
        assert not decide_feasibility(nominal).feasible
        bounds = ModelDeviationBounds(0.0, 0.0, 1.0)
        feasible_patterns = [
            decide_feasibility(
                expanded_vertex_system(UNIT_SQUARE, EXIT_RIGHT, 3, model, bounds, pat, small)
            ).feasible
            for pat in sign_patterns(2)
        ]
        assert any(feasible_patterns)


class TestPredictExitFacet:
    def test_zero_bound_collapse(self):
        rng = np.random.default_rng(4)
        zero = ModelDeviationBounds(0.0, 0.0, 0.0)
        for _ in range(50):
            model = random_model(rng)
            for facet in range(4):
                pred = predict_exit_facet(UNIT_SQUARE, facet, model, zero, BOX)
                dec = decide_exit_facet(UNIT_SQUARE, facet, model, BOX)
                assert pred.status is not ReachStatus.UNCERTAIN
                assert pred.status is dec.status

    def test_huge_bounds_uncertain(self):
        huge = ModelDeviationBounds(100.0, 100.0, 100.0)
        model = single_integrator()
        for facet in range(4):
            assert predict_exit_facet(UNIT_SQUARE, facet, model, huge, BOX).status \
                is ReachStatus.UNCERTAIN

    def test_soundness_under_bounded_perturbation(self):
        rng = np.random.default_rng(5)
        trials = 0
        while trials < 100:
            model = random_model(rng)
            eps = rng.uniform(0.01, 0.5, size=3)
            bounds = ModelDeviationBounds(*eps)
            dA = rng.normal(size=(2, 2))
            dA *= rng.uniform(0, eps[0]) / max(np.linalg.norm(dA, ord=2), 1e-12)
            dB = rng.normal(size=(2, 2))
            dB *= rng.uniform(0, eps[1]) / max(np.linalg.norm(dB, ord=2), 1e-12)
            dc = rng.normal(size=2)
            dc *= rng.uniform(0, eps[2]) / max(np.linalg.norm(dc), 1e-12)
            perturbed = AffineModel(model.A + dA, model.B + dB, model.c + dc, model.center)
            facet = rng.integers(0, 4)
            pred = predict_exit_facet(UNIT_SQUARE, facet, model, bounds, BOX)
            if pred.status is ReachStatus.UNCERTAIN:
                continue
            true = decide_exit_facet(UNIT_SQUARE, facet, perturbed, BOX)
            assert pred.status is true.status
            trials += 1

    def test_monotonicity_in_bounds(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            model = random_model(rng)
            small = rng.uniform(0, 0.2, size=3)
            large = small + rng.uniform(0, 0.3, size=3)
            facet = rng.integers(0, 4)
            p_small = predict_exit_facet(
                UNIT_SQUARE, facet, model, ModelDeviationBounds(*small), BOX
            ).status
            p_large = predict_exit_facet(
                UNIT_SQUARE, facet, model, ModelDeviationBounds(*large), BOX
            ).status
            if p_large is ReachStatus.EXISTS:
                assert p_small is ReachStatus.EXISTS
            if p_large is ReachStatus.ABSENT:
                assert p_small is ReachStatus.ABSENT


def reference_decide(cell, facet, model, box):
    """The definitive decision as a walk over the vertices of one edge."""
    systems = [vertex_constraint_system(cell, facet, j, model, box)
               for j in range(cell.n_vertices)]
    balanced = balance_witnesses_batch(systems)
    if balanced is None:
        return ReachDecision(ReachStatus.ABSENT)
    witnesses = []
    for system, bal in zip(systems, balanced):
        if bal.feasible:
            witnesses.append(bal.witness)
            continue
        res = decide_feasibility(system)
        if not res.feasible:
            return ReachDecision(ReachStatus.ABSENT)
        witnesses.append(res.witness)
    return ReachDecision(ReachStatus.EXISTS, witnesses)


def first_feasible(systems):
    """The set rule at one vertex: the first of its pattern systems that the
    screen settles FEASIBLE, else the first that the LP decides FEASIBLE
    among those the screen leaves open; None when none is feasible."""
    screens = [screen_feasibility(sys) for sys in systems]
    for res in screens:
        if res is not None and res.feasible:
            return res
    for sys, res in zip(systems, screens):
        if res is None and (solved := decide_feasibility(sys)).feasible:
            return solved
    return None


def reference_predict(cell, facet, model, bounds, box, robust_failed=None):
    """The predictive decision of one edge as the set rule reads it, vertex
    by vertex: Exists iff every vertex has a feasible robust pattern,
    Absent iff some vertex has no feasible expanded pattern. The vertices
    with no feasible robust pattern are appended to robust_failed when
    given."""
    patterns = sign_patterns(model.B.shape[1])
    witnesses = []
    if robust_failed is None:
        robust_failed = []
    for j in range(cell.n_vertices):
        res = first_feasible([robust_vertex_system(cell, facet, j, model, bounds, pat, box)
                              for pat in patterns])
        if res is None:
            robust_failed.append(j)
        else:
            witnesses.append(res.witness)
    if not robust_failed:
        return ReachDecision(ReachStatus.EXISTS, witnesses)
    if bounds.eps_A == bounds.eps_B == bounds.eps_c == 0.0:
        return ReachDecision(ReachStatus.ABSENT)
    for j in robust_failed:
        if first_feasible([expanded_vertex_system(cell, facet, j, model, bounds, pat, box)
                           for pat in patterns]) is None:
            return ReachDecision(ReachStatus.ABSENT)
    return ReachDecision(ReachStatus.UNCERTAIN)


def assert_same_decision(got, want):
    assert got.status is want.status
    if want.witnesses is None:
        assert got.witnesses is None
    else:
        assert len(got.witnesses) == len(want.witnesses)
        for u, v in zip(got.witnesses, want.witnesses):
            assert np.array_equal(u, v)


@pytest.fixture
def chunk_sizes(monkeypatch):
    """The number of systems in each vertex enumeration, in call order."""
    sizes = []
    enumerate_vertices = feasibility._enumerate_vertices

    def recording(G, h, box):
        sizes.append(len(G))
        return enumerate_vertices(G, h, box)

    monkeypatch.setattr(feasibility, "_enumerate_vertices", recording)
    return sizes


class TestBatchedDecisions:
    """A batch of edges decides each edge exactly as the edge alone and as
    the one-edge reference rules do.

    Each batch holds its edges REPEATS times, so that some pass solves more
    than _CHUNK_BLOCKS systems of one shape, and every copy of an edge must
    come out the same."""

    REPEATS = 3

    CELLS = [UNIT_SQUARE, Polytope.box([2.0, -1.0], [3.0, 0.5]),
             Polytope.box([-1.0, 0.0, 0.5], [0.0, 1.0, 1.5])]

    def items(self, seed, count):
        rng = np.random.default_rng(seed)
        out = []
        for _ in range(count):
            cell = self.CELLS[rng.integers(len(self.CELLS))]
            n, m = cell.dim, int(rng.integers(1, 4))
            A, B = rng.normal(scale=0.5, size=(n, n)), rng.normal(size=(n, m))
            c = rng.normal(scale=2.0, size=n)
            kind = rng.random()
            if kind < 0.1:
                B[:] = 0.0
            elif kind < 0.3:
                # No flow at all along one axis: the invariance rows of its
                # facets hold only with equality, which the balanced LP
                # cannot certify, so the strict-slack LP decides them.
                d = rng.integers(n)
                A[d], B[d], c[d] = 0.0, 0.0, 0.0
            model = AffineModel(A, B, c, np.zeros(n))
            kind = rng.random()
            if kind < 0.2:
                bounds = ModelDeviationBounds(0.0, 0.0, 0.0)
            elif kind < 0.9:
                bounds = ModelDeviationBounds(*rng.uniform(0.0, 0.3, size=3))
            else:
                bounds = ModelDeviationBounds(*rng.uniform(1.0, 5.0, size=3))
            box = np.tile([-2.0, 2.0], (m, 1))
            out.append((cell, int(rng.integers(cell.n_facets)), model, bounds, box))
        return out

    def test_predictions_match_single_edges(self, chunk_sizes):
        items = self.items(20, 240)
        by_box = {}
        for item in items:
            by_box.setdefault(len(item[4]), []).append(item)
        statuses = set()
        for group in by_box.values():
            box = group[0][4]
            batch = predict_exit_facets([item[:4] for item in group] * self.REPEATS, box)
            assert len(batch) == len(group) * self.REPEATS
            for i, got in enumerate(batch):
                cell, facet, model, bounds, _ = group[i % len(group)]
                assert_same_decision(got, predict_exit_facet(cell, facet, model, bounds, box))
                assert_same_decision(got, reference_predict(cell, facet, model, bounds, box))
                statuses.add(got.status)
        assert statuses == set(ReachStatus)
        assert feasibility._CHUNK_BLOCKS in chunk_sizes

    def test_definitive_decisions_match_single_edges(self, chunk_sizes):
        items = self.items(21, 240)
        statuses = set()
        for m in (1, 2, 3):
            box = np.tile([-2.0, 2.0], (m, 1))
            group = [item[:3] for item in items if len(item[4]) == m]
            batch = decide_exit_facets(group * self.REPEATS, box)
            assert len(batch) == len(group) * self.REPEATS
            for i, got in enumerate(batch):
                cell, facet, model = group[i % len(group)]
                assert_same_decision(got, decide_exit_facet(cell, facet, model, box))
                assert_same_decision(got, reference_decide(cell, facet, model, box))
                statuses.add(got.status)
        assert statuses == {ReachStatus.EXISTS, ReachStatus.ABSENT}
        assert feasibility._CHUNK_BLOCKS in chunk_sizes

    def test_empty_batches(self):
        assert decide_exit_facets([], BOX) == []
        assert predict_exit_facets([], BOX) == []


class TestSolvedSystems:
    """The reach rules solve only the systems that the screen leaves open
    and a verdict may need, and build expanded systems only where the
    predictive rule may read them."""

    def test_empty_first_vertex_ends_the_definitive_walk(self, chunk_sizes):
        # No input at all, and a drift of -1 along the exit normal at the
        # vertices with x1 = 0: the exit row 0 > 1 of vertex 0 is empty
        # even relaxed, while vertices 2 and 3 drift outward.
        model = AffineModel(np.diag([2.0, 0.0]), np.zeros((2, 2)), [-1.0, 0.0], np.zeros(2))
        decision = decide_exit_facets([(UNIT_SQUARE, EXIT_RIGHT, model)], BOX)[0]
        assert decision.status is ReachStatus.ABSENT
        assert sum(chunk_sizes) == 1

    def test_prediction_solves_the_open_patterns_of_unsettled_vertices(self, monkeypatch):
        # The LP receives, in stack order, exactly the screen-open pattern
        # systems of the vertices where the screen settled no pattern
        # feasible: robust ones at every vertex, then expanded ones at the
        # robust-failed vertices of edges with a non-zero radius. Each
        # pattern stack takes at most one decide_stacks call.
        calls, solved = [], []
        decide, enumerate_vertices = reach.decide_stacks, feasibility._enumerate_vertices

        def counting(stacks, balanced):
            calls.append(len(stacks))
            return decide(stacks, balanced)

        def recording(G, h, box):
            solved.extend(G)
            return enumerate_vertices(G, h, box)

        monkeypatch.setattr(reach, "decide_stacks", counting)
        monkeypatch.setattr(feasibility, "_enumerate_vertices", recording)

        def open_patterns(systems):
            screens = [screen_feasibility(sys) for sys in systems]
            if any(res is not None and res.feasible for res in screens):
                return []
            return [sys for sys, res in zip(systems, screens) if res is None]

        items = TestBatchedDecisions().items(22, 120)
        by_box = {}
        for item in items:
            by_box.setdefault(len(item[4]), []).append(item)
        total = 0
        for group in by_box.values():
            box = group[0][4]
            patterns = sign_patterns(len(box))
            predict_exit_facets([item[:4] for item in group], box)
            dims = list(dict.fromkeys(cell.dim for cell, *_ in group))
            assert len(calls) <= 2 * len(dims)
            batched = list(solved)
            expected = []
            for n in dims:
                edges = [item for item in group if item[0].dim == n]
                failed = []
                for cell, facet, model, bounds, _ in edges:
                    for j in range(cell.n_vertices):
                        systems = [robust_vertex_system(cell, facet, j, model, bounds, pat, box)
                                   for pat in patterns]
                        expected += open_patterns(systems)
                        if first_feasible(systems) is None and (
                                bounds.eps_A, bounds.eps_B, bounds.eps_c) != (0.0, 0.0, 0.0):
                            failed.append((cell, facet, j, model, bounds))
                for cell, facet, j, model, bounds in failed:
                    expected += open_patterns([
                        expanded_vertex_system(cell, facet, j, model, bounds, pat, box)
                        for pat in patterns])
            assert len(batched) == len(expected)
            for G, sys in zip(batched, expected):
                assert np.array_equal(G, feasibility._slack_rows(sys.A, sys.b, sys.strict,
                                                                 False)[0])
            total += len(batched)
            calls.clear()
            solved.clear()
        assert total > 0

    def test_expanded_systems_are_built_only_at_robust_failures(self, monkeypatch):
        # Every robust system is screened once. Expanded systems are screened
        # once too, but only at the robust-failed vertices of edges with a
        # non-zero radius: elsewhere the expanded rule reads none.
        sizes = []
        screen = reach._screen

        def recording(stack):
            sizes.append(len(stack.b))
            return screen(stack)

        monkeypatch.setattr(reach, "_screen", recording)
        items = TestBatchedDecisions().items(23, 120)
        by_box = {}
        for item in items:
            by_box.setdefault(len(item[4]), []).append(item)
        expanded = 0
        for group in by_box.values():
            box = group[0][4]
            P = len(sign_patterns(len(box)))
            predict_exit_facets([item[:4] for item in group], box)
            screened_systems = sum(sizes)
            sizes.clear()
            vertices = failed = 0
            for cell, facet, model, bounds, _ in group:
                robust_failed = []
                reference_predict(cell, facet, model, bounds, box, robust_failed)
                vertices += cell.n_vertices
                if (bounds.eps_A, bounds.eps_B, bounds.eps_c) != (0.0, 0.0, 0.0):
                    failed += len(robust_failed)
            assert screened_systems == P * (vertices + failed)
            assert failed < vertices
            expanded += failed
        assert expanded > 0


class TestControllerSynthesis:
    def test_constant_witnesses_give_constant_law(self):
        u_star = np.array([0.7, -0.3])
        law = PiecewiseInterpolationLaw(UNIT_SQUARE, [u_star] * 4)
        rng = np.random.default_rng(5)
        for x in rng.uniform(0.0, 1.0, size=(50, 2)):
            assert np.allclose(law.input(x), u_star, atol=1e-12)

    def test_identity_interpolation(self):
        # Witnesses equal to vertex coordinates interpolate u = x.
        witnesses = [v.copy() for v in UNIT_SQUARE.vertices]
        law = PiecewiseInterpolationLaw(UNIT_SQUARE, witnesses)
        rng = np.random.default_rng(6)
        for x in rng.uniform(0.0, 1.0, size=(50, 2)):
            assert np.allclose(law.input(x), x, atol=1e-12)

    def test_vertex_reproduction(self):
        # On random boxes the law takes each witness at its vertex and the
        # barycentric blend of the containing simplex's witnesses inside.
        rng = np.random.default_rng(7)
        for _ in range(20):
            low = rng.uniform(-5.0, 5.0, size=2)
            cell = Polytope.box(low, low + rng.uniform(0.1, 3.0, size=2))
            witnesses = [rng.normal(size=2) for _ in range(4)]
            law = PiecewiseInterpolationLaw(cell, witnesses)
            for j, v in enumerate(cell.vertices):
                assert np.allclose(law.input(v), witnesses[j], atol=1e-9)
            x = rng.uniform(cell.low, cell.high)
            simplex = law.simplices[find_containing_simplex(cell, law.simplices, x)]
            lam = barycentric(cell, simplex, x)
            expected = sum(l * witnesses[j] for l, j in zip(lam, simplex.vertex_indices))
            assert np.allclose(law.input(x), expected, atol=1e-9)

    def test_piecewise_law_continuous_across_diagonal(self):
        rng = np.random.default_rng(8)
        witnesses = [rng.normal(size=2) for _ in range(4)]
        law = PiecewiseInterpolationLaw(UNIT_SQUARE, witnesses)
        for t in np.linspace(0.05, 0.95, 7):
            x = np.array([t, t])  # on the shared diagonal
            above = law.input(x + np.array([-1e-9, 1e-9]))
            below = law.input(x + np.array([1e-9, -1e-9]))
            assert np.allclose(above, below, atol=1e-6)

    def test_piecewise_law_matches_witnesses_at_all_vertices(self):
        rng = np.random.default_rng(9)
        witnesses = [rng.normal(size=2) for _ in range(4)]
        law = PiecewiseInterpolationLaw(UNIT_SQUARE, witnesses)
        for j, v in enumerate(UNIT_SQUARE.vertices):
            assert np.allclose(law.input(v), witnesses[j], atol=1e-9)


class TestT0Bound:
    def test_unit_speed_from_left_facet(self):
        model = single_integrator()
        witnesses = [np.array([1.0, 0.0])] * 4
        bound = t0_upper_bound(UNIT_SQUARE, EXIT_RIGHT, model, witnesses,
                               x0=np.array([0.0, 0.5]))
        assert bound == pytest.approx(1.0)

    def test_unit_speed_from_midpoint(self):
        model = single_integrator()
        witnesses = [np.array([1.0, 0.0])] * 4
        bound = t0_upper_bound(UNIT_SQUARE, EXIT_RIGHT, model, witnesses,
                               x0=np.array([0.5, 0.5]))
        assert bound == pytest.approx(0.5)

    def test_worst_case_alpha_without_entry_state(self):
        model = single_integrator()
        witnesses = [np.array([2.0, 0.0])] * 4
        bound = t0_upper_bound(UNIT_SQUARE, EXIT_RIGHT, model, witnesses)
        assert bound == pytest.approx(0.5)

    def test_nonpositive_flow_rejected(self):
        model = single_integrator()
        witnesses = [np.array([0.0, 0.0])] * 4
        with pytest.raises(UnboundedTransitError):
            t0_upper_bound(UNIT_SQUARE, EXIT_RIGHT, model, witnesses)

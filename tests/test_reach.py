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
)
from pwa_nav.geometry import (
    GridPartition,
    Polytope,
    find_containing_simplex,
    norm,
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
    t0_upper_bound,
    vertex_constraint_system,
)
from test_feasibility import reference_enumerate
from test_geometry import barycentric, reference_incidence

BOX = np.array([[-5.0, 5.0], [-5.0, 5.0]])
UNIT_SQUARE = Polytope.box([0.0, 0.0], [1.0, 1.0])
EXIT_RIGHT = 1  # facet x1 = 1 of the unit square


def sign_patterns(m):
    """Every sign pattern of m inputs, axis 0 the most significant, +1
    before -1: the order of the pattern systems of a vertex."""
    return list(itertools.product((1, -1), repeat=m))


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

    def test_empty_batches_reject(self):
        with pytest.raises(ValueError):
            decide_exit_facets([], self.BOX)
        with pytest.raises(ValueError):
            predict_exit_facets([], self.BOX)


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
                   opposite=False, sign_rows=False):
    """Row-by-row construction of a vertex system as (coeffs, rhs, strict)
    triples: the nominal system when bounds is None, else the robust
    (tighten=True) or expanded (tighten=False) system of one sign pattern.
    The rows are those of the exit facet and of the other facets containing
    the vertex, less the facet opposite the exit facet unless opposite.
    With sign_rows, the rows u_k > 0 (s_k > 0) or u_k <= 0 (s_k < 0) of
    the pattern follow: the sign-row rule, which the pattern's closed
    orthant (reference_orthant) replaces."""
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
    if sign_rows:
        m = model.B.shape[1]
        for k in range(m):
            e = np.zeros(m)
            e[k] = 1.0
            rows.append((e, 0.0, pattern[k] > 0))
    return rows


def reference_orthant(box, pattern):
    """The control box cut by the closed orthant of a sign pattern."""
    return np.array([[max(lo, 0.0), hi] if s > 0 else [lo, min(hi, 0.0)]
                     for (lo, hi), s in zip(box, pattern)])


class TestRowBuildersMatchReference:
    """The array builders do the reference's arithmetic row for row, so the
    systems must agree exactly."""

    CELLS = [UNIT_SQUARE, Polytope.box([2.0, -1.0], [5.0, 0.5]),
             Polytope.box([-1.0, 0.0, 0.5], [0.0, 2.0, 0.75])]

    @staticmethod
    def assert_same(sys, rows, box):
        assert np.array_equal(sys.A, np.array([a for a, _, _ in rows]))
        assert np.array_equal(sys.b, np.array([b for _, b, _ in rows]))
        assert np.array_equal(sys.strict, np.array([st for _, _, st in rows]))
        assert np.array_equal(sys.box, box)

    def test_random_models_bounds_patterns(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            cell = self.CELLS[rng.integers(len(self.CELLS))]
            n = cell.dim
            m = int(rng.integers(1, 4))
            model = AffineModel(rng.normal(size=(n, n)), rng.normal(size=(n, m)),
                                rng.normal(size=n), np.zeros(n))
            bounds = ModelDeviationBounds(*rng.uniform(0, 0.5, size=3))
            facet = int(rng.integers(2 * cell.dim))
            j = int(rng.integers(cell.n_vertices))
            pattern = sign_patterns(m)[rng.integers(2**m)]
            box = np.tile([-5.0, 5.0], (m, 1))
            orthant = reference_orthant(box, pattern)
            self.assert_same(vertex_constraint_system(cell, facet, j, model, box),
                             reference_rows(cell, facet, j, model), box)
            self.assert_same(
                robust_vertex_system(cell, facet, j, model, bounds, pattern, box),
                reference_rows(cell, facet, j, model, bounds, pattern, tighten=True), orthant)
            self.assert_same(
                expanded_vertex_system(cell, facet, j, model, bounds, pattern, box),
                reference_rows(cell, facet, j, model, bounds, pattern, tighten=False), orthant)

    def test_orthants_missing_the_box_reject(self):
        # [1, 2] x [-5, 5] misses every orthant with u_0 <= 0.
        box = np.array([[1.0, 2.0], [-5.0, 5.0]])
        bounds = ModelDeviationBounds(0.1, 0.1, 0.1)
        model = single_integrator()
        assert robust_vertex_system(UNIT_SQUARE, EXIT_RIGHT, 0, model, bounds, (1, -1),
                                    box).box.tolist() == [[1.0, 2.0], [-5.0, 0.0]]
        for build in (robust_vertex_system, expanded_vertex_system):
            with pytest.raises(ValueError):
                build(UNIT_SQUARE, EXIT_RIGHT, 0, model, bounds, (-1, 1), box)


def as_system(rows, box):
    return LinearConstraintSystem([a for a, _, _ in rows], [b for _, b, _ in rows],
                                  [st for _, _, st in rows], box)


class TestOppositeRowIsRedundant:
    """A vertex off the exit facet leaves out the row of the opposite facet,
    exit_facet ^ 1, which the exit row implies. Against the systems that
    keep it (reference_rows with opposite=True), the nominal, robust and
    expanded systems must decide alike: the same status in both LP forms,
    and the same witness, to the bit, wherever the optimum with the row
    kept is the only candidate of its slack."""

    @staticmethod
    def samples(seed, count):
        """(old, new) system pairs: the nominal, robust and expanded systems
        of random vertices, exit facets, models, radii, sign patterns and
        control boxes on random 2-D and 3-D boxes. A pattern whose orthant
        misses the control box has no system; it is turned negative on the
        axes where the box lies below 0."""
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
            pattern = tuple(-1 if hi < 0.0 else s for s, hi in zip(pattern, box[:, 1]))
            yield (as_system(reference_rows(cell, facet, j, model, opposite=True), box),
                   vertex_constraint_system(cell, facet, j, model, box))
            orthant = reference_orthant(box, pattern)
            for tighten, build in ((True, robust_vertex_system), (False, expanded_vertex_system)):
                old = reference_rows(cell, facet, j, model, bounds, pattern, tighten, opposite=True)
                yield (as_system(old, orthant), build(cell, facet, j, model, bounds, pattern, box))

    def test_decisions_match_the_systems_with_the_row(self):
        groups = {}
        for old, new in self.samples(30, 600):
            groups.setdefault((old.A.shape, new.A.shape), []).append((old, new))
        dropped = unique = 0
        for (old_shape, new_shape), pairs in groups.items():
            old, new = (SystemStack.of(list(systems)) for systems in zip(*pairs))
            dropped += len(pairs) * (old_shape[0] - new_shape[0])
            for balanced in (False, True):
                got, want = (decide_stacks(stack, balanced) for stack in (new, old))
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
        # A box that holds 0 inside meets all 2^m orthants.
        for m in (2, 3):
            stack = reach._perturbed_rows(np.ones((1, 2, m)), np.zeros((1, 2)), np.zeros(1),
                                          np.zeros(1), np.tile([-5.0, 5.0], (m, 1)), True)
            assert len(stack.b) == 2 ** m

    def test_zero_bounds_reduce_to_nominal_plus_signs(self):
        zero = ModelDeviationBounds(0.0, 0.0, 0.0)
        model = single_integrator()
        nominal = vertex_constraint_system(UNIT_SQUARE, EXIT_RIGHT, 3, model, BOX)
        for pat in sign_patterns(2):
            robust = robust_vertex_system(
                UNIT_SQUARE, EXIT_RIGHT, 3, model, zero, pat, BOX
            )
            # The rows are the nominal ones; the signs cut the box.
            assert np.allclose(robust.A, nominal.A)
            assert np.allclose(robust.b, nominal.b)
            assert np.array_equal(robust.strict, nominal.strict)
            assert np.array_equal(robust.box, reference_orthant(BOX, pat))

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
                # Within the pattern's orthant, ||u||_1 = s . u.
                if not np.all((u >= robust.box[:, 0]) & (u <= robust.box[:, 1])):
                    continue
                if rows_satisfied(robust, u):
                    assert rows_satisfied(nominal, u)
                if rows_satisfied(nominal, u):
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


def any_feasible(systems):
    """The set rule at one vertex: whether the LP finds some of its pattern
    systems feasible."""
    return any(decide_feasibility(sys).feasible for sys in systems)


def pattern_systems(build, cell, facet, j, model, bounds, box):
    """The systems that the view build (robust_vertex_system or
    expanded_vertex_system) gives vertex j under every sign pattern whose
    view does not raise, that is, whose orthant meets the box."""
    systems = []
    for pat in sign_patterns(len(box)):
        try:
            systems.append(build(cell, facet, j, model, bounds, pat, box))
        except ValueError:
            pass
    return systems


def reference_predict(cell, facet, model, bounds, box, robust_failed=None):
    """The predictive status of one edge as the set rule reads it, vertex
    by vertex, over the patterns of pattern_systems: Exists iff every
    vertex has a feasible robust pattern, Absent iff some vertex has no
    feasible expanded pattern. The vertices with no feasible robust pattern
    are appended to robust_failed when given."""
    if robust_failed is None:
        robust_failed = []
    for j in range(cell.n_vertices):
        if not any_feasible(pattern_systems(robust_vertex_system, cell, facet, j, model, bounds,
                                            box)):
            robust_failed.append(j)
    if not robust_failed:
        return ReachStatus.EXISTS
    if bounds.eps_A == bounds.eps_B == bounds.eps_c == 0.0:
        return ReachStatus.ABSENT
    for j in robust_failed:
        if not any_feasible(pattern_systems(expanded_vertex_system, cell, facet, j, model, bounds,
                                            box)):
            return ReachStatus.ABSENT
    return ReachStatus.UNCERTAIN


def sign_row_rule(cell, facet, model, bounds, box):
    """The predictive status of one edge under the sign-row rule: pattern s
    keeps the whole control box and adds the rows u_k > 0 (s_k > 0) and
    u_k <= 0 (s_k < 0), and every pattern system is decided by the exact
    LP."""
    patterns = sign_patterns(len(box))

    def feasible(j, tighten):
        stack = SystemStack.of([
            as_system(reference_rows(cell, facet, j, model, bounds, pat, tighten,
                                     sign_rows=True), box)
            for pat in patterns])
        return bool(np.any(decide_stacks(stack, False).status == FEASIBLE))

    failed = [j for j in range(cell.n_vertices) if not feasible(j, True)]
    if not failed:
        return ReachStatus.EXISTS
    if bounds.eps_A == bounds.eps_B == bounds.eps_c == 0.0 or not all(
            feasible(j, False) for j in failed):
        return ReachStatus.ABSENT
    return ReachStatus.UNCERTAIN


def assert_same_decision(got, want):
    assert got.status is want.status
    if want.witnesses is None:
        assert got.witnesses is None
    else:
        assert len(got.witnesses) == len(want.witnesses)
        for u, v in zip(got.witnesses, want.witnesses):
            assert np.array_equal(u, v)


@pytest.fixture
def kernel_sizes(monkeypatch):
    """The number of systems in each slack-LP kernel call, in call order."""
    sizes = []
    optima = feasibility._optima

    def recording(G, h, box):
        sizes.append(len(G))
        return optima(G, h, box)

    monkeypatch.setattr(feasibility, "_optima", recording)
    return sizes


def batches(items):
    """(cell, exit_facet, model, bounds, box) items grouped into the batches
    the reach rules take, one control-box dimension and one cell dimension
    each, in order of first appearance, with the box of each."""
    out = {}
    for item in items:
        out.setdefault((len(item[4]), item[0].dim), []).append(item)
    return [(group[0][4], group) for group in out.values()]


class TestBatchedDecisions:
    """A batch of edges decides each edge exactly as the edge alone and as
    the one-edge reference rules do.

    Each batch holds its edges REPEATS times, and every copy of an edge must
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
            out.append((cell, int(rng.integers(2 * cell.dim)), model, bounds, box))
        return out

    def test_predictions_match_single_edges(self):
        statuses = set()
        for box, group in batches(self.items(20, 240)):
            batch = predict_exit_facets([item[:4] for item in group] * self.REPEATS, box)
            assert len(batch) == len(group) * self.REPEATS
            for i, got in enumerate(batch):
                cell, facet, model, bounds, _ = group[i % len(group)]
                alone = predict_exit_facet(cell, facet, model, bounds, box)
                assert alone.status is got and alone.witnesses is None
                assert got is reference_predict(cell, facet, model, bounds, box)
                statuses.add(got)
        assert statuses == set(ReachStatus)

    def test_definitive_decisions_match_single_edges(self):
        statuses = set()
        for box, group in batches(self.items(21, 240)):
            group = [item[:3] for item in group]
            batch = decide_exit_facets(group * self.REPEATS, box)
            assert len(batch) == len(group) * self.REPEATS
            for i, got in enumerate(batch):
                cell, facet, model = group[i % len(group)]
                assert_same_decision(got, decide_exit_facet(cell, facet, model, box))
                assert_same_decision(got, reference_decide(cell, facet, model, box))
                statuses.add(got.status)
        assert statuses == {ReachStatus.EXISTS, ReachStatus.ABSENT}

    def test_empty_batches(self):
        assert decide_exit_facets([], BOX) == []
        assert predict_exit_facets([], BOX) == []

    def test_mixed_dimensions_rejected(self):
        cube = Polytope.box([0.0, 0.0, 0.0], [1.0, 1.0, 1.0])
        cube_model = AffineModel(np.zeros((3, 3)), np.eye(3, 2), np.zeros(3), np.zeros(3))
        items = [(UNIT_SQUARE, EXIT_RIGHT, single_integrator()), (cube, 1, cube_model)]
        with pytest.raises(ValueError):
            decide_exit_facets(items, BOX)
        bounds = ModelDeviationBounds(0.01, 0.01, 0.01)
        with pytest.raises(ValueError):
            predict_exit_facets([item + (bounds,) for item in items], BOX)


class TestOrthantsMatchSignRows:
    """Pattern s as the closed orthant of s cut from the control box decides
    every edge as the sign rows u_k > 0 (s_k > 0), u_k <= 0 (s_k < 0) over
    the whole box did: a sign-row solution lies in the orthant, and the
    closed orthants cover every input. Boxes that exclude 0 (some orthants
    miss them) and zero-width axes are among the draws, and m = 4 too."""

    CELLS = [Polytope.box([0.5], [1.5]), UNIT_SQUARE, Polytope.box([2.0, -1.0], [3.0, 0.5]),
             Polytope.box([-1.0, 0.0, 0.5], [0.0, 1.0, 1.5])]
    # Control-box axes: around 0, one-sided at 0, clear of 0 on either side,
    # and zero-width at or off 0.
    AXES = [(-2.0, 2.0), (-0.5, 3.0), (0.0, 2.0), (-2.0, 0.0), (0.3, 2.5), (-2.5, -0.4),
            (0.0, 0.0), (0.7, 0.7)]

    def batches(self, seed, count, size, ms):
        """count batches of size random edges, each batch one cell dimension
        and one control box with m drawn from ms."""
        rng = np.random.default_rng(seed)
        for _ in range(count):
            m = int(rng.choice(ms))
            dim = self.CELLS[rng.integers(len(self.CELLS))].dim
            cells = [c for c in self.CELLS if c.dim == dim]
            box = np.array([self.AXES[k] for k in rng.integers(len(self.AXES), size=m)])
            items = []
            for _ in range(size):
                cell = cells[rng.integers(len(cells))]
                n = cell.dim
                A, B = rng.normal(scale=0.5, size=(n, n)), rng.normal(size=(n, m))
                c = rng.normal(scale=2.0, size=n)
                kind = rng.random()
                if kind < 0.1:
                    B[:] = 0.0
                elif kind < 0.3:
                    # Dyadic models: rows and orthant corners are exact.
                    A, B, c = (rng.integers(-4, 5, size=x.shape) / 4.0 for x in (A, B, c))
                kind = rng.random()
                bounds = (ModelDeviationBounds(0.0, 0.0, 0.0) if kind < 0.2
                          else ModelDeviationBounds(*rng.uniform(0.0, 0.3, size=3)))
                items.append((cell, int(rng.integers(2 * cell.dim)),
                              AffineModel(A, B, c, np.zeros(n)), bounds))
            yield box, items

    def assert_same_statuses(self, batches):
        statuses = set()
        differ = []
        for box, items in batches:
            for item, got in zip(items, predict_exit_facets(items, box)):
                if got is not sign_row_rule(*item, box):
                    differ.append((item, box))
                statuses.add(got)
        assert differ == []
        return statuses

    def test_small_inputs(self):
        statuses = self.assert_same_statuses(self.batches(40, 24, 12, [1, 2, 3]))
        assert statuses == set(ReachStatus)

    def test_four_inputs(self):
        assert self.assert_same_statuses(self.batches(46, 2, 3, [4])) == set(ReachStatus)


class TestOneSidedBoxes:
    """Control boxes with axes on one side of 0, some of whose sides lie
    within 1e-9 of it: _perturbed_rows builds a system only for the
    orthants that meet the box, never an inverted orthant box, and the
    predictive rule reads the reference's statuses over the patterns whose
    views build a system."""

    NEAR_ZERO = [0.0, -0.0, 1e-12, 1e-10, 5e-10, 1e-9, 2e-9]
    CELLS = [UNIT_SQUARE, Polytope.box([-1.0, 0.0, 0.5], [0.0, 1.0, 1.5])]

    def box(self, rng, m):
        """A random box of m axes: one-sided, from a side near 0 or clear
        of it, zero-width, or around 0."""
        axes = []
        for _ in range(m):
            kind = rng.random()
            near = float(rng.choice(self.NEAR_ZERO)) if rng.random() < 0.6 else rng.uniform(0, 1)
            if kind < 0.4:
                axis = (near, near + rng.uniform(0.5, 3.0))
            elif kind < 0.8:
                axis = (-near - rng.uniform(0.5, 3.0), -near)
            elif kind < 0.9:
                axis = (near, near)
            else:
                axis = (-2.0, 2.0)
            axes.append(axis)
        return np.array(axes)

    def test_only_orthants_that_meet_the_box(self):
        rng = np.random.default_rng(51)
        dropped = 0
        for _ in range(300):
            m, K, r = int(rng.integers(1, 5)), int(rng.integers(1, 4)), int(rng.integers(1, 4))
            box = self.box(rng, m)
            stack = reach._perturbed_rows(rng.normal(size=(K, r, m)), rng.normal(size=(K, r)),
                                          rng.uniform(0, 0.3, size=K),
                                          rng.uniform(0, 0.3, size=K), box, bool(rng.integers(2)))
            assert np.all(stack.box[..., 0] <= stack.box[..., 1])
            # The half [max(lo, 0), hi] meets the box iff hi >= 0, and
            # [lo, min(hi, 0)] iff lo <= 0.
            P = int(np.prod((box[:, 1] >= 0.0).astype(int) + (box[:, 0] <= 0.0)))
            assert len(stack.b) == K * P
            dropped += P < 2 ** m
        assert dropped > 200

    def test_predictions_match_the_reference(self):
        rng = np.random.default_rng(52)
        statuses = set()
        for _ in range(30):
            m = int(rng.integers(1, 4))
            cell = self.CELLS[rng.integers(len(self.CELLS))]
            box = self.box(rng, m)
            items = []
            for _ in range(4):
                n = cell.dim
                model = AffineModel(rng.normal(scale=0.5, size=(n, n)), rng.normal(size=(n, m)),
                                    rng.normal(scale=2.0, size=n), np.zeros(n))
                bounds = (ModelDeviationBounds(0.0, 0.0, 0.0) if rng.random() < 0.2
                          else ModelDeviationBounds(*rng.uniform(0.0, 0.3, size=3)))
                items.append((cell, int(rng.integers(2 * n)), model, bounds))
            for item, got in zip(items, predict_exit_facets(items, box)):
                assert got is reference_predict(*item, box)
                statuses.add(got)
        assert statuses == set(ReachStatus)


class TestClosedFormSettling:
    """reach._settle decides a vertex in closed form only as the pattern
    path, _any_feasible over the vertex's full _perturbed_rows stack,
    decides it, and _some_feasible, which sends the vertices it leaves open
    down that path, agrees with it everywhere. The draws cover m = 1, 2, 3;
    boxes symmetric, asymmetric, one-sided, zero-width and missed by an
    orthant, some within 1e-9 of 0; signed zeros in the box, the rows,
    the radii and the shifts; coefficients a_k = +-eps_B, which make a
    pattern's row constant; and rows whose slack lies within a few ulps or
    a few _SETTLE_ROUNDING margins of TOL_STRICT (the exit row) or of the
    _FEAS_TOL band (an invariance row). Sides at +-_FEAS_TOL and the floats
    next to them sit at the exact orthant boundary like any other side
    near 0: the half they miss has no pattern system, in _settle and in
    _perturbed_rows alike, however close to 0 the side is."""

    FEAS_TOL_SIDES = [np.nextafter(feasibility._FEAS_TOL, 0.0), feasibility._FEAS_TOL,
                      np.nextafter(feasibility._FEAS_TOL, 1.0)]
    AXES = [(-2.0, 2.0), (-0.5, 3.0), (0.0, 2.0), (-2.0, 0.0), (-0.0, 1.5), (-1.5, -0.0),
            (0.3, 2.5), (-2.5, -0.4), (0.0, 0.0), (-0.0, 0.0), (-0.0, -0.0), (0.7, 0.7),
            (1e-10, 1.0), (-1.0, -1e-10), (2e-9, 1.0), (-1.0, -2e-9)]
    AXES += [(float(t), 1.0) for t in FEAS_TOL_SIDES] + [(-1.0, -float(t)) for t in FEAS_TOL_SIDES]

    @staticmethod
    def extremes(A0, eps_B, side, box):
        """Largest and least value (K, r) over the box of every row
        a . u + side eps_B ||u||_1: per axis a kinked line, so attained at
        lo, hi or 0 where the box holds it."""
        axes = [sorted({lo, hi} | ({0.0} if lo <= 0.0 <= hi else set())) for lo, hi in box]
        U = np.array(list(itertools.product(*axes)))
        values = A0 @ U.T + side[:, None] * eps_B[:, None, None] * np.abs(U).sum(axis=1)
        return values.max(axis=2), values.min(axis=2)

    def draw(self, rng, K, r, m, tighten):
        box = np.array([self.AXES[k] for k in rng.integers(len(self.AXES), size=m)])
        A0 = rng.normal(size=(K, r, m))
        dyadic = rng.random(K) < 0.3
        A0[dyadic] = rng.integers(-4, 5, size=(int(dyadic.sum()), r, m)) / 4.0
        zero = rng.random((K, r, m)) < 0.15
        A0[zero] = rng.choice([0.0, -0.0], size=int(zero.sum()))
        eps_B = rng.choice([0.0, -0.0, 0.25, 0.5], size=K)
        eps_B[rng.random(K) < 0.4] = rng.uniform(0.0, 0.3)
        shift = rng.choice([0.0, -0.0, 0.125], size=K)
        shift[rng.random(K) < 0.5] = rng.uniform(0.0, 0.3)
        rhs = rng.normal(scale=2.0, size=(K, r))
        side = reach._row_sides(r, tighten)
        top, bottom = self.extremes(A0, eps_B, side, box)
        size = (np.abs(A0) + np.abs(eps_B[:, None, None])).sum(axis=2) * 2.5 + np.abs(top)

        def offset(value, row):
            """Offsets from a threshold near value: a few ulps of it, or a
            few _SETTLE_ROUNDING margins of the row."""
            return (rng.choice([-4.0, -1.0, 0.0, 1.0, 4.0], size=len(value)) * np.spacing(value)
                    + rng.choice([-3.0, -1.0, 0.0, 1.0, 3.0], size=len(value))
                    * reach._SETTLE_ROUNDING * size[:, row])

        kind = rng.random(K)
        # The exit row at TOL_STRICT, every invariance row met everywhere.
        edge = kind < 0.3
        rhs[edge, 0] = top[edge, 0] - (TOL_STRICT + offset(np.abs(top[:, 0]), 0)[edge])
        rhs[edge, 1:] = top[edge, 1:] + 1.0
        # One invariance row at the _FEAS_TOL band of its widest pattern
        # coefficient, the exit row met everywhere.
        band = (kind >= 0.3) & (kind < 0.6) & (r > 1)
        widest = (np.abs(A0[band, -1]) + np.abs(eps_B[band, None])).max(axis=1)
        rhs[band, 0] = bottom[band, 0] - 1.0
        rhs[band, 1:] = top[band, 1:] + 1.0
        rhs[band, -1] = (bottom[band, -1] - feasibility._FEAS_TOL * widest
                         - offset(np.abs(bottom[:, -1]), -1)[band])
        b0 = rhs + side * shift[:, None]
        return A0, b0, shift, eps_B, box

    def test_settled_vertices_agree_with_the_pattern_path(self):
        rng = np.random.default_rng(31)
        settled = {FEASIBLE: 0, feasibility.INFEASIBLE: 0, feasibility.OPEN: 0}
        verdicts = set()
        for _ in range(90):
            m, r = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            tighten = bool(rng.integers(2))
            A0, b0, shift, eps_B, box = self.draw(rng, 60, r, m, tighten)
            status = reach._settle(A0, b0, shift, eps_B, box, tighten)
            want = reach._any_feasible(reach._perturbed_rows(A0, b0, shift, eps_B, box, tighten),
                                       len(A0))
            assert not np.any((status == FEASIBLE) & ~want)
            assert not np.any((status == feasibility.INFEASIBLE) & want)
            assert np.array_equal(reach._some_feasible(A0, b0, shift, eps_B, box, tighten), want)
            for key in settled:
                settled[key] += int(np.sum(status == key))
            left = status == feasibility.OPEN
            verdicts.update(zip(status[left], want[left]))
        assert min(settled.values()) > 100
        # The open vertices, at the thresholds, go either way.
        assert verdicts == {(feasibility.OPEN, True), (feasibility.OPEN, False)}


class TestSolvedSystems:
    """The reach rules solve only the systems a verdict may need: the
    pattern systems of the vertices the closed form leaves open, expanded
    ones only where the predictive rule may read them, and never an empty
    stack."""

    def test_empty_first_vertex_ends_the_definitive_walk(self, kernel_sizes):
        # No input at all, and a drift of -1 along the exit normal at the
        # vertices with x1 = 0: the exit row 0 > 1 of vertex 0 is empty
        # even relaxed, while vertices 2 and 3 drift outward. The walk
        # stops there, with no kernel call for the closed edge.
        model = AffineModel(np.diag([2.0, 0.0]), np.zeros((2, 2)), [-1.0, 0.0], np.zeros(2))
        decision = decide_exit_facets([(UNIT_SQUARE, EXIT_RIGHT, model)], BOX)[0]
        assert decision.status is ReachStatus.ABSENT
        assert kernel_sizes == [1]

    @staticmethod
    def closed_form(cell, facet, j, model, bounds, box, tighten):
        """reach._settle's status of one vertex, from its nominal system and
        its radii, as predict_exit_facets moves them."""
        nominal = vertex_constraint_system(cell, facet, j, model, box)
        shift = bounds.eps_A * float(norm(cell.vertices[j])) + bounds.eps_c
        return reach._settle(nominal.A[None], nominal.b[None], np.array([shift]),
                             np.array([bounds.eps_B]), box, tighten)[0]

    def test_prediction_solves_the_open_patterns_of_unsettled_vertices(self, monkeypatch):
        # The LP receives, in stack order, every pattern system of the
        # vertices that the closed form leaves open: robust ones first, then
        # expanded ones at the robust-failed vertices. Each pattern stack,
        # built only where some vertex is open, takes one strict-slack
        # decide_stacks call.
        calls, solved = [], []
        decide, optima = reach.decide_stacks, feasibility._optima

        def counting(stack, balanced):
            calls.append(balanced)
            return decide(stack, balanced)

        def recording(G, h, box):
            solved.extend(G)
            return optima(G, h, box)

        monkeypatch.setattr(reach, "decide_stacks", counting)
        monkeypatch.setattr(feasibility, "_optima", recording)
        total = 0
        for box, group in batches(TestBatchedDecisions().items(22, 120)):
            patterns = sign_patterns(len(box))
            predict_exit_facets([item[:4] for item in group], box)
            batched = list(solved)
            expected, opened = [], [0, 0]  # open robust and expanded vertices
            failed = []
            for cell, facet, model, bounds, _ in group:
                for j in range(cell.n_vertices):
                    status = self.closed_form(cell, facet, j, model, bounds, box, True)
                    if status == feasibility.OPEN:
                        opened[0] += 1
                        systems = [robust_vertex_system(cell, facet, j, model, bounds, pat, box)
                                   for pat in patterns]
                        expected += systems
                        if not any_feasible(systems):
                            failed.append((cell, facet, j, model, bounds))
                    elif status == feasibility.INFEASIBLE:
                        failed.append((cell, facet, j, model, bounds))
            for cell, facet, j, model, bounds in failed:
                if self.closed_form(cell, facet, j, model, bounds, box, False) == feasibility.OPEN:
                    opened[1] += 1
                    expected += [expanded_vertex_system(cell, facet, j, model, bounds, pat, box)
                                 for pat in patterns]
            assert calls == [False] * sum(n > 0 for n in opened)
            assert len(batched) == len(expected)
            for G, sys in zip(batched, expected):
                assert np.array_equal(G, feasibility._slack_rows(sys.A, sys.b, sys.strict,
                                                                 False)[0])
            total += len(batched)
            calls.clear()
            solved.clear()
        # A pattern stack for every vertex the rules read would solve 4,802
        # systems of these batches.
        assert total == 630

    def test_expanded_systems_are_built_only_at_robust_failures(self, monkeypatch):
        # Pattern stacks are built once, and only for the vertices the
        # closed form leaves open: robust ones among all vertices, expanded
        # ones among the robust-failed vertices.
        sizes = []
        perturbed_rows = reach._perturbed_rows

        def recording(*args):
            stack = perturbed_rows(*args)
            sizes.append(len(stack.b))
            return stack

        monkeypatch.setattr(reach, "_perturbed_rows", recording)
        counts = np.zeros(4, dtype=int)  # vertices, robust-failed, open robust, open expanded
        for box, group in batches(TestBatchedDecisions().items(23, 120)):
            P = len(sign_patterns(len(box)))
            sizes.clear()
            predict_exit_facets([item[:4] for item in group], box)
            built = sum(sizes)
            batch = np.zeros(4, dtype=int)
            for cell, facet, model, bounds, _ in group:
                robust_failed = []
                reference_predict(cell, facet, model, bounds, box, robust_failed)
                batch[0] += cell.n_vertices
                batch[1] += len(robust_failed)
                batch[2] += sum(self.closed_form(cell, facet, j, model, bounds, box, True)
                                == feasibility.OPEN for j in range(cell.n_vertices))
                batch[3] += sum(self.closed_form(cell, facet, j, model, bounds, box, False)
                                == feasibility.OPEN for j in robust_failed)
            assert built == P * (batch[2] + batch[3])
            assert batch[1] < batch[0]
            counts += batch
        # 43 of 612 robust vertices and 27 of 374 expanded ones stay open:
        # 430 pattern systems built, where building a stack for every
        # vertex the rules read built 4,596.
        assert counts.tolist() == [612, 374, 43, 27]

    def test_no_decide_stacks_call_gets_zero_systems(self, monkeypatch):
        # The definitive walk retries with the strict-slack LP only where
        # some balanced slack is not positive; prediction solves a pattern
        # stack only where some vertex is open.
        calls = []
        decide = reach.decide_stacks

        def recording(stack, balanced):
            calls.append((balanced, len(stack.b)))
            return decide(stack, balanced)

        monkeypatch.setattr(reach, "decide_stacks", recording)
        for box, group in batches(TestBatchedDecisions().items(24, 120)):
            decide_exit_facets([item[:3] for item in group], box)
            predict_exit_facets([item[:4] for item in group], box)
        assert min(size for _, size in calls) > 0
        # Both LP forms are reached.
        assert {balanced for balanced, _ in calls} == {False, True}


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

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import OptimizeResult, linprog

from pwa_nav import feasibility
from pwa_nav.feasibility import (
    DELTA_CAP,
    TOL_STRICT,
    LinearConstraintSystem,
    balance_witnesses_batch,
    decide_feasibility,
    decide_with_screen,
    screen_feasibility,
)

BOX_1D = np.array([[-5.0, 5.0]])
BOX_2D = np.array([[-5.0, 5.0], [-5.0, 5.0]])


SOLVER_TOL = 1e-9  # LP primal feasibility slack


def substitute(sys, u):
    """True iff u satisfies every row (strict rows with slack > TOL_STRICT),
    allowing the solver's own primal tolerance on non-strict rows."""
    for a, rhs, strict in zip(sys.A, sys.b, sys.strict):
        val = float(np.dot(a, u))
        if strict:
            if val - rhs <= TOL_STRICT - SOLVER_TOL:
                return False
        elif val > rhs + SOLVER_TOL:
            return False
    return bool(
        np.all(u >= sys.box[:, 0] - SOLVER_TOL)
        and np.all(u <= sys.box[:, 1] + SOLVER_TOL)
    )


def solve_balanced(sys):
    """The balanced LP of one system: its result, or None when the system is
    empty even with every row relaxed."""
    batch = balance_witnesses_batch([sys])
    return None if batch is None else batch[0]


class TestDecideFeasibility:
    def test_1d_interval(self):
        sys = LinearConstraintSystem([[1.0], [1.0]], [0.0, 5.0], [True, False], BOX_1D)
        res = decide_feasibility(sys)
        assert res.feasible
        assert res.margin >= 2.0
        assert substitute(sys, res.witness)

    def test_1d_empty_intersection(self):
        sys = LinearConstraintSystem([[1.0], [1.0]], [0.0, 0.0], [True, False], BOX_1D)
        assert not decide_feasibility(sys).feasible

    def test_2d_mixed(self):
        sys = LinearConstraintSystem(
            [[1.0, 1.0], [1.0, 0.0]], [1.0, 0.0], [True, False], BOX_2D)
        res = decide_feasibility(sys)
        assert res.feasible
        assert substitute(sys, res.witness)
        # Grid oracle: some point near (0, 5) satisfies the system.
        grid = np.arange(-5.0, 5.0 + 1e-12, 0.01)
        u1 = grid[grid <= 0.0]
        hit = np.any(u1[:, None] + grid[None, :] > 1.0 + TOL_STRICT)
        assert hit

    def test_no_strict_rows_reports_delta_cap(self):
        sys = LinearConstraintSystem([[1.0]], [3.0], [False], BOX_1D)
        res = decide_feasibility(sys)
        assert res.feasible and res.margin == DELTA_CAP

    def test_no_strict_rows_infeasible(self):
        sys = LinearConstraintSystem([[1.0]], [-10.0], [False], BOX_1D)
        assert not decide_feasibility(sys).feasible

    def test_empty_rows_feasible(self):
        res = decide_feasibility(LinearConstraintSystem(np.zeros((0, 2)), [], [], BOX_2D))
        assert res.feasible

    def test_determinism(self):
        sys = LinearConstraintSystem(
            [[1.0, -0.3], [0.5, 1.0]], [0.2, 2.0], [True, False], BOX_2D)
        a = decide_feasibility(sys)
        b = decide_feasibility(sys)
        assert np.array_equal(a.witness, b.witness) and a.margin == b.margin

    def test_monotonicity_adding_rows(self):
        base = decide_feasibility(LinearConstraintSystem([[1.0, 0.0]], [4.0], [True], BOX_2D))
        extended = decide_feasibility(LinearConstraintSystem(
            [[1.0, 0.0], [1.0, 0.0]], [4.0, 4.2], [True, False], BOX_2D))
        if not base.feasible:
            assert not extended.feasible

    @given(st.floats(min_value=0.01, max_value=100.0))
    @settings(max_examples=30, deadline=None)
    def test_row_scaling_invariance(self, scale):
        A = np.array([[1.0, -1.0], [0.3, 0.7]])
        rhs = np.array([0.5, 1.0])
        strict = [True, False]
        plain = decide_feasibility(LinearConstraintSystem(A, rhs, strict, BOX_2D))
        scaled = decide_feasibility(
            LinearConstraintSystem(scale * A, scale * rhs, strict, BOX_2D))
        assert plain.feasible == scaled.feasible

    def test_dim_from_box(self):
        sys = LinearConstraintSystem(np.zeros((0, 2)), [], [], BOX_2D)
        assert sys.dim == 2 and sys.A.shape == (0, 2)

    def test_malformed_row_rejected(self):
        # One column for a two-input box.
        with pytest.raises(ValueError):
            LinearConstraintSystem([[1.0]], [0.0], [True], BOX_2D)

    def test_one_dimensional_rows_not_reshaped(self):
        with pytest.raises(ValueError):
            LinearConstraintSystem([1.0, 0.0], [0.0], [True], BOX_2D)

    def test_mismatched_rhs_rejected(self):
        with pytest.raises(ValueError):
            LinearConstraintSystem([[1.0, 0.0]], [0.0, 1.0], [True], BOX_2D)

    def test_mismatched_strict_mask_rejected(self):
        with pytest.raises(ValueError):
            LinearConstraintSystem([[1.0, 0.0]], [0.0], [True, False], BOX_2D)

    def test_empty_box_rejected(self):
        with pytest.raises(ValueError):
            LinearConstraintSystem(np.zeros((0, 1)), [], [], np.array([[1.0, -1.0]]))


BOX_SMALL = np.array([[-1.0, 1.0], [-1.0, 1.0]])


def random_system(rng):
    # A small box keeps the step-1e-3 brute-force grid at 2001^2 points.
    m = 2
    n_rows = rng.integers(1, 13)
    A, b, strict = [], [], []
    for _ in range(n_rows):
        A.append(rng.uniform(-1, 1, size=m))
        b.append(rng.uniform(-1.5, 1.5))
        strict.append(rng.random() < 0.5)
    return LinearConstraintSystem(A, b, strict, BOX_SMALL)


def grid_points(box, step):
    """The grid of step `step` over box[0] in both coordinates, as two flat
    coordinate arrays."""
    grid = np.arange(box[0, 0], box[0, 1] + step / 2, step)
    U1, U2 = np.meshgrid(grid, grid, indexing="ij")
    return U1.ravel(), U2.ravel()


def grid_feasible(sys, points, slack):
    """True iff some grid point satisfies every row, strict rows by more than
    `slack`. Each row is evaluated only on the points that passed the rows
    before it."""
    u1, u2 = points
    for a, rhs, strict in zip(sys.A, sys.b, sys.strict):
        val = a[0] * u1 + a[1] * u2
        keep = val > rhs + slack if strict else val <= rhs
        u1, u2 = u1[keep], u2[keep]
        if not len(u1):
            return False
    return True


class TestBruteForceAgreement:
    def test_200_random_systems(self):
        # Directional oracle: a grid witness implies solver feasibility; solver
        # infeasibility implies no grid point clears twice the strict slack.
        rng = np.random.default_rng(20250823)
        points = grid_points(BOX_SMALL, step=1e-3)
        for _ in range(200):
            sys = random_system(rng)
            res = decide_feasibility(sys)
            if grid_feasible(sys, points, slack=TOL_STRICT):
                assert res.feasible
            if not res.feasible:
                assert not grid_feasible(sys, points, slack=2 * TOL_STRICT)
            if res.feasible:
                assert substitute(sys, res.witness)


class TestScreen:
    def test_screen_agrees_with_lp_on_random_systems(self):
        rng = np.random.default_rng(42)
        # Degenerate systems bring the constant and single-variable rows
        # that the screen folds into the box.
        systems = [random_system(rng) for _ in range(300)]
        systems += [degenerate_system(rng, m) for m in (1, 2, 3) for _ in range(200)]
        for sys in systems:
            screened = screen_feasibility(sys)
            if screened is not None:
                assert screened.feasible == decide_feasibility(sys).feasible
                if screened.feasible:
                    assert substitute(sys, screened.witness)

    def test_decide_with_screen_matches_decide(self):
        rng = np.random.default_rng(43)
        for _ in range(200):
            sys = random_system(rng)
            assert decide_with_screen(sys).feasible == decide_feasibility(sys).feasible


class TestBalanceWitness:
    def test_margin_on_every_row(self):
        sys = LinearConstraintSystem(
            [[1.0, 0.0], [0.0, 1.0]], [0.0, 2.0], [True, False], BOX_2D)
        res = solve_balanced(sys)
        assert res.feasible
        u = res.witness
        assert float(np.dot([1.0, 0.0], u)) >= res.margin - 1e-9
        assert float(np.dot([0.0, 1.0], u)) <= 2.0 - res.margin + 1e-9

    def test_balanced_witness_satisfies_original_rows(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            sys = random_system(rng)
            res = solve_balanced(sys)
            if res is not None and res.feasible:
                assert substitute(sys, res.witness)

    def test_never_upgrades_infeasible(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            sys = random_system(rng)
            if not decide_feasibility(sys).feasible:
                res = solve_balanced(sys)
                assert res is None or not res.feasible


# Reference slack LP: the same program handed to HiGHS as one linprog call.
_HIGHS_OPTIONS = {"primal_feasibility_tolerance": 1e-10,
                  "dual_feasibility_tolerance": 1e-10}


def highs_max_slack(sys, balanced):
    """Optimal slack d* of the strict-slack (balanced=False) or balanced LP
    by HiGHS, or None when its feasible set is empty."""
    a_ub, b_ub = [], []
    for a, rhs, strict in zip(sys.A.tolist(), sys.b.tolist(), sys.strict.tolist()):
        if strict:
            a_ub.append([-c for c in a] + [1.0])
            b_ub.append(-rhs)
        else:
            a_ub.append(a + [1.0 if balanced else 0.0])
            b_ub.append(rhs)
    c = np.zeros(sys.dim + 1)
    c[-1] = -1.0
    bounds = [tuple(lim) for lim in sys.box] + [(0.0, DELTA_CAP)]
    res = linprog(c, A_ub=np.array(a_ub) if a_ub else None,
                  b_ub=np.array(b_ub) if b_ub else None, bounds=bounds,
                  method="highs", options=_HIGHS_OPTIONS)
    return float(res.x[-1]) if res.status == 0 else None


def reference_verdict(sys, balanced):
    """(feasible, empty) as the slack-LP semantics define them via HiGHS."""
    d = highs_max_slack(sys, balanced)
    if d is None:
        return False, True
    carries_slack = len(sys.b) > 0 and (balanced or sys.strict.any())
    return (d > TOL_STRICT) or not carries_slack, False


def degenerate_system(rng, m):
    """Mixed strict/non-strict rows over [-1, 1]^m, most of them satisfied at
    one random point, with zero coefficients, zero rows, rows on the
    hyperplane of the previous row (touching or contradicting it) and a flat
    box axis mixed in at random."""
    box = np.tile([-1.0, 1.0], (m, 1))
    if rng.random() < 0.2:
        box[rng.integers(m)] = rng.uniform(-0.5, 0.5)
    point = rng.uniform(box[:, 0], box[:, 1])
    A, b, stricts = [], [], []
    for _ in range(int(rng.integers(0, 9))):
        strict = rng.random() < 0.5
        coeffs = rng.uniform(-1, 1, size=m)
        kind = rng.random()
        if kind < 0.1:
            coeffs[:] = 0.0
        elif kind < 0.3:
            coeffs[rng.integers(m)] = 0.0
        if kind >= 0.7 and A:
            scale = rng.choice([-1.0, 0.5, 2.0])  # exact in binary
            coeffs = scale * A[-1]
            rhs = scale * b[-1]
        elif rng.random() < 0.7:
            gap = abs(rng.normal(scale=0.3))
            rhs = coeffs @ point + (-gap if strict else gap)
        else:
            rhs = rng.uniform(-1.5, 1.5)
        A.append(coeffs)
        b.append(rhs)
        stricts.append(strict)
    return LinearConstraintSystem(np.reshape(A, (-1, m)), b, stricts, box)


class TestHighsOracle:
    """Vertex enumeration (m <= 3) against one HiGHS linprog per system."""

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_verdicts_match_highs(self, m):
        rng = np.random.default_rng(700 + m)
        systems = [degenerate_system(rng, m) for _ in range(150)]
        systems += [LinearConstraintSystem(np.zeros((0, m)), [], [],
                                           np.tile([-1.0, 1.0], (m, 1)))]
        if m == 2:
            systems += [random_system(rng) for _ in range(100)]
        disagreements = 0
        for sys in systems:
            res = decide_feasibility(sys)
            disagreements += res.feasible != reference_verdict(sys, False)[0]
            if res.feasible:
                assert substitute(sys, res.witness)
            res = solve_balanced(sys)
            feasible, empty = reference_verdict(sys, True)
            disagreements += (res is None) != empty
            disagreements += (res is not None and res.feasible) != feasible
            if res is not None and res.feasible:
                assert substitute(sys, res.witness)
        assert disagreements == 0

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_batches_match_highs(self, m):
        rng = np.random.default_rng(710 + m)
        for _ in range(60):
            systems = [degenerate_system(rng, m) for _ in range(4)]
            batch = balance_witnesses_batch(systems)
            verdicts = [reference_verdict(sys, True) for sys in systems]
            if any(empty for _, empty in verdicts):
                assert batch is None
                continue
            assert batch is not None
            for sys, res, (feasible, _) in zip(systems, batch, verdicts):
                assert res.feasible == feasible
                if res.feasible:
                    assert substitute(sys, res.witness)

    def test_empty_enumeration_certifies_emptiness(self):
        # u >= 0.7 and u <= 0.2 meet nowhere, even with every row relaxed.
        sys = LinearConstraintSystem([[1.0], [1.0]], [0.7, 0.2], [True, False], BOX_1D)
        assert decide_feasibility(sys).margin == 0.0
        assert balance_witnesses_batch([sys]) is None


BOX_4D = np.tile([-1.0, 1.0], (4, 1))


class TestHighsPath:
    """Four or more control inputs still go through HiGHS."""

    @pytest.fixture
    def lp_calls(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return linprog(*args, **kwargs)

        monkeypatch.setattr(feasibility, "linprog", counting)
        return calls

    def test_m4_both_forms(self, lp_calls):
        rng = np.random.default_rng(740)
        for _ in range(30):
            sys = degenerate_system(rng, 4)
            res = decide_feasibility(sys)
            assert res.feasible == reference_verdict(sys, False)[0]
            if res.feasible:
                assert substitute(sys, res.witness)
            res = solve_balanced(sys)
            assert (res is not None and res.feasible) == reference_verdict(sys, True)[0]
            if res is not None and res.feasible:
                assert substitute(sys, res.witness)
        assert len(lp_calls) == 60

    def test_m4_known_systems(self, lp_calls):
        sys = LinearConstraintSystem([[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0]],
                                     [1.0, -1.5], [True, False], BOX_4D)
        plain = decide_feasibility(sys)
        assert plain.feasible and plain.margin == pytest.approx(1.0)
        res = solve_balanced(sys)
        assert res.feasible and res.margin == pytest.approx(0.5)
        empty = LinearConstraintSystem([[1.0, 0.0, 0.0, 0.0]], [-2.0], [False], BOX_4D)
        assert decide_feasibility(empty).margin == 0.0
        assert solve_balanced(empty) is None
        assert len(lp_calls) == 4

    def test_mixed_batch_matches_single_solves(self, lp_calls):
        rng = np.random.default_rng(750)
        systems = [degenerate_system(rng, m) for m in (2, 4, 3, 4, 1)]
        systems = [s for s in systems if reference_verdict(s, True)[1] is False]
        batch = balance_witnesses_batch(systems)
        assert batch is not None and len(lp_calls) == 1
        for sys, res in zip(systems, batch):
            assert res.feasible == solve_balanced(sys).feasible

    def test_small_systems_skip_highs(self, lp_calls):
        rng = np.random.default_rng(760)
        for m in (1, 2, 3):
            sys = degenerate_system(rng, m)
            decide_feasibility(sys)
            balance_witnesses_batch([sys, sys])
        assert lp_calls == []


class TestSolverFailure:
    """A HiGHS failure other than infeasibility must never certify an empty
    system, since that would report a reach edge Absent."""

    @pytest.fixture(autouse=True)
    def failing_highs(self, monkeypatch):
        def numerical_difficulties(*args, **kwargs):
            return OptimizeResult(status=4, success=False, x=None,
                                  message="numerical difficulties")

        monkeypatch.setattr(feasibility, "linprog", numerical_difficulties)

    def test_decide_feasibility_raises(self):
        sys = LinearConstraintSystem([[1.0, 1.0, 0.0, 0.0]], [1.0], [True], BOX_4D)
        with pytest.raises(RuntimeError, match="status 4"):
            decide_feasibility(sys)

    def test_balance_batch_raises(self):
        sys = LinearConstraintSystem([[1.0, 1.0, 0.0, 0.0]], [1.0], [True], BOX_4D)
        with pytest.raises(RuntimeError, match="status 4"):
            balance_witnesses_batch([sys])

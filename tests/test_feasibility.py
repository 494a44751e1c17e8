import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import OptimizeResult, linprog

from pwa_nav import feasibility
from pwa_nav.feasibility import (
    DELTA_CAP,
    EMPTY,
    FEASIBLE,
    INFEASIBLE,
    OPEN,
    FeasibilityResult,
    TOL_STRICT,
    LinearConstraintSystem,
    SystemStack,
    balance_witnesses_batch,
    decide_feasibility,
    decide_stacks,
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


def reference_screen(sys):
    """The interval screen as a scalar walk over the rows, stopping at the
    first conclusive row: single-variable rows folded into the box, then
    interval bounds over the folded box, then the folded-box center."""
    lo = sys.box[:, 0].tolist()
    hi = sys.box[:, 1].tolist()
    rows = list(zip(sys.A.tolist(), sys.b.tolist(), sys.strict.tolist()))
    general = []
    for a, rhs, strict in rows:
        nz = [k for k, c in enumerate(a) if c != 0.0]
        if not nz:
            # The LP accepts 0 <= rhs up to feasibility._FEAS_TOL.
            if (0.0 <= rhs + TOL_STRICT) if strict else (rhs < -feasibility._FEAS_TOL):
                return FeasibilityResult(False, None, 0.0)
            continue
        if len(nz) == 1:
            k = nz[0]
            bound = rhs / a[k]
            if strict == (a[k] > 0):
                lo[k] = max(lo[k], bound)
            else:
                hi[k] = min(hi[k], bound)
        general.append((a, rhs, strict))
    # The LP lets a vertex pass a box side or a single-variable row by up
    # to feasibility._FEAS_TOL.
    if any(l - h > feasibility._FEAS_TOL + feasibility._SCREEN_ROUNDING * (abs(l) + abs(h))
           for l, h in zip(lo, hi)):
        return FeasibilityResult(False, None, 0.0)
    for a, rhs, strict in general:
        # Each threshold is missed by more than the rounding margin the LP
        # may need (feasibility._SCREEN_ROUNDING): a strict row's largest
        # slack against TOL_STRICT, a non-strict row's least violation
        # against the feasibility._FEAS_TOL times its largest coefficient
        # that the LP tolerates.
        size = sum(max(abs(c * l), abs(c * h)) for c, l, h in zip(a, lo, hi)) + abs(rhs)
        rounding = feasibility._SCREEN_ROUNDING * size
        if strict:
            reach = sum(max(c * l, c * h) for c, l, h in zip(a, lo, hi))
            if reach - rhs <= TOL_STRICT - rounding:
                return FeasibilityResult(False, None, 0.0)
        else:
            reach = sum(min(c * l, c * h) for c, l, h in zip(a, lo, hi))
            if reach - rhs > feasibility._FEAS_TOL * max(abs(c) for c in a) + rounding:
                return FeasibilityResult(False, None, 0.0)
    if any(l > h for l, h in zip(lo, hi)):
        return None  # inverted by less than the LP tolerates
    center = [0.5 * (l + h) for l, h in zip(lo, hi)]
    margin = DELTA_CAP
    for a, rhs, strict in rows:
        val = sum(c * x for c, x in zip(a, center))
        if strict:
            slack = val - rhs
            if slack <= TOL_STRICT:
                return None
            margin = min(margin, slack)
        elif val > rhs:
            return None
    return FeasibilityResult(True, np.array(center), margin)


def screened_decision(sys):
    """Screen first, exact LP on the inconclusive remainder, one system at a
    time."""
    out = reference_screen(sys)
    return decide_feasibility(sys) if out is None else out


def screened_stack(stack):
    """The Decisions of a stack as the screen settles them, with the exact
    LP deciding the systems it leaves OPEN."""
    decisions = feasibility._screen(stack)
    rest = np.flatnonzero(decisions.status == OPEN)
    for field, values in zip(decisions, decide_stacks([stack.take(rest)], [False])[0]):
        field[rest] = values
    return decisions


def assert_same_result(res, ref):
    """Same verdict, bitwise-equal witness and equal margin."""
    assert res.feasible == ref.feasible
    assert res.margin == ref.margin
    if ref.witness is None:
        assert res.witness is None
    else:
        assert np.array_equal(res.witness, ref.witness)


def screen_systems(seed):
    """The random m = 2 systems and the degenerate m = 1, 2, 3 systems the
    screen is checked on."""
    rng = np.random.default_rng(seed)
    # Degenerate systems bring the constant and single-variable rows that
    # the screen folds into the box.
    systems = [random_system(rng) for _ in range(300)]
    systems += [degenerate_system(rng, m) for m in (1, 2, 3) for _ in range(200)]
    return systems


def by_shape(systems):
    groups = {}
    for sys in systems:
        groups.setdefault(sys.A.shape, []).append(sys)
    return list(groups.values())


class TestScreen:
    def test_screen_agrees_with_lp_on_random_systems(self):
        for sys in screen_systems(42):
            screened = screen_feasibility(sys)
            if screened is not None:
                assert screened.feasible == decide_feasibility(sys).feasible
                if screened.feasible:
                    assert substitute(sys, screened.witness)

    def test_screen_matches_row_walk(self):
        conclusive = 0
        for sys in screen_systems(42):
            screened, ref = screen_feasibility(sys), reference_screen(sys)
            assert (screened is None) == (ref is None)
            if ref is not None:
                assert_same_result(screened, ref)
                conclusive += 1
        assert conclusive > 600

    def test_stacked_screen_matches_row_walk(self):
        # Whole same-shape stacks in one pass: each system must come out as
        # the row walk, or the LP where the walk is inconclusive, decides it.
        for group in by_shape(screen_systems(44)):
            decisions = screened_stack(SystemStack.of(group))
            for i, sys in enumerate(group):
                assert_same_result(decisions.result(i), screened_decision(sys))

    def test_screened_stack_matches_decide(self):
        rng = np.random.default_rng(43)
        systems = [random_system(rng) for _ in range(200)]
        for group in by_shape(systems):
            decisions = screened_stack(SystemStack.of(group))
            for i, sys in enumerate(group):
                assert (decisions.status[i] == FEASIBLE) == decide_feasibility(sys).feasible

    @pytest.mark.parametrize("rhs, feasible", [
        (-5e-8, False), (0.0, False), (-0.999 * TOL_STRICT, False), (-2e-7, True)])
    @pytest.mark.parametrize("box", [BOX_1D, BOX_2D])
    def test_constant_strict_row_threshold(self, rhs, feasible, box):
        # 0 . u > rhs holds with slack -rhs, which must exceed TOL_STRICT; a
        # right-hand side in (-TOL_STRICT, 0] is a conclusive infeasibility.
        m = len(box)
        sys = LinearConstraintSystem(np.zeros((1, m)), [rhs], [True], box)
        screened = screen_feasibility(sys)
        assert screened is not None
        assert screened.feasible is feasible
        assert decide_feasibility(sys).feasible is feasible
        res = screened_stack(SystemStack.of([sys])).result(0)
        assert res.feasible is feasible

    @pytest.mark.parametrize("a, rhs, strict, settled", [
        # 0 > rhs + TOL_STRICT fails at equality: settled infeasible.
        ([0.0, 0.0], -TOL_STRICT, True, True),
        # The largest slack 2 - rhs of u1 + u2 > rhs is 1.0000000005838672e-07,
        # above TOL_STRICT as the LP finds it: settled nothing.
        ([1.0, 1.0], 2.0 - TOL_STRICT, True, False),
        # Lower reach -2 equals rhs, which settles nothing.
        ([1.0, 1.0], -2.0, False, False),
        # The center's slack equals TOL_STRICT, which settles nothing.
        ([1.0, 1.0], -TOL_STRICT, True, False),
        # The center lies on a non-strict row: settled feasible.
        ([1.0, 1.0], 0.0, False, True),
        # A largest slack below TOL_STRICT: settled infeasible.
        ([1.0, 1.0], 2.0 - 0.999 * TOL_STRICT, True, True),
    ])
    def test_thresholds_match_row_walk(self, a, rhs, strict, settled):
        box = np.tile([-1.0, 1.0], (2, 1))
        sys = LinearConstraintSystem([a], [rhs], [strict], box)
        ref = reference_screen(sys)
        assert (ref is not None) is settled
        screened = screen_feasibility(sys)
        assert (screened is None) == (ref is None)
        if ref is not None:
            assert_same_result(screened, ref)


def ulps_around(x: float, k: int) -> list[float]:
    """x and the k floats on either side of it."""
    out = [x]
    up = down = x
    for _ in range(k):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        out += [up, down]
    return out


class TestScreenThreshold:
    """Strict rows whose largest slack over the box lies within a few ulps of
    TOL_STRICT: the screen may settle them only as the LP decides them."""

    ROWS = [
        ([1.0, 1.0], [[-1.0, 1.0], [-1.0, 1.0]]),
        ([0.3, 0.7], [[-1.0, 1.0], [-1.0, 1.0]]),
        ([1.0, -2.5], [[-2.0, 3.0], [-1.0, 1.0]]),
        ([0.1, 0.2, 0.3], [[-1.0, 1.0]] * 3),
        ([3.7], [[-5.0, 5.0]]),
    ]

    @staticmethod
    def random_rows(seed, count):
        rng = np.random.default_rng(seed)
        out = []
        for _ in range(count):
            m = int(rng.integers(1, 4))
            lo = rng.uniform(-5.0, 0.0, size=m)
            out.append((rng.normal(size=m) * 10 ** rng.uniform(-2, 2),
                        np.column_stack([lo, lo + rng.uniform(0.1, 10.0, size=m)])))
        return out

    @pytest.mark.parametrize("loose_row", [False, True])
    def test_screened_and_unscreened_agree(self, loose_row):
        rows = [(np.array(a), np.array(box)) for a, box in self.ROWS] + self.random_rows(45, 200)
        for a, box in rows:
            reach_hi = 0.0
            for c, (l, h) in zip(a, box):
                reach_hi = reach_hi + max(c * l, c * h)
            A, strict = [a], [True]
            if loose_row:
                # A non-strict row that holds over the whole box.
                A, strict = [a, np.ones_like(a)], [True, False]
            systems = []
            for rhs in ulps_around(reach_hi - TOL_STRICT, 4):
                b = [rhs, 100.0][:len(A)]
                systems.append(LinearConstraintSystem(A, b, strict, box))
            stack = SystemStack.of(systems)
            screened = screened_stack(stack).status == FEASIBLE
            plain = decide_stacks([stack], [False])[0].status == FEASIBLE
            assert screened.tolist() == plain.tolist()


class TestNonStrictThreshold:
    """Non-strict rows whose least value over the box lies within a few
    _FEAS_TOL of the right-hand side, two single-variable rows that leave
    an interval about that short, and constant rows 0 <= rhs with rhs just
    below 0: the LP accepts a vertex that violates a non-strict row or a
    box side by up to _FEAS_TOL times the largest coefficient, so the
    screen may settle them infeasible only where the LP does."""

    ROWS = [
        ([1.0, 1.0], [[-1.0, 1.0], [-1.0, 1.0]]),
        ([0.3, 0.7], [[-1.0, 1.0], [-1.0, 1.0]]),
        ([1.0, -2.5], [[-2.0, 3.0], [-1.0, 1.0]]),
        ([-4.0, 0.5], [[-1.0, 2.0], [0.0, 1.0]]),
        ([0.1, 0.2, 0.3], [[-1.0, 1.0]] * 3),
        # Single-variable rows, which the screen folds into the box.
        ([3.7], [[-5.0, 5.0]]),
        ([0.0, -2.0], [[-1.0, 1.0], [-0.5, 2.0]]),
    ]
    # Violations of the least row value, in units of _FEAS_TOL * max |a_i|.
    VIOLATIONS = [0.0, 1e-6, 1e-3, 0.1, 0.5, 0.9, 0.999, 1.01, 2.0, 10.0]

    @staticmethod
    def random_rows(seed, count):
        rng = np.random.default_rng(seed)
        out = []
        for _ in range(count):
            m = int(rng.integers(2, 4))
            lo = rng.uniform(-5.0, 0.0, size=m)
            a = rng.choice([-1.0, 1.0], size=m) * rng.uniform(0.1, 1.0, size=m)
            out.append((a * 10 ** rng.uniform(-2, 2),
                        np.column_stack([lo, lo + rng.uniform(0.1, 10.0, size=m)])))
        return out

    def systems(self):
        rows = [(np.array(a), np.array(box)) for a, box in self.ROWS] + self.random_rows(46, 20)
        out = []
        for a, box in rows:
            reach_lo = 0.0
            for c, (l, h) in zip(a, box):
                reach_lo = reach_lo + min(c * l, c * h)
            for v in self.VIOLATIONS:
                rhs = reach_lo - v * feasibility._FEAS_TOL * np.abs(a).max()
                out.append(LinearConstraintSystem([a], [rhs], [False], box))
        for v in self.VIOLATIONS:
            # u1 <= 0.3 and u1 >= 0.3 + v * _FEAS_TOL.
            out.append(LinearConstraintSystem(
                [[1.0, 0.0], [-1.0, 0.0]], [0.3, -0.3 - v * feasibility._FEAS_TOL],
                [False, False], BOX_SMALL))
        for rhs in np.linspace(-3 * feasibility._FEAS_TOL, 0.0, 30):
            out.append(LinearConstraintSystem(np.zeros((1, 2)), [rhs], [False], BOX_SMALL))
        return out

    def test_screened_and_unscreened_agree(self):
        systems = self.systems()
        assert len(systems) == 310
        settled_infeasible = lp_feasible = 0
        for group in by_shape(systems):
            stack = SystemStack.of(group)
            screen = feasibility._screen(stack).status
            screened = screened_stack(stack).status == FEASIBLE
            plain = decide_stacks([stack], [False])[0].status == FEASIBLE
            assert screened.tolist() == plain.tolist()
            settled_infeasible += int(np.sum(screen == INFEASIBLE))
            lp_feasible += int(plain.sum())
        # Both sides of the threshold are exercised.
        assert settled_infeasible > 50 and lp_feasible > 100


class TestStackedCore:
    """decide_stacks over stacks longer than one chunk against one system at
    a time."""

    @staticmethod
    def fixed_shape_systems(rng, m, rows, count):
        out = []
        while len(out) < count:
            sys = degenerate_system(rng, m)
            if len(sys.b) >= rows:
                out.append(LinearConstraintSystem(sys.A[:rows], sys.b[:rows],
                                                  sys.strict[:rows], sys.box))
        return out

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_chunked_stacks_match_single_systems(self, m):
        rng = np.random.default_rng(770 + m)
        stacks = [self.fixed_shape_systems(rng, m, rows, 150) for rows in (2, 4)]
        assert len(stacks[0]) > 2 * feasibility._CHUNK_BLOCKS
        plain = decide_stacks([SystemStack.of(s) for s in stacks], [False, False])
        balanced = decide_stacks([SystemStack.of(s) for s in stacks], [True, True])
        screened = [screened_stack(SystemStack.of(s)) for s in stacks]
        for i, systems in enumerate(stacks):
            for t, sys in enumerate(systems):
                assert_same_result(plain[i].result(t), decide_feasibility(sys))
                alone = balance_witnesses_batch([sys])
                assert (balanced[i].status[t] == EMPTY) == (alone is None)
                if alone is not None:
                    assert_same_result(balanced[i].result(t), alone[0])
                assert_same_result(screened[i].result(t), screened_decision(sys))

    @pytest.fixture
    def lp_calls(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return linprog(*args, **kwargs)

        monkeypatch.setattr(feasibility, "linprog", counting)
        return calls

    def test_large_stacks_share_one_highs_call(self, lp_calls):
        rng = np.random.default_rng(780)
        stacks = [[sys for sys in self.fixed_shape_systems(rng, 4, rows, 12)
                   if not reference_verdict(sys, False)[1]] for rows in (1, 3)]
        results = decide_stacks([SystemStack.of(s) for s in stacks], [False, False])
        assert len(lp_calls) == 1
        for systems, decisions in zip(stacks, results):
            for sys, status in zip(systems, decisions.status):
                assert (status == FEASIBLE) == reference_verdict(sys, False)[0]

    def test_empty_block_leaves_the_others_decided(self, lp_calls):
        # One HiGHS LP over every block is infeasible as soon as one block
        # is; each block must still get its own verdict.
        empty = LinearConstraintSystem([[1.0, 0.0, 0.0, 0.0]], [-2.0], [False], BOX_4D)
        feasible = LinearConstraintSystem([[1.0, 0.0, 0.0, 0.0]], [0.5], [True], BOX_4D)
        for balanced in (False, True):
            decisions = decide_stacks([SystemStack.of([feasible, empty, feasible])], [balanced])[0]
            assert (decisions.status == FEASIBLE).tolist() == [True, False, True]
            assert decisions.status[1] == EMPTY
        assert len(lp_calls) == 8


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


def reference_enumerate(G, h, box):
    """The slack-LP kernel with a determinant and an LU solve of every
    k-subset, as _enumerate_vertices computed it before its cofactor pass.
    Returns the optima (B, k), NaN rows for empty blocks, and, per block,
    whether its optimum is the only feasible candidate within 1e-12
    (relative) of the largest d."""
    n_blocks, r, k = G.shape
    bounds, idx = feasibility._subsets(r, k)
    scale = np.abs(G).max(axis=2, initial=0.0)
    scale[scale == 0.0] = 1.0
    lo, hi = feasibility._slack_bounds(box)
    M = np.concatenate(
        [G / scale[..., None], np.broadcast_to(bounds, (n_blocks, 2 * k, k))], axis=1)
    q = np.concatenate([h / scale, -lo, hi], axis=1)
    sub = M[:, idx]
    regular = np.abs(np.linalg.det(sub)) > feasibility._SINGULAR_DET
    where = np.nonzero(regular)
    z = np.zeros(regular.shape + (k,))
    z[where] = np.linalg.solve(sub[where], q[:, idx][where][..., None])[..., 0]
    feasible = regular & np.all(
        z @ M.transpose(0, 2, 1) <= q[:, None, :] + feasibility._FEAS_TOL, axis=2)
    d = np.where(feasible, z[..., -1], -np.inf)
    blocks = np.arange(n_blocks)
    best = d.argmax(axis=1)
    top = d[blocks, best]
    found = feasible[blocks, best]
    near = feasible & (d >= np.where(found, top - 1e-12 * np.maximum(1.0, np.abs(top)), 0.0)[:, None])
    unique = found & (near.sum(axis=1) == 1)
    return np.where(found[:, None], z[blocks, best], np.nan), unique


def gaussian_system(rng, m, rows):
    """Normal rows and right-hand sides over [-1, 1]^m, half of them strict."""
    return LinearConstraintSystem(rng.normal(size=(rows, m)), rng.normal(size=rows),
                                  rng.random(rows) < 0.5, np.tile([-1.0, 1.0], (m, 1)))


def axis_system(rng, m, rows):
    """Rows of 0 and +-1 entries with dyadic right-hand sides over [-1, 1]^m:
    every candidate vertex is exact in either kernel, so ties in d are
    exact too."""
    return LinearConstraintSystem(rng.integers(-1, 2, size=(rows, m)).astype(float),
                                  rng.integers(-6, 7, size=rows) / 4.0,
                                  rng.random(rows) < 0.5, np.tile([-1.0, 1.0], (m, 1)))


class TestCofactorKernel:
    """_enumerate_vertices against reference_enumerate."""

    @staticmethod
    def stacks(m):
        """(exact, stack) pairs: stacks of degenerate, Gaussian and
        axis-aligned systems, of two row counts, one chunk long and longer."""
        rng = np.random.default_rng(790 + m)
        for count in (5, 3 * feasibility._CHUNK_BLOCKS // 2):
            for rows in (2, 5):
                yield False, SystemStack.of(TestStackedCore.fixed_shape_systems(rng, m, rows, count))
                yield False, SystemStack.of([gaussian_system(rng, m, rows) for _ in range(count)])
                yield True, SystemStack.of([axis_system(rng, m, rows) for _ in range(count)])

    @pytest.mark.parametrize("balanced", [False, True])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_matches_reference(self, m, balanced):
        unique = 0
        for exact, stack in self.stacks(m):
            G, h = feasibility._slack_rows(stack.A, stack.b, stack.strict, balanced)
            z = feasibility._enumerate_vertices(G, h, stack.box)
            ref, ref_unique = reference_enumerate(G, h, stack.box)
            empty = np.isnan(ref[:, -1])
            assert np.array_equal(np.isnan(z), np.isnan(ref))
            d, d_ref = z[~empty, -1], ref[~empty, -1]
            assert np.all(np.abs(d - d_ref) <= 1e-12 * np.maximum(1.0, np.abs(d_ref)))
            # The same LU solve of the same subset wherever the optimum is
            # unique; exact candidates also tie exactly, and both kernels
            # then pick the first subset in order.
            assert np.array_equal(z[ref_unique], ref[ref_unique])
            if exact:
                assert np.array_equal(z, ref, equal_nan=True)
            unique += ref_unique.sum()
            decisions = decide_stacks([stack], [balanced])[0]
            for t in np.flatnonzero(decisions.status == FEASIBLE):
                sys = LinearConstraintSystem(stack.A[t], stack.b[t], stack.strict[t], stack.box[t])
                assert substitute(sys, decisions.witness[t])
        assert unique > 100


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

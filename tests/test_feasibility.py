import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from pwa_nav import feasibility, reach
from pwa_nav.feasibility import (
    DELTA_CAP,
    EMPTY,
    FEASIBLE,
    INFEASIBLE,
    TOL_STRICT,
    LinearConstraintSystem,
    SystemStack,
    balance_witnesses_batch,
    decide_feasibility,
    decide_stacks,
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

    def test_non_finite_box_rejected(self):
        # An infinite side would meet a zero coefficient in the kernel.
        with pytest.raises(ValueError):
            decide_feasibility(LinearConstraintSystem(
                [[1.0, 1.0]], [0.5], [True], [[-5.0, np.inf], [-5.0, 5.0]]))


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


def assert_same_result(res, ref):
    """Same verdict, bitwise-equal witness and equal margin."""
    assert res.feasible == ref.feasible
    assert res.margin == ref.margin
    if ref.witness is None:
        assert res.witness is None
    else:
        assert np.array_equal(res.witness, ref.witness)


def by_shape(systems):
    groups = {}
    for sys in systems:
        groups.setdefault(sys.A.shape, []).append(sys)
    return list(groups.values())


class TestScreen:
    """The kernel's row maxima, inverted boxes and constant strict rows."""

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_abs_max_is_numpys_reduction(self, m):
        # The kernel takes |A|'s row maximum axis by axis; max is exact, so
        # the bits, NaN and signed zeros included, match.
        rng = np.random.default_rng(m)
        A = rng.normal(size=(50, 3, m)) * 10.0 ** rng.integers(-300, 300, size=(50, 3, m))
        specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324])
        mask = rng.random(A.shape) < 0.3
        A[mask] = rng.choice(specials, size=mask.sum())
        A[0] = -0.0
        got, want = feasibility._abs_max(A), np.abs(A).max(axis=2)
        assert got.tobytes() == want.tobytes()

    def test_inverted_box_raises(self):
        # A box with lo > hi on some input, by one ulp or more, is no
        # system: decide_stacks rejects the whole stack, in either LP form.
        for m in (1, 2, 4):
            for lo in (np.nextafter(0.0, 1.0), 1e-12, 5e-10, 2e-9, 0.5):
                box = np.tile([-1.0, 1.0], (3, m, 1))
                box[1, -1] = [lo, 0.0]
                stack = SystemStack(np.ones((3, 1, m)), np.full((3, 1), -10.0),
                                    np.ones((3, 1), dtype=bool), box)
                for balanced in (False, True):
                    with pytest.raises(ValueError):
                        decide_stacks(stack, balanced)

    @pytest.mark.parametrize("rhs, feasible", [
        (-5e-8, False), (0.0, False), (-0.999 * TOL_STRICT, False), (-2e-7, True)])
    @pytest.mark.parametrize("box", [BOX_1D, BOX_2D])
    def test_constant_strict_row_threshold(self, rhs, feasible, box):
        # 0 . u > rhs holds with slack -rhs, which must exceed TOL_STRICT; a
        # right-hand side in (-TOL_STRICT, 0] is infeasible.
        m = len(box)
        sys = LinearConstraintSystem(np.zeros((1, m)), [rhs], [True], box)
        assert decide_feasibility(sys).feasible is feasible


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
    TOL_STRICT, alone or with a non-strict row that holds over the whole
    box. The kernel's slack is the exact largest slack to within
    reach._SETTLE_ROUNDING times the row's magnitude (the sum of its
    largest terms over the box and |b|), the rounding that reach._settle
    leaves to the kernel, and each system of a stack is decided as it is
    alone."""

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
        verdicts = []
        for a, box in rows:
            reach_hi = 0.0
            for c, (l, h) in zip(a, box):
                reach_hi = reach_hi + max(c * l, c * h)
            exact_hi = sum(max(Fraction(c) * Fraction(l), Fraction(c) * Fraction(h))
                           for c, (l, h) in zip(a, box))
            terms = sum(max(abs(c * l), abs(c * h)) for c, (l, h) in zip(a, box))
            A, strict = [a], [True]
            if loose_row:
                A, strict = [a, np.ones_like(a)], [True, False]
            systems = []
            for rhs in ulps_around(reach_hi - TOL_STRICT, 4):
                b = [rhs, 100.0][:len(A)]
                systems.append(LinearConstraintSystem(A, b, strict, box))
            decided = decide_stacks(SystemStack.of(systems), False)
            for i, sys in enumerate(systems):
                rhs = float(sys.b[0])
                error = abs(Fraction(float(decided.margin[i])) - (exact_hi - Fraction(rhs)))
                assert error <= Fraction(reach._SETTLE_ROUNDING) * Fraction(terms + abs(rhs))
                assert_same_result(decided.result(i), decide_feasibility(sys))
                verdicts.append(decided.status[i] == FEASIBLE)
        # Both sides of the threshold are exercised.
        assert 500 < sum(verdicts) < len(verdicts) - 500


class TestSeveralRowThreshold:
    """Systems of two to four rows whose strict rows have a slack within six
    ulps of TOL_STRICT at the box center, constant strict rows 0 > rhs among
    them, with non-strict rows through or above the center. The kernel
    finds none of them empty, its slack is the vertex enumeration's to
    within rounding, and each system of a stack is decided as it is
    alone."""

    @staticmethod
    def stack(seed, m, rows, count):
        rng = np.random.default_rng(seed)
        lo = rng.uniform(-5.0, 0.0, size=(count, m))
        box = np.stack([lo, lo + rng.uniform(0.1, 10.0, size=(count, m))], axis=-1)
        center = 0.5 * (box[..., 0] + box[..., 1])
        A = rng.normal(size=(count, rows, m)) * 10 ** rng.uniform(-2, 2, size=(count, rows, 1))
        kind = rng.random((count, rows))
        strict = kind < 0.8
        A[kind < 0.15] = 0.0
        val = np.zeros((count, rows))
        for k in range(m):
            val = val + A[..., k] * center[:, None, k]
        slack = np.array(ulps_around(TOL_STRICT, 6))[rng.integers(13, size=(count, rows))]
        gap = np.where(rng.random((count, rows)) < 0.5, 0.0,
                       rng.uniform(0.0, 1.0, size=(count, rows)))
        return SystemStack(A, np.where(strict, val - slack, val + gap), strict, box)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_screened_and_unscreened_agree(self, m):
        lp_feasible = lp_infeasible = 0
        for rows in (2, 3, 4):
            stack = self.stack(800 + 10 * m + rows, m, rows, 1000)
            decided = decide_stacks(stack, False)
            G, h = feasibility._slack_rows(stack.A, stack.b, stack.strict, False)
            d_ref = reference_enumerate(G, h, stack.box)[0][:, -1]
            assert not np.any(decided.status == EMPTY) and not np.any(np.isnan(d_ref))
            slack = G[..., -1].any(axis=1)
            d, d_ref = decided.margin[slack], d_ref[slack]
            assert np.all(np.abs(d - d_ref) <= 1e-12 * np.maximum(1.0, np.abs(d_ref)))
            for t in range(len(stack.b)):
                sys = LinearConstraintSystem(stack.A[t], stack.b[t], stack.strict[t], stack.box[t])
                assert_same_result(decided.result(t), decide_feasibility(sys))
            lp_feasible += int(np.sum(decided.status == FEASIBLE))
            lp_infeasible += int(np.sum(decided.status == INFEASIBLE))
        # Both sides of the threshold are exercised.
        assert lp_feasible > 1000 and lp_infeasible > 500


class TestNonStrictThreshold:
    """Non-strict rows whose least value over the box lies within a few
    _FEAS_TOL of the right-hand side, two single-variable rows that leave
    an interval about that short, and constant rows 0 <= rhs with rhs just
    below 0. The LP accepts a vertex that violates a non-strict row by up
    to _FEAS_TOL times its largest coefficient (1 for a constant row), and
    finds the system EMPTY beyond that: the threshold of reach._settle's
    rule for non-strict rows."""

    ROWS = [
        ([1.0, 1.0], [[-1.0, 1.0], [-1.0, 1.0]]),
        ([0.3, 0.7], [[-1.0, 1.0], [-1.0, 1.0]]),
        ([1.0, -2.5], [[-2.0, 3.0], [-1.0, 1.0]]),
        ([-4.0, 0.5], [[-1.0, 2.0], [0.0, 1.0]]),
        ([0.1, 0.2, 0.3], [[-1.0, 1.0]] * 3),
        # Single-variable rows.
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
        """(system, expected status) pairs, the status None where the system
        lies on the threshold itself."""
        rows = [(np.array(a), np.array(box)) for a, box in self.ROWS] + self.random_rows(46, 20)
        out = []
        for a, box in rows:
            reach_lo = 0.0
            for c, (l, h) in zip(a, box):
                reach_lo = reach_lo + min(c * l, c * h)
            for v in self.VIOLATIONS:
                rhs = reach_lo - v * feasibility._FEAS_TOL * np.abs(a).max()
                out.append((LinearConstraintSystem([a], [rhs], [False], box),
                            EMPTY if v > 1.0 else FEASIBLE))
        for v in self.VIOLATIONS:
            # u1 <= 0.3 and u1 >= 0.3 + v * _FEAS_TOL: the input halfway
            # violates each row by v / 2 * _FEAS_TOL.
            out.append((LinearConstraintSystem(
                [[1.0, 0.0], [-1.0, 0.0]], [0.3, -0.3 - v * feasibility._FEAS_TOL],
                [False, False], BOX_SMALL), None if v == 2.0 else EMPTY if v > 2.0 else FEASIBLE))
        for rhs in np.linspace(-3 * feasibility._FEAS_TOL, 0.0, 30):
            out.append((LinearConstraintSystem(np.zeros((1, 2)), [rhs], [False], BOX_SMALL),
                        EMPTY if rhs < -feasibility._FEAS_TOL else FEASIBLE))
        return out

    def test_screened_and_unscreened_agree(self):
        pairs = self.systems()
        assert len(pairs) == 310
        counts = {EMPTY: 0, FEASIBLE: 0}
        for group in by_shape([sys for sys, _ in pairs]):
            statuses = decide_stacks(SystemStack.of(group), False).status.tolist()
            for sys, got in zip(group, statuses):
                want = next(status for other, status in pairs if other is sys)
                if want is not None:
                    assert got == want
                    counts[got] += 1
        # Both sides of the threshold are exercised.
        assert counts[EMPTY] > 50 and counts[FEASIBLE] > 100


@pytest.fixture
def lp_calls(monkeypatch):
    """Calls of feasibility.linprog, which the kernel never makes."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return linprog(*args, **kwargs)

    monkeypatch.setattr(feasibility, "linprog", counting)
    return calls


class TestStackedCore:
    """decide_stacks over stacks of many systems against one system at a
    time."""

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
        plain = [decide_stacks(SystemStack.of(s), False) for s in stacks]
        balanced = [decide_stacks(SystemStack.of(s), True) for s in stacks]
        for i, systems in enumerate(stacks):
            for t, sys in enumerate(systems):
                assert_same_result(plain[i].result(t), decide_feasibility(sys))
                alone = balance_witnesses_batch([sys])
                assert (balanced[i].status[t] == EMPTY) == (alone is None)
                if alone is not None:
                    assert_same_result(balanced[i].result(t), alone[0])

    def test_four_input_stacks_match_highs(self, lp_calls):
        # Four inputs take the kernel of fewer, with no linprog call.
        rng = np.random.default_rng(780)
        stacks = [self.fixed_shape_systems(rng, 4, rows, 12) for rows in (1, 3)]
        results = [decide_stacks(SystemStack.of(s), False) for s in stacks]
        assert lp_calls == []
        for systems, decisions in zip(stacks, results):
            for sys, status in zip(systems, decisions.status):
                feasible, empty = reference_verdict(sys, False)
                assert (status == FEASIBLE) == feasible and (status == EMPTY) == empty

    def test_empty_block_leaves_the_others_decided(self, lp_calls):
        # An empty system beside feasible ones: each gets its own verdict.
        empty = LinearConstraintSystem([[1.0, 0.0, 0.0, 0.0]], [-2.0], [False], BOX_4D)
        feasible = LinearConstraintSystem([[1.0, 0.0, 0.0, 0.0]], [0.5], [True], BOX_4D)
        for balanced in (False, True):
            decisions = decide_stacks(SystemStack.of([feasible, empty, feasible]), balanced)
            assert (decisions.status == FEASIBLE).tolist() == [True, False, True]
            assert decisions.status[1] == EMPTY
        assert lp_calls == []


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
    """The slack-LP kernel against one HiGHS linprog per system."""

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
    def test_verdicts_match_highs(self, m):
        # Same verdict, emptiness and, where a row carries the slack, margin
        # as HiGHS, in both forms.
        rng = np.random.default_rng(700 + m)
        systems = [degenerate_system(rng, m) for _ in range(150)]
        systems += [LinearConstraintSystem(np.zeros((0, m)), [], [],
                                           np.tile([-1.0, 1.0], (m, 1)))]
        if m == 2:
            systems += [random_system(rng) for _ in range(100)]
        disagreements = margins = 0
        for sys in systems:
            for balanced in (False, True):
                decided = decide_stacks(SystemStack.of([sys]), balanced)
                res = decided.result(0)
                feasible, empty = reference_verdict(sys, balanced)
                disagreements += res.feasible != feasible
                disagreements += (decided.status[0] == EMPTY) != empty
                if res.feasible:
                    assert substitute(sys, res.witness)
                if not empty and len(sys.b) and (balanced or sys.strict.any()):
                    d = highs_max_slack(sys, balanced)
                    assert abs(res.margin - d) <= 1e-12 * max(1.0, abs(d))
                    margins += 1
        assert disagreements == 0 and margins > 80

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
    def test_batches_match_highs(self, m):
        rng = np.random.default_rng(710 + m)
        for _ in range(60):
            for systems in by_shape([degenerate_system(rng, m) for _ in range(4)]):
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

    def test_mixed_shapes_rejected(self):
        one_row = LinearConstraintSystem([[1.0, 0.0]], [0.0], [True], BOX_2D)
        two_rows = LinearConstraintSystem([[1.0, 0.0], [0.0, 1.0]], [0.0, 1.0],
                                          [True, False], BOX_2D)
        with pytest.raises(ValueError):
            balance_witnesses_batch([one_row, two_rows])
        with pytest.raises(ValueError):
            balance_witnesses_batch([one_row, LinearConstraintSystem([[1.0]], [0.0], [True],
                                                                     BOX_1D)])

    def test_empty_enumeration_certifies_emptiness(self):
        # u >= 0.7 and u <= 0.2 meet nowhere, even with every row relaxed.
        sys = LinearConstraintSystem([[1.0], [1.0]], [0.7, 0.2], [True, False], BOX_1D)
        assert decide_feasibility(sys).margin == 0.0
        assert balance_witnesses_batch([sys]) is None


# Subsets with a smaller determinant are singular, on rows scaled to unit
# max-norm.
REFERENCE_SINGULAR_DET = 1e-12


def reference_subsets(n_rows, k):
    """Constraint matrix of the k variable bounds, (2k, k) as [-I; I], and
    every k-subset of the n_rows + 2k constraints (rows, then lower, then
    upper bounds) in lexicographic order, less those holding both bounds of
    one variable."""
    idx = [c for c in itertools.combinations(range(n_rows + 2 * k), k)
           if not any(n_rows + j in c and n_rows + k + j in c for j in range(k))]
    return np.concatenate([-np.eye(k), np.eye(k)]), np.array(idx, dtype=np.intp).reshape(-1, k)


def reference_enumerate(G, h, box):
    """The slack LP by vertex enumeration: a determinant and an LU solve of
    every k-subset of the constraints, the feasible candidate with the
    largest d optimal, the first in subset order on ties. Returns the optima
    (B, k), NaN rows for empty blocks, and, per block, whether its optimum
    is the only feasible candidate within 1e-12 (relative) of the largest
    d."""
    n_blocks, r, k = G.shape
    bounds, idx = reference_subsets(r, k)
    scale = np.abs(G).max(axis=2, initial=0.0)
    scale[scale == 0.0] = 1.0
    pad = np.zeros((n_blocks, 1))
    lo = np.concatenate([box[..., 0], pad], axis=1)
    hi = np.concatenate([box[..., 1], pad + DELTA_CAP], axis=1)
    M = np.concatenate(
        [G / scale[..., None], np.broadcast_to(bounds, (n_blocks, 2 * k, k))], axis=1)
    q = np.concatenate([h / scale, -lo, hi], axis=1)
    sub = M[:, idx]
    regular = np.abs(np.linalg.det(sub)) > REFERENCE_SINGULAR_DET
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
    """Rows of 0 and +-1 entries with dyadic right-hand sides over [-1, 1]^m,
    where many vertices tie in d."""
    return LinearConstraintSystem(rng.integers(-1, 2, size=(rows, m)).astype(float),
                                  rng.integers(-6, 7, size=rows) / 4.0,
                                  rng.random(rows) < 0.5, np.tile([-1.0, 1.0], (m, 1)))


class TestCofactorKernel:
    """The slack-LP kernel, feasibility._optima, against reference_enumerate."""

    @staticmethod
    def stacks(m):
        """Stacks of degenerate, Gaussian and axis-aligned systems, of
        three row counts, short and long."""
        rng = np.random.default_rng(790 + m)
        for count in (5, 100):
            for rows in (2, 3, 5):
                yield SystemStack.of(TestStackedCore.fixed_shape_systems(rng, m, rows, count))
                yield SystemStack.of([gaussian_system(rng, m, rows) for _ in range(count)])
                yield SystemStack.of([axis_system(rng, m, rows) for _ in range(count)])

    @pytest.mark.parametrize("balanced", [False, True])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_matches_reference(self, m, balanced):
        unique = 0
        for stack in self.stacks(m):
            G, h = feasibility._slack_rows(stack.A, stack.b, stack.strict, balanced)
            z = feasibility._optima(G, h, stack.box)
            ref, ref_unique = reference_enumerate(G, h, stack.box)
            empty = np.isnan(ref[:, -1])
            assert np.array_equal(np.isnan(z[:, -1]), empty)
            d, d_ref = z[~empty, -1], ref[~empty, -1]
            assert np.all(np.abs(d - d_ref) <= 1e-12 * np.maximum(1.0, np.abs(d_ref)))
            # The same LU solve of the same subset wherever the optimum is
            # unique.
            assert np.array_equal(z[ref_unique], ref[ref_unique])
            unique += ref_unique.sum()
            decisions = decide_stacks(stack, balanced)
            for t in np.flatnonzero(decisions.status == FEASIBLE):
                sys = LinearConstraintSystem(stack.A[t], stack.b[t], stack.strict[t], stack.box[t])
                assert substitute(sys, decisions.witness[t])
        assert unique > 100


BOX_4D = np.tile([-1.0, 1.0], (4, 1))


class TestHighsPath:
    """Four or more control inputs, once HiGHS LPs, take the kernel of
    fewer; HiGHS is the oracle."""

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
        assert lp_calls == []

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
        assert lp_calls == []

    def test_mixed_batch_matches_single_solves(self, lp_calls):
        rng = np.random.default_rng(750)
        systems = [degenerate_system(rng, m) for m in (2, 4, 3, 4, 1)]
        systems = [s for s in systems if reference_verdict(s, True)[1] is False]
        batches = [(group, balance_witnesses_batch(group)) for group in by_shape(systems)]
        for group, batch in batches:
            assert batch is not None
            for sys, res in zip(group, batch):
                assert res.feasible == solve_balanced(sys).feasible
        assert lp_calls == []

    def test_small_systems_skip_highs(self, lp_calls):
        rng = np.random.default_rng(760)
        for m in (1, 2, 3, 4, 5, 6):
            sys = degenerate_system(rng, m)
            decide_feasibility(sys)
            balance_witnesses_batch([sys, sys])
        assert lp_calls == []


class TestSolverFailure:
    """A kernel fault, here no ray's vertex kept, must never certify a
    system empty or infeasible unless the dual does, since that would
    report a reach edge Absent."""

    @pytest.fixture(autouse=True)
    def no_vertex(self, monkeypatch):
        monkeypatch.setattr(feasibility, "_ray_vertex",
                            lambda M, q, *masks: np.full(M.shape[::2], np.nan))

    def test_decide_feasibility_raises(self):
        sys = LinearConstraintSystem([[1.0, 1.0, 0.0, 0.0]], [1.0], [True], BOX_4D)
        with pytest.raises(RuntimeError, match="no vertex"):
            decide_feasibility(sys)
        # A plain feasibility check, no row carrying the slack.
        sys = LinearConstraintSystem([[1.0, 1.0]], [1.0], [False], BOX_2D)
        with pytest.raises(RuntimeError, match="no vertex"):
            decide_feasibility(sys)

    def test_balance_batch_raises(self):
        sys = LinearConstraintSystem([[1.0, 1.0, 0.0, 0.0]], [1.0], [True], BOX_4D)
        with pytest.raises(RuntimeError, match="no vertex"):
            balance_witnesses_batch([sys])

    def test_dual_certified_infeasibility_stands(self):
        # u1 + u2 > 2 - TOL_STRICT / 2 misses TOL_STRICT by the dual alone:
        # infeasible with margin 0, not empty, whatever the vertices do.
        sys = LinearConstraintSystem([[1.0, 1.0]], [2.0 - TOL_STRICT / 2], [True], BOX_SMALL)
        decided = decide_stacks(SystemStack.of([sys]), False)
        assert decided.status.tolist() == [INFEASIBLE] and decided.margin.tolist() == [0.0]


# A 3-D vertex system of the affine scenario with box [-1, 1]^3 (the
# balanced LP of an exit row and two invariance rows): G[2, 0] = -2.2e-16
# makes its two best rays tie, and the first one's vertex misses a row.
TIED_3D = (np.array([[0.09999999999999995, 0.9999999999999989, 0.19999999999999998, 1.0],
                     [0.9999999999999993, 0.29999999999999966, -0.19999999999999962, 1.0],
                     [-2.213570490086197e-16, 0.09999999999999927, -0.9999999999999999, 1.0]]),
           np.array([-0.05999999999955932, 0.1499999999995786, -0.2900000000000097]))


class TestDualKernel:
    """feasibility._optima at its edges: ties, the _FEAS_TOL and TOL_STRICT
    thresholds, and systems without rows, without a slack row or at the
    cap."""

    def test_tied_3d_system(self, monkeypatch):
        G, h = (a[None] for a in TIED_3D)
        box = np.tile([-1.0, 1.0], (1, 3, 1))
        solves = []
        ray_vertex = feasibility._ray_vertex

        def counting(M, q, *masks):
            solves.append(len(M))
            return ray_vertex(M, q, *masks)

        monkeypatch.setattr(feasibility, "_ray_vertex", counting)
        z = feasibility._optima(G, h, box)
        assert solves == [1, 1]
        ref, _ = reference_enumerate(G, h, box)
        assert abs(z[0, -1] - ref[0, -1]) <= 1e-12 and z[0, -1] > TOL_STRICT
        assert np.all(G[0] @ z[0] <= h[0] + 1e-9)

    # Violations of a non-strict row's least value over the box, in units
    # of _FEAS_TOL * max |a_i|.
    VIOLATIONS = [0.0, 0.5, 0.99, 1.01, 2.0]

    @pytest.mark.parametrize("a, box", [([1.0, -2.5], [[-2.0, 3.0], [-1.0, 1.0]]),
                                        ([0.3], [[-1.0, 1.0]]),
                                        ([0.1, 0.2, -0.3, 0.4], [[-1.0, 1.0]] * 4)])
    def test_non_strict_row_tolerance(self, a, box):
        # One non-strict row is met to within _FEAS_TOL of its largest
        # coefficient or the system is empty. Alone it is a plain
        # feasibility check. With the strict row u_1 > lo_1 - 1, whose slack
        # is 1 at the row's least point, a row that no input meets exactly
        # may come out infeasible, but never empty.
        a, box = np.array(a), np.array(box)
        least = sum(min(c * l, c * h) for c, (l, h) in zip(a, box))
        strict_row = np.zeros_like(a)
        strict_row[0] = 1.0
        for v in self.VIOLATIONS:
            rhs = least - v * feasibility._FEAS_TOL * np.abs(a).max()
            alone = decide_stacks(SystemStack.of(
                [LinearConstraintSystem([a], [rhs], [False], box)]), False)
            both = decide_stacks(SystemStack.of([LinearConstraintSystem(
                [a, strict_row], [rhs, box[0, 0] - 1.0], [False, True], box)]), False)
            if v > 1.0:
                assert alone.status.tolist() == both.status.tolist() == [EMPTY]
                continue
            assert alone.status.tolist() == [FEASIBLE] and alone.margin.tolist() == [DELTA_CAP]
            assert both.status.tolist() != [EMPTY]
            if v == 0.0:
                assert both.status.tolist() == [FEASIBLE]
                assert both.margin[0] == pytest.approx(1.0, rel=1e-12)

    def test_rows_share_the_tolerance(self):
        # u1 <= 0.3 and u1 >= 0.3 + v * _FEAS_TOL: the input halfway
        # violates each row by v / 2 * _FEAS_TOL, within the tolerance for
        # v < 2.
        for v, status in ((0.5, FEASIBLE), (1.5, FEASIBLE), (2.5, EMPTY)):
            sys = LinearConstraintSystem([[1.0, 0.0], [-1.0, 0.0]],
                                         [0.3, -0.3 - v * feasibility._FEAS_TOL],
                                         [False, False], BOX_SMALL)
            decided = decide_stacks(SystemStack.of([sys]), False)
            assert decided.status.tolist() == [status]
            if status == FEASIBLE:
                u = decided.witness[0, 0]
                assert 0.3 - feasibility._FEAS_TOL <= u <= 0.3 + (v + 1) * feasibility._FEAS_TOL

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_balanced_threshold(self, m):
        # Balanced systems whose optimal uniform slack, moved by shifting
        # every right-hand side, lies within six ulps of TOL_STRICT: the
        # kernel's verdict is the enumeration's on either side.
        rng = np.random.default_rng(830 + m)
        systems = [gaussian_system(rng, m, 2) for _ in range(300)]
        for sys in systems:
            sys.A /= np.abs(sys.A).max(axis=1, keepdims=True)
        stack = SystemStack.of(systems)
        G, h = feasibility._slack_rows(stack.A, stack.b, stack.strict, True)
        d = reference_enumerate(G, h, stack.box)[0][:, -1]
        keep = np.isfinite(d) & (d < 1.0)
        shift = np.array(ulps_around(TOL_STRICT, 6))[rng.integers(13, size=keep.sum())] - d[keep]
        sign = np.where(stack.strict[keep], -1.0, 1.0)
        moved = SystemStack(stack.A[keep], stack.b[keep] + sign * shift[:, None],
                            stack.strict[keep], stack.box[keep])
        G, h = feasibility._slack_rows(moved.A, moved.b, moved.strict, True)
        ref, unique = reference_enumerate(G, h, moved.box)
        got = decide_stacks(moved, True)
        want = np.where(np.isnan(ref[:, -1]), EMPTY,
                        np.where(ref[:, -1] > TOL_STRICT, FEASIBLE, INFEASIBLE))
        assert np.array_equal(got.status[unique], want[unique])
        assert np.all(np.abs(got.margin - TOL_STRICT) < 1e-15)
        assert 20 < np.sum(want[unique] == FEASIBLE) < unique.sum() - 20

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_no_rows_no_slack_rows_and_cap(self, m):
        # Verdicts and margins as the enumeration's: no rows at all, only
        # non-strict rows in the strict-slack form, and strict rows that the
        # box meets by more than DELTA_CAP.
        rng = np.random.default_rng(850 + m)
        box = np.tile([-1.0, 1.0], (m, 1))
        stacks = [SystemStack.of([LinearConstraintSystem(np.zeros((0, m)), [], [], box)])]
        for rows in (1, 2, 3):
            plain = [gaussian_system(rng, m, rows) for _ in range(50)]
            stacks.append(SystemStack.of([LinearConstraintSystem(s.A, s.b, np.zeros(rows, bool), box)
                                          for s in plain]))
            stacks.append(SystemStack.of([LinearConstraintSystem(s.A, s.b - 3e6 * s.strict, s.strict,
                                                                 box) for s in plain]))
        for stack in stacks:
            G, h = feasibility._slack_rows(stack.A, stack.b, stack.strict, False)
            ref = reference_enumerate(G, h, stack.box)[0]
            want = feasibility._decisions(ref, G[..., -1].any(axis=1), stack.box)
            got = decide_stacks(stack, False)
            assert np.array_equal(got.status, want.status)
            assert np.array_equal(got.margin, want.margin)
            # Witnesses meet the non-strict rows to within _FEAS_TOL times
            # their largest coefficient.
            for t in np.flatnonzero(got.status == FEASIBLE):
                A, b, loose = stack.A[t], stack.b[t], ~stack.strict[t]
                assert np.all(A[loose] @ got.witness[t] - b[loose]
                              <= feasibility._FEAS_TOL * np.abs(A[loose]).max(axis=1))

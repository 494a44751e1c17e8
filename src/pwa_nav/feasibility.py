"""Feasibility of mixed strict/non-strict linear inequality systems over a
box-constrained control variable.

A system is one array form, LinearConstraintSystem(A, b, strict, box): row
i reads A[i] . u > b[i] where strict[i] and A[i] . u <= b[i] elsewhere, with
u in the control box. A SystemStack holds N systems of one shape as (N, r, m)
/ (N, r) / (N, r) / (N, m, 2) arrays, and the outcomes of a stack are one
Decisions(status, witness, margin) of arrays: status FEASIBLE, INFEASIBLE,
EMPTY (the slack LP has no point at all) or OPEN (not decided). Two passes
produce them: _screen, one NumPy pass of interval arithmetic over a stack
that leaves OPEN what it cannot settle, including every system within the
LP's rounding of a threshold, and decide_stacks, the exact slack LP of every
system of its stacks, each system by itself. The predictive reach rule
screens each of its pattern stacks once and sends the OPEN systems of the
vertices the screen left unsettled to one decide_stacks call.
decide_feasibility (strict-slack LP of one system), balance_witnesses_batch
(balanced LP of several) and screen_feasibility (the screen of one system)
are views that read one entry of a Decisions as a FeasibilityResult.

Strict inequalities are certified by slack maximization: the system is
feasible iff the maximal common slack of the strict rows exceeds TOL_STRICT,
and the achieved slack doubles as a robustness margin.

The slack LP lives in z = (u, d) with the control box bounding u and
0 <= d <= DELTA_CAP bounding d, so its feasible set is a polytope. A
nonempty polytope has a vertex, each vertex solves some m + 1 of the
constraints as equalities, and the maximum of d is attained at a vertex. For
m <= 3 inputs every such subset is a candidate, computed in closed form by
Cramer's rule from one table of cofactor vectors per chunk of stacked
systems: the feasible candidate with the largest d is the exact optimum,
returned as the LU solution of its subset, and an empty candidate set
proves the polytope empty rather than reporting a solver status. Larger m
goes to HiGHS, one LP per system, whose infeasibility status alone
certifies emptiness; any other failure raises RuntimeError. SciPy is
imported only when HiGHS runs.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

TOL_STRICT = 1e-7
DELTA_CAP = 1e6
# Tight solver tolerances so witnesses satisfy the rows to ~1e-10, well below
# TOL_STRICT; the defaults (1e-7) would blur the strictness threshold.
_LP_OPTIONS = {
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-10,
}
# Slack LPs with at most this many control inputs are solved by vertex
# enumeration; C(r + 2m + 2, m + 1) subsets grow too fast beyond.
_ENUM_MAX_DIM = 3
# On rows scaled to unit max-norm: subsets with a smaller determinant are
# singular, and vertices may violate a row by at most _FEAS_TOL (the
# roundoff of a 4x4 solve, well below TOL_STRICT).
_SINGULAR_DET = 1e-12
_FEAS_TOL = 1e-9
# The exact LP's slack differs from the screen's interval slack of the same
# row by rounding: at most 0.6 ulp of the row's magnitude (the sum of its
# largest terms over the box and |b|) on 3,000 random one-row systems. The
# screen leaves rows this much closer to its thresholds to the LP.
_SCREEN_ROUNDING = 1e-12
# Vertex enumeration holds up to C(r + 2k, k) candidate subsets of k rows per
# system, so a stack is enumerated this many systems at a time; that bounds
# the working set to about a megabyte whatever the stack size.
_CHUNK_BLOCKS = 64


def linprog(*args, **kwargs):
    """scipy.optimize.linprog, imported on first use: only slack LPs with
    more than _ENUM_MAX_DIM inputs reach HiGHS, and importing SciPy costs
    about half a second and 50 MB per process."""
    from scipy.optimize import linprog as scipy_linprog

    return scipy_linprog(*args, **kwargs)


def as_control_box(box) -> np.ndarray:
    """The control box as a (dim, 2) float array of [lo, hi] rows; raises
    ValueError unless it is finite and nonempty."""
    box = np.asarray(box, dtype=float)
    if box.ndim != 2 or box.shape[1] != 2:
        raise ValueError("box must be (dim, 2)")
    if not np.all(np.isfinite(box)):
        raise ValueError("control box must be finite")
    if np.any(box[:, 0] > box[:, 1]):
        raise ValueError("empty control box")
    return box


@dataclass
class LinearConstraintSystem:
    """Rows A[i] . u > b[i] where strict[i], else A[i] . u <= b[i], over the
    control box u in [box[:, 0], box[:, 1]]."""

    A: np.ndarray       # (rows, dim)
    b: np.ndarray       # (rows,)
    strict: np.ndarray  # (rows,) bool
    box: np.ndarray     # (dim, 2) [lo, hi]

    def __post_init__(self):
        self.A = np.asarray(self.A, dtype=float)
        self.b = np.asarray(self.b, dtype=float)
        self.strict = np.asarray(self.strict, dtype=bool)
        self.box = as_control_box(self.box)
        if self.A.ndim != 2 or self.A.shape[1] != self.dim:
            raise ValueError("A must be (rows, dim)")
        if self.b.shape != self.A.shape[:1] or self.strict.shape != self.A.shape[:1]:
            raise ValueError("b and strict must have one entry per row of A")

    @property
    def dim(self) -> int:
        return self.box.shape[0]


@dataclass
class FeasibilityResult:
    feasible: bool
    witness: np.ndarray | None
    margin: float


# Status of one system in a Decisions.
OPEN, FEASIBLE, INFEASIBLE, EMPTY = 0, 1, 2, 3


class Decisions(NamedTuple):
    """Outcomes of N systems. status (N,) is FEASIBLE, INFEASIBLE, EMPTY
    (no input fits even with d = 0, which relaxes every strict row to
    non-strict) or OPEN (not decided); witness (N, m) holds the input where
    FEASIBLE and NaN elsewhere; margin (N,) is the achieved slack, 0 where
    EMPTY, OPEN or settled infeasible by the screen."""

    status: np.ndarray
    witness: np.ndarray
    margin: np.ndarray

    def result(self, i: int) -> FeasibilityResult | None:
        """System i as a FeasibilityResult; None while it is OPEN."""
        if self.status[i] == OPEN:
            return None
        if self.status[i] == FEASIBLE:
            return FeasibilityResult(True, self.witness[i].copy(), float(self.margin[i]))
        return FeasibilityResult(False, None, float(self.margin[i]))


class SystemStack(NamedTuple):
    """N systems of one shape: row i of system s reads A[s, i] . u > b[s, i]
    where strict[s, i], else A[s, i] . u <= b[s, i], over the control box
    u in [box[s, :, 0], box[s, :, 1]]."""

    A: np.ndarray       # (N, rows, dim)
    b: np.ndarray       # (N, rows)
    strict: np.ndarray  # (N, rows) bool
    box: np.ndarray     # (N, dim, 2)

    @classmethod
    def of(cls, systems: list[LinearConstraintSystem]) -> "SystemStack":
        """The stack of same-shape systems, in order."""
        return cls(np.stack([s.A for s in systems]), np.stack([s.b for s in systems]),
                   np.stack([s.strict for s in systems]), np.stack([s.box for s in systems]))

    def take(self, idx) -> "SystemStack":
        return SystemStack(self.A[idx], self.b[idx], self.strict[idx], self.box[idx])


def decide_feasibility(sys: LinearConstraintSystem) -> FeasibilityResult:
    """Maximize the common slack d of the strict rows:

        max d  s.t.  a.u >= rhs + d   (strict rows)
                     a.u <= rhs       (non-strict rows)
                     u in box, 0 <= d <= DELTA_CAP

    Feasible iff d* > TOL_STRICT. Without strict rows this degenerates to a
    plain feasibility check with margin DELTA_CAP.
    """
    return decide_stacks([SystemStack.of([sys])], [False])[0].result(0)


def balance_witnesses_batch(
    systems: list[LinearConstraintSystem],
) -> list[FeasibilityResult] | None:
    """Maximize a uniform slack over all rows of each system:

        max d  s.t.  a.u >= rhs + d   (strict rows)
                     a.u <= rhs - d   (non-strict rows)
                     u in box, 0 <= d <= DELTA_CAP

    Each system is solved by itself.

    A slack-maximal witness from decide_feasibility often sits on active
    non-strict rows, where any model error flips the inequality; the balanced
    witness buys margin on every row at once. A system is reported
    infeasible (margin below TOL_STRICT) whenever some non-strict row is
    necessarily tight; callers should then fall back to decide_feasibility.
    A system without rows is feasible with margin DELTA_CAP.

    Since d = 0 relaxes every row to its non-strict form, a system whose LP
    is infeasible outright is empty too. Then None is returned, which spares
    callers the fallback solve.
    """
    groups: dict[tuple[int, int], list[int]] = {}
    for i, sys in enumerate(systems):
        groups.setdefault(sys.A.shape, []).append(i)
    stacks = [SystemStack.of([systems[i] for i in members]) for members in groups.values()]
    out: list[FeasibilityResult | None] = [None] * len(systems)
    for members, decided in zip(groups.values(), decide_stacks(stacks, [True] * len(stacks))):
        if np.any(decided.status == EMPTY):
            return None
        for t, i in enumerate(members):
            out[i] = decided.result(t)
    return out


def screen_feasibility(sys: LinearConstraintSystem) -> FeasibilityResult | None:
    """The interval screen of one system (see _screen); None when it is
    inconclusive."""
    return _screen(SystemStack.of([sys])).result(0)


def decide_stacks(stacks: Sequence[SystemStack], balanced: Sequence[bool]) -> list[Decisions]:
    """The exact slack LP of every system of every stack, one Decisions per
    stack with no system OPEN. balanced[s] selects, for stack s, the
    balanced LP of balance_witnesses_batch over the strict-slack LP of
    decide_feasibility.

    Stacks with at most _ENUM_MAX_DIM inputs are enumerated _CHUNK_BLOCKS
    systems at a time; each system of a larger stack is one HiGHS LP."""
    out = []
    for stack, form in zip(stacks, balanced):
        n_sys, _, dim = stack.A.shape
        G, h = _slack_rows(stack.A, stack.b, stack.strict, form)
        z = np.full((n_sys, dim + 1), np.nan)
        if dim > _ENUM_MAX_DIM:
            for t in range(n_sys):
                z[t] = _highs(G[t], h[t], stack.box[t])
        else:
            for start in range(0, n_sys, _CHUNK_BLOCKS):
                chunk = slice(start, start + _CHUNK_BLOCKS)
                z[chunk] = _enumerate_vertices(G[chunk], h[chunk], stack.box[chunk])
        out.append(_decisions(z, G[..., -1].any(axis=1), stack.box))
    return out


def _screen(stack: SystemStack) -> Decisions:
    """Cheap interval screen of every system in a stack, consistent with
    the exact LP's thresholds: INFEASIBLE, FEASIBLE (the witness is the
    folded-box center) or OPEN where it is inconclusive.

    Single-variable rows are folded into the box first; then either some row
    is unsatisfiable over the folded box (infeasible) or the folded-box
    center satisfies every row with slack above TOL_STRICT (feasible).
    Either way the row must miss or clear its threshold by more than the
    exact LP's rounding, so that the screen settles a system only as the LP
    decides it. Folds and sums run row by row and term by term, in the order
    of the scalar reference walk, so the two agree to the bit."""
    A, b, strict, box = stack
    nonzero = A != 0.0
    count = nonzero.sum(axis=2)
    constant = count == 0
    # A constant non-strict row 0 <= rhs is satisfiable iff rhs >= 0, and the
    # LP accepts it up to _FEAS_TOL. Constant strict rows follow the general
    # strict rule below.
    infeasible = np.any(constant & ~strict & (b < -_FEAS_TOL), axis=1)
    # a_k u_k > rhs (strict) bounds u_k from below when a_k > 0; a
    # non-strict row does when a_k < 0.
    fold = (count == 1)[..., None] & nonzero
    lower = fold & (strict[..., None] == (A > 0.0))
    upper = fold & ~lower
    lo, hi = box[..., 0], box[..., 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        bound = b[..., None] / A
    for i in range(A.shape[1]):
        lo = np.where(lower[:, i], np.maximum(lo, bound[:, i]), lo)
        hi = np.where(upper[:, i], np.minimum(hi, bound[:, i]), hi)
    # Box sides and single-variable rows are unit rows once the LP scales
    # them, and it lets a vertex pass each by up to _FEAS_TOL: a folded box
    # inverted by less is left to the LP.
    infeasible |= np.any(
        lo - hi > _FEAS_TOL + _SCREEN_ROUNDING * (np.abs(lo) + np.abs(hi)), axis=1)

    # Row-wise interval bounds over the folded box. A strict row's largest
    # slack reach_hi - b is compared with TOL_STRICT, as the LP compares its
    # slack; a non-strict row's least violation reach_lo - b with the
    # _FEAS_TOL times its largest coefficient that the LP lets a vertex
    # violate it by. The LP reaches either by elimination, which rounds
    # differently, so a row settles infeasibility only when it misses its
    # threshold by _SCREEN_ROUNDING times the row's magnitude.
    at_lo, at_hi = A * lo[:, None, :], A * hi[:, None, :]
    reach_hi = _ordered_sum(np.maximum(at_lo, at_hi))
    reach_lo = _ordered_sum(np.minimum(at_lo, at_hi))
    size = _ordered_sum(np.maximum(np.abs(at_lo), np.abs(at_hi))) + np.abs(b)
    unreachable = reach_hi - b <= TOL_STRICT - _SCREEN_ROUNDING * size
    violated = reach_lo - b > _FEAS_TOL * np.abs(A).max(axis=2) + _SCREEN_ROUNDING * size
    infeasible |= np.any(np.where(strict, unreachable, ~constant & violated), axis=1)

    # The center settles feasibility when each strict row's slack clears
    # TOL_STRICT by the same rounding margin: the LP's optimum, rounded, may
    # fall to TOL_STRICT where the center's slack is an ulp above it.
    center = 0.5 * (lo + hi)
    val = _ordered_sum(A * center[:, None, :])
    slack = val - b
    cleared = slack > TOL_STRICT + _SCREEN_ROUNDING * size
    feasible = (np.all(np.where(strict, cleared, val <= b), axis=1)
                & np.all(lo <= hi, axis=1))
    margin = np.minimum(DELTA_CAP, np.where(strict, slack, np.inf).min(axis=1, initial=np.inf))
    status = np.where(infeasible, INFEASIBLE, np.where(feasible, FEASIBLE, OPEN))
    settled = status == FEASIBLE
    return Decisions(status, np.where(settled[:, None], center, np.nan),
                     np.where(settled, margin, 0.0))


def _ordered_sum(terms: np.ndarray) -> np.ndarray:
    """Sum over the last axis from the left, as Python's sum() adds."""
    total = np.zeros(terms.shape[:-1])
    for k in range(terms.shape[-1]):
        total = total + terms[..., k]
    return total


def _slack_rows(A, b, strict, balanced: bool):
    """Rows (G, h) of the slack LPs in z = (u, d), as G z <= h, for stacked
    rows A (..., r, m), b and strict (..., r).

    Strict rows are negated into <= form and always carry +d; non-strict
    rows carry it only in the balanced form."""
    sign = np.where(strict, -1.0, 1.0)
    slack = (strict | balanced).astype(float)
    return np.concatenate([sign[..., None] * A, slack[..., None]], axis=-1), sign * b


def _decisions(z, carries_slack, box) -> Decisions:
    """Decisions of stacked slack-LP optima z (N, m + 1), NaN rows where the
    LP is empty, over boxes (N, m, 2). A system none of whose rows carries
    the slack is a plain feasibility check, feasible with margin DELTA_CAP."""
    delta = z[:, -1]
    empty = np.isnan(delta)
    feasible = ~empty & (~carries_slack | (delta > TOL_STRICT))
    status = np.where(empty, EMPTY, np.where(feasible, FEASIBLE, INFEASIBLE))
    witness = np.where(feasible[:, None], np.clip(z[:, :-1], box[..., 0], box[..., 1]), np.nan)
    margin = np.where(empty, 0.0, np.where(carries_slack, delta, DELTA_CAP))
    return Decisions(status, witness, margin)


def _slack_bounds(box: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper bounds of z = (u, d) from the control box(es)."""
    pad = np.zeros(box.shape[:-2] + (1,))
    return (np.concatenate([box[..., 0], pad], axis=-1),
            np.concatenate([box[..., 1], pad + DELTA_CAP], axis=-1))


@lru_cache(maxsize=64)
def _subsets(n_rows: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Constraint matrix of the k variable bounds, (2k, k) as [-I; I], and
    every k-subset of the n_rows + 2k constraints (rows, then lower, then
    upper bounds) in lexicographic order, less those holding both bounds of
    one variable, which are always singular."""
    bounds = np.concatenate([-np.eye(k), np.eye(k)])
    idx = np.array([c for c in itertools.combinations(range(n_rows + 2 * k), k)
                    if not any(n_rows + j in c and n_rows + k + j in c
                               for j in range(k))],
                   dtype=np.intp).reshape(-1, k)
    bounds.setflags(write=False)
    idx.setflags(write=False)
    return bounds, idx


@lru_cache(maxsize=64)
def _faces(n_rows: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The faces of the k-subsets of _subsets(n_rows, k): every (k - 1)-subset
    that remains of one when a position is dropped, (F, k - 1) in
    lexicographic order, and, per k-subset and position i, the index of the
    face without position i, (S, k)."""
    idx = _subsets(n_rows, k)[1].tolist()
    faces = sorted({tuple(s[:i] + s[i + 1:]) for s in idx for i in range(k)})
    position = {face: f for f, face in enumerate(faces)}
    face_of = np.array([[position[tuple(s[:i] + s[i + 1:])] for i in range(k)] for s in idx],
                       dtype=np.intp).reshape(-1, k)
    faces = np.array(faces, dtype=np.intp).reshape(-1, k - 1)
    faces.setflags(write=False)
    face_of.setflags(write=False)
    return faces, face_of


@lru_cache(maxsize=8)
def _leibniz(k: int) -> tuple[np.ndarray, np.ndarray]:
    """The Leibniz expansion of a k x k determinant along its first row:
    for each permutation p of range(k), the columns p[1:] its product takes
    from the other rows, (k!, k - 1), and its sign placed in column p[0],
    (k!, k)."""
    perms = list(itertools.permutations(range(k)))
    cols = np.array([p[1:] for p in perms], dtype=np.intp).reshape(len(perms), k - 1)
    signs = np.zeros((len(perms), k))
    for t, p in enumerate(perms):
        inversions = sum(p[i] > p[j] for i in range(k) for j in range(i + 1, k))
        signs[t, p[0]] = (-1.0) ** inversions
    cols.setflags(write=False)
    signs.setflags(write=False)
    return cols, signs


def _cofactors(X: np.ndarray) -> np.ndarray:
    """Cofactor vectors of stacked faces X (..., k - 1, k): c[..., j] is
    (-1)^j times the determinant of X without column j, so that a . c is
    the determinant of the k x k matrix with row a on top of X. k! products
    of k - 1 entries each, so for small k."""
    k = X.shape[-1]
    cols, signs = _leibniz(k)
    return X[..., np.arange(k - 1), cols].prod(axis=-1) @ signs


def _enumerate_vertices(G, h, box) -> np.ndarray:
    """Exact slack LPs for a stack of same-shape blocks: rows G (B, r, k),
    h (B, r) and control boxes (B, k - 1, 2), with d the last of the k
    variables. Returns the optima (B, k), NaN rows for empty blocks.

    Each k-subset of the constraints, solved as equalities, is a candidate
    vertex; the feasible candidates are the vertices of the bounded feasible
    set, and the one with the largest d is optimal. The candidates come in
    closed form from one table of cofactor vectors, one per face of the
    subsets (see _faces): a subset's determinant is its first row times the
    cofactors of the face of its other rows, and its vertex is Cramer's
    rule, the faces' cofactors weighted by the signed right-hand sides over
    that determinant. These values select the optimum: the regular subsets,
    the feasible candidates among them and, of those, the largest d, the
    first in subset order on ties. Cramer's rule is not backward stable, so
    the optimum returned is the LU solution of the selected subset. Where
    several vertices attain the largest d to within rounding, the one
    selected may depend on that rounding; its d and the verdict do not."""
    n_blocks, r, k = G.shape
    bounds, idx = _subsets(r, k)
    faces, face_of = _faces(r, k)
    # Unit max-norm rows make the tolerances scale-free.
    scale = np.abs(G).max(axis=2, initial=0.0)
    scale[scale == 0.0] = 1.0
    lo, hi = _slack_bounds(box)
    M = np.concatenate(
        [G / scale[..., None], np.broadcast_to(bounds, (n_blocks, 2 * k, k))], axis=1)
    q = np.concatenate([h / scale, -lo, hi], axis=1)
    # adjugate[:, s, i] is the cofactor vector of subset s's face without
    # position i: row i of the subset's cofactor matrix, up to (-1)^i.
    adjugate = _cofactors(M[:, faces])[:, face_of]
    det = (M[:, idx[:, 0]] * adjugate[:, :, 0]).sum(axis=2)
    signed_q = q[:, idx] * (-1.0) ** np.arange(k)
    adjugate_q = (signed_q[..., None] * adjugate).sum(axis=2)
    regular = np.abs(det) > _SINGULAR_DET
    z = np.divide(adjugate_q, det[..., None], out=np.zeros_like(adjugate_q),
                  where=regular[..., None])
    feasible = regular & np.all(
        z @ M.transpose(0, 2, 1) <= q[:, None, :] + _FEAS_TOL, axis=2)
    best = np.where(feasible, z[..., -1], -np.inf).argmax(axis=1)
    found = np.nonzero(feasible[np.arange(n_blocks), best])[0]
    rows = idx[best[found]]
    out = np.full((n_blocks, k), np.nan)
    out[found] = np.linalg.solve(M[found[:, None], rows],
                                 q[found[:, None], rows][..., None])[..., 0]
    return out


def _highs(G, h, box) -> np.ndarray:
    """The slack LP G z <= h over the bounds of z = (u, d) from the control
    box, by HiGHS. Returns its optimum. Only a certificate of infeasibility
    (HiGHS status 2) marks the system empty, with an optimum of NaNs; any
    other failure raises, since reporting it as empty would certify a reach
    edge Absent on a solver hiccup."""
    c = np.zeros(G.shape[1])
    c[-1] = -1.0
    lo, hi = _slack_bounds(box)
    res = linprog(c, A_ub=G if len(h) else None, b_ub=h if len(h) else None,
                  bounds=np.column_stack([lo, hi]), method="highs", options=_LP_OPTIONS)
    if res.status == 2:
        return np.full(G.shape[1], np.nan)
    if res.status != 0:
        raise RuntimeError(f"HiGHS failed with status {res.status}: {res.message}")
    return res.x

"""Feasibility of mixed strict/non-strict linear inequality systems over a
box-constrained control variable.

A system is one array form, LinearConstraintSystem(A, b, strict, box): row
i reads A[i] . u > b[i] where strict[i] and A[i] . u <= b[i] elsewhere, with
u in the control box. A SystemStack holds N systems of one shape as (N, r, m)
/ (N, r) / (N, r) / (N, m, 2) arrays, and decide_stacks is the one core that
decides them: one NumPy pass of the interval screen over a whole stack when
asked, then the exact slack LP of every system the screen left open. The
reach walks call _screen once per stack they build and decide_stacks once
per round, on the requests the screen left open.
decide_feasibility (strict-slack LP of one system), balance_witnesses_batch
(balanced LP of several) and screen_feasibility (the screen of one system)
are views of that core.

Strict inequalities are certified by slack maximization: the system is
feasible iff the maximal common slack of the strict rows exceeds TOL_STRICT,
and the achieved slack doubles as a robustness margin.

The slack LP lives in z = (u, d) with the control box bounding u and
0 <= d <= DELTA_CAP bounding d, so its feasible set is a polytope. A
nonempty polytope has a vertex, each vertex solves some m + 1 of the
constraints as equalities, and the maximum of d is attained at a vertex. For
m <= 3 inputs every such subset is solved in batched NumPy calls, a chunk of
stacked systems at a time: the feasible candidate with the largest d is the
exact optimum, and an empty candidate set proves the polytope empty rather
than reporting a solver status. Larger m goes to HiGHS, whose infeasibility
status alone certifies emptiness; any other failure raises RuntimeError.
SciPy is imported only when HiGHS runs.
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
# screen leaves strict rows this much closer to TOL_STRICT to the LP.
_SCREEN_ROUNDING = 1e-12
# Vertex enumeration holds C(r + 2k, k) k x k subsets per system, so a stack
# is enumerated this many systems at a time; that bounds the working set to
# about a megabyte whatever the stack size.
_CHUNK_BLOCKS = 64


def linprog(*args, **kwargs):
    """scipy.optimize.linprog, imported on first use: only slack LPs with
    more than _ENUM_MAX_DIM inputs reach HiGHS, and importing SciPy costs
    about half a second and 50 MB per process."""
    from scipy.optimize import linprog as scipy_linprog

    return scipy_linprog(*args, **kwargs)


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
        self.box = np.asarray(self.box, dtype=float)
        if self.box.ndim != 2 or self.box.shape[1] != 2:
            raise ValueError("box must be (dim, 2)")
        if np.any(self.box[:, 0] > self.box[:, 1]):
            raise ValueError("empty control box")
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
    res = decide_stacks([SystemStack.of([sys])])[0][0]
    return FeasibilityResult(False, None, 0.0) if res is None else res


def balance_witnesses_batch(
    systems: list[LinearConstraintSystem],
) -> list[FeasibilityResult] | None:
    """Maximize a uniform slack over all rows of each system:

        max d  s.t.  a.u >= rhs + d   (strict rows)
                     a.u <= rhs - d   (non-strict rows)
                     u in box, 0 <= d <= DELTA_CAP

    The systems are independent and are solved together.

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
    for members, results in zip(groups.values(), decide_stacks(stacks, balanced=True)):
        for i, res in zip(members, results):
            out[i] = res
    if any(res is None for res in out):
        return None
    return out


def screen_feasibility(sys: LinearConstraintSystem) -> FeasibilityResult | None:
    """The interval screen of one system (see _screen); None when it is
    inconclusive."""
    return _screen_result(*_screen(SystemStack.of([sys])), 0)


def decide_stacks(
    stacks: list[SystemStack], balanced: bool | Sequence[bool] = False, screened: bool = False
) -> list[list[FeasibilityResult | None]]:
    """Slack-LP results of every system of every stack, one list per stack
    in system order. None marks a system whose slack LP is empty: even with
    d = 0, which relaxes every strict row to non-strict, no input fits.

    balanced selects the balanced LP of balance_witnesses_batch over the
    strict-slack LP of decide_feasibility, for every stack or, as a
    sequence, for each stack. screened (strict-slack LP only)
    first runs the interval screen over each whole stack; a system it
    settles takes the screen's result, FeasibilityResult(False, None, 0.0)
    when infeasible, and only the others are solved.

    Stacks with at most _ENUM_MAX_DIM inputs are enumerated _CHUNK_BLOCKS
    systems at a time; the systems of all larger stacks share one HiGHS
    call."""
    out = []
    large = []  # (results, index, carries slack, (G, h, box)) per system for HiGHS
    forms = [balanced] * len(stacks) if isinstance(balanced, bool) else balanced
    for stack, form in zip(stacks, forms):
        n_sys, _, dim = stack.A.shape
        results: list[FeasibilityResult | None] = [None] * n_sys
        todo = np.arange(n_sys)
        if screened:
            screen = _screen(stack)
            for i in np.flatnonzero(screen[0]):
                results[i] = _screen_result(*screen, i)
            todo = np.flatnonzero(screen[0] == 0)
        out.append(results)
        if not len(todo):
            continue
        rest = stack.take(todo)
        G, h = _slack_rows(rest.A, rest.b, rest.strict, form)
        carries_slack = G[..., -1].any(axis=1).tolist()
        if dim > _ENUM_MAX_DIM:
            large += [(results, i, carries_slack[t], (G[t], h[t], rest.box[t]))
                      for t, i in enumerate(todo)]
            continue
        for start in range(0, len(todo), _CHUNK_BLOCKS):
            chunk = slice(start, start + _CHUNK_BLOCKS)
            optima = _enumerate_vertices(G[chunk], h[chunk], rest.box[chunk])
            for t, z in enumerate(optima, start):
                results[todo[t]] = _result(rest.box[t], carries_slack[t], z)
    if large:
        for (results, i, carries, block), z in zip(large, _highs([blk for *_, blk in large])):
            results[i] = _result(block[2], carries, z)
    return out


def _screen(stack: SystemStack) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cheap interval screen of every system in a stack, exact-consistent
    with the LP verdict threshold: verdict (N,) is -1 (infeasible), +1
    (feasible, with the witness center (N, m) and the margin (N,)) or 0
    (inconclusive).

    Single-variable rows are folded into the box first; then either some row
    is unsatisfiable over the folded box (infeasible) or the folded-box
    center satisfies every row with slack above TOL_STRICT (feasible).
    Folds and sums run row by row and term by term, in the order of the
    scalar reference walk, so the two agree to the bit."""
    A, b, strict, box = stack
    nonzero = A != 0.0
    count = nonzero.sum(axis=2)
    constant = count == 0
    # A constant row is satisfiable iff 0 > rhs (strict) / 0 <= rhs.
    infeasible = np.any(constant & np.where(strict, 0.0 <= b + TOL_STRICT, b < 0.0), axis=1)
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
    infeasible |= np.any(lo > hi, axis=1)

    # Row-wise interval bounds over the folded box. A strict row's largest
    # slack reach_hi - b is compared with TOL_STRICT, as the LP compares its
    # slack; the LP reaches that slack by elimination, which rounds it
    # differently, so a strict row settles infeasibility only when its slack
    # stays _SCREEN_ROUNDING times the row's magnitude below the threshold.
    at_lo, at_hi = A * lo[:, None, :], A * hi[:, None, :]
    reach_hi = _ordered_sum(np.maximum(at_lo, at_hi))
    reach_lo = _ordered_sum(np.minimum(at_lo, at_hi))
    size = _ordered_sum(np.maximum(np.abs(at_lo), np.abs(at_hi))) + np.abs(b)
    unreachable = reach_hi - b <= TOL_STRICT - _SCREEN_ROUNDING * size
    infeasible |= np.any(~constant & np.where(strict, unreachable, reach_lo > b), axis=1)

    center = 0.5 * (lo + hi)
    val = _ordered_sum(A * center[:, None, :])
    slack = val - b
    feasible = np.all(np.where(strict, slack > TOL_STRICT, val <= b), axis=1)
    margin = np.minimum(DELTA_CAP, np.where(strict, slack, np.inf).min(axis=1, initial=np.inf))
    verdict = np.where(infeasible, -1, np.where(feasible, 1, 0))
    return verdict, center, margin


def _screen_result(verdict, center, margin, i: int) -> FeasibilityResult | None:
    """System i's result from a _screen pass; None when it is inconclusive."""
    if verdict[i] < 0:
        return FeasibilityResult(False, None, 0.0)
    if verdict[i] > 0:
        return FeasibilityResult(True, center[i].copy(), float(margin[i]))
    return None


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


def _result(box, carries_slack: bool, z) -> FeasibilityResult | None:
    if z is None:
        return None
    u = np.clip(z[:-1], box[:, 0], box[:, 1])
    if not carries_slack:
        # No row carries the slack: a plain feasibility check.
        return FeasibilityResult(True, u, DELTA_CAP)
    delta = float(z[-1])
    if delta <= TOL_STRICT:
        return FeasibilityResult(False, None, delta)
    return FeasibilityResult(True, u, delta)


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


def _enumerate_vertices(G, h, box) -> list[np.ndarray | None]:
    """Exact slack LPs for a stack of same-shape blocks: rows G (B, r, k),
    h (B, r) and control boxes (B, k - 1, 2), with d the last of the k
    variables.

    Each k-subset of the constraints is solved as equalities; the feasible
    solutions are the vertices of the bounded feasible set, and the one with
    the largest d (the first in subset order on ties) is optimal. Optima are
    copied out, so that no result pins the stack's arrays."""
    n_blocks, r, k = G.shape
    bounds, idx = _subsets(r, k)
    # Unit max-norm rows make the tolerances scale-free.
    scale = np.abs(G).max(axis=2, initial=0.0)
    scale[scale == 0.0] = 1.0
    lo, hi = _slack_bounds(box)
    M = np.concatenate(
        [G / scale[..., None], np.broadcast_to(bounds, (n_blocks, 2 * k, k))], axis=1)
    q = np.concatenate([h / scale, -lo, hi], axis=1)
    sub = M[:, idx]
    regular = np.abs(np.linalg.det(sub)) > _SINGULAR_DET
    where = np.nonzero(regular)
    z = np.zeros(regular.shape + (k,))
    z[where] = np.linalg.solve(sub[where], q[:, idx][where][..., None])[..., 0]
    feasible = regular & np.all(
        z @ M.transpose(0, 2, 1) <= q[:, None, :] + _FEAS_TOL, axis=2)
    best = np.where(feasible, z[..., -1], -np.inf).argmax(axis=1)
    return [z[b, best[b]].copy() if feasible[b, best[b]] else None for b in range(n_blocks)]


def _highs(blocks) -> list[np.ndarray | None]:
    """All (G, h, box) blocks in one block-diagonal HiGHS LP maximizing the
    sum of the per-block slacks; the blocks share no variables, so each is
    optimized individually. Only a certificate of infeasibility (HiGHS
    status 2) marks a block empty; any other failure raises, since
    reporting it as empty would certify a reach edge Absent on a solver
    hiccup. An infeasible LP of several blocks only says that some block is
    empty, so each block is then solved alone."""
    cols = np.cumsum([0] + [G.shape[1] for G, _, _ in blocks])
    rows = np.cumsum([0] + [len(h) for _, h, _ in blocks])
    c = np.zeros(cols[-1])
    c[cols[1:] - 1] = -1.0
    a_ub = np.zeros((rows[-1], cols[-1]))
    for (G, _, _), r0, r1, c0, c1 in zip(blocks, rows, rows[1:], cols, cols[1:]):
        a_ub[r0:r1, c0:c1] = G
    b_ub = np.concatenate([h for _, h, _ in blocks])
    lo, hi = (np.concatenate(lims) for lims in zip(*(_slack_bounds(box) for _, _, box in blocks)))
    res = linprog(c, A_ub=a_ub if len(b_ub) else None, b_ub=b_ub if len(b_ub) else None,
                  bounds=np.column_stack([lo, hi]), method="highs", options=_LP_OPTIONS)
    if res.status == 2:
        return [None] if len(blocks) == 1 else [z for blk in blocks for z in _highs([blk])]
    if res.status != 0:
        raise RuntimeError(f"HiGHS failed with status {res.status}: {res.message}")
    return [res.x[cols[i]:cols[i + 1]] for i in range(len(blocks))]

"""Feasibility of mixed strict/non-strict linear inequality systems over a
box-constrained control variable.

A system is one array form, LinearConstraintSystem(A, b, strict, box): row
i reads A[i] . u > b[i] where strict[i] and A[i] . u <= b[i] elsewhere, with
u in the control box. Two exact entry points share one slack-LP core:
decide_feasibility solves the strict-slack LP of one system, and
balance_witnesses_batch the balanced LP of several systems at once.
screen_feasibility and decide_with_screen put a cheap interval screen in
front of the exact decision.

Strict inequalities are certified by slack maximization: the system is
feasible iff the maximal common slack of the strict rows exceeds TOL_STRICT,
and the achieved slack doubles as a robustness margin.

The slack LP lives in z = (u, d) with the control box bounding u and
0 <= d <= DELTA_CAP bounding d, so its feasible set is a polytope. A
nonempty polytope has a vertex, each vertex solves some m + 1 of the
constraints as equalities, and the maximum of d is attained at a vertex. For
m <= 3 inputs every such subset is solved in one batched NumPy call: the
feasible candidate with the largest d is the exact optimum, and an empty
candidate set proves the polytope empty rather than reporting a solver
status. Larger m goes to HiGHS, whose infeasibility status alone certifies
emptiness; any other failure raises RuntimeError.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import block_diag
from scipy.optimize import linprog

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


def decide_feasibility(sys: LinearConstraintSystem) -> FeasibilityResult:
    """Maximize the common slack d of the strict rows:

        max d  s.t.  a.u >= rhs + d   (strict rows)
                     a.u <= rhs       (non-strict rows)
                     u in box, 0 <= d <= DELTA_CAP

    Feasible iff d* > TOL_STRICT. Without strict rows this degenerates to a
    plain feasibility check with margin DELTA_CAP.
    """
    G, h = _slack_rows(sys, balanced=False)
    return _result(sys, G, _max_slack([(sys, G, h)])[0])


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
    blocks = [(sys, *_slack_rows(sys, balanced=True)) for sys in systems]
    optima = _max_slack(blocks)
    if any(z is None for z in optima):
        return None
    return [_result(sys, G, z) for (sys, G, _), z in zip(blocks, optima)]


def _slack_rows(sys: LinearConstraintSystem, balanced: bool):
    """Rows (G, h) of the slack LP in z = (u, d), as G z <= h.

    Strict rows are negated into <= form and always carry +d; non-strict
    rows carry it only in the balanced form."""
    sign = np.where(sys.strict, -1.0, 1.0)
    slack = (sys.strict | balanced).astype(float)
    return np.column_stack([sign[:, None] * sys.A, slack]), sign * sys.b


def _result(sys, G, z) -> FeasibilityResult:
    if z is None:
        return FeasibilityResult(False, None, 0.0)
    u = np.clip(z[:sys.dim], sys.box[:, 0], sys.box[:, 1])
    if not G[:, -1].any():
        # No row carries the slack: a plain feasibility check.
        return FeasibilityResult(True, u, DELTA_CAP)
    delta = float(z[-1])
    if delta <= TOL_STRICT:
        return FeasibilityResult(False, None, delta)
    return FeasibilityResult(True, u, delta)


def _max_slack(blocks) -> list[np.ndarray | None]:
    """Maximize d over {z = (u, d) : G z <= h, u in box, 0 <= d <= DELTA_CAP}
    for each (system, G, h) block; None marks an empty block.

    Blocks with at most _ENUM_MAX_DIM inputs are solved by vertex
    enumeration, grouped by shape; the rest share one HiGHS call."""
    if len(blocks) == 1 and blocks[0][0].dim <= _ENUM_MAX_DIM:
        sys, G, h = blocks[0]
        return _enumerate_vertices(G[None], h[None], sys.box[None])
    out: list[np.ndarray | None] = [None] * len(blocks)
    groups: dict[tuple[int, int], list[int]] = {}
    large = []
    for i, (sys, G, _) in enumerate(blocks):
        if sys.dim <= _ENUM_MAX_DIM:
            groups.setdefault(G.shape, []).append(i)
        else:
            large.append(i)
    for members in groups.values():
        zs = _enumerate_vertices(*(np.stack(parts) for parts in zip(
            *((blocks[i][1], blocks[i][2], blocks[i][0].box) for i in members))))
        for i, z in zip(members, zs):
            out[i] = z
    if large:
        for i, z in zip(large, _highs([blocks[i] for i in large])):
            out[i] = z
    return out


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
    the largest d (the first in subset order on ties) is optimal."""
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
    return [z[b, best[b]] if feasible[b, best[b]] else None for b in range(n_blocks)]


def _highs(blocks) -> list[np.ndarray | None]:
    """All blocks in one block-diagonal HiGHS LP maximizing the sum of the
    per-block slacks; the blocks share no variables, so each is optimized
    individually. Only a certificate of infeasibility (HiGHS status 2) marks
    the blocks empty; any other failure raises, since reporting it as empty
    would certify a reach edge Absent on a solver hiccup."""
    offsets = np.cumsum([0] + [G.shape[1] for _, G, _ in blocks])
    c = np.zeros(offsets[-1])
    c[offsets[1:] - 1] = -1.0
    b_ub = np.concatenate([h for _, _, h in blocks])
    a_ub = block_diag(*(G for _, G, _ in blocks)) if len(b_ub) else None
    lo, hi = (np.concatenate(lims) for lims in
              zip(*(_slack_bounds(sys.box) for sys, _, _ in blocks)))
    res = linprog(c, A_ub=a_ub, b_ub=b_ub if len(b_ub) else None,
                  bounds=np.column_stack([lo, hi]), method="highs", options=_LP_OPTIONS)
    if res.status == 2:
        return [None] * len(blocks)
    if res.status != 0:
        raise RuntimeError(f"HiGHS failed with status {res.status}: {res.message}")
    return [res.x[offsets[i]:offsets[i + 1]] for i in range(len(blocks))]


def screen_feasibility(sys: LinearConstraintSystem) -> FeasibilityResult | None:
    """Cheap interval-arithmetic screen, exact-consistent with the LP verdict
    threshold. Returns None when inconclusive.

    Single-variable rows are folded into the box first; then either some row
    is unsatisfiable over the folded box (infeasible) or the folded-box
    center satisfies every row with slack above TOL_STRICT (feasible).
    The rows are walked as Python floats so that the screen stops at the
    first conclusive row; on systems of a few rows that beats whole-array
    NumPy passes.
    """
    lo = sys.box[:, 0].tolist()
    hi = sys.box[:, 1].tolist()
    rows = list(zip(sys.A.tolist(), sys.b.tolist(), sys.strict.tolist()))
    general = []
    for a, rhs, strict in rows:
        nz = [k for k, c in enumerate(a) if c != 0.0]
        if not nz:
            # constant row: satisfiable iff 0 > rhs (strict) / 0 <= rhs
            if (0.0 <= rhs + TOL_STRICT) if strict else (rhs < 0.0):
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
    if any(l > h for l, h in zip(lo, hi)):
        return FeasibilityResult(False, None, 0.0)

    # Row-wise interval bounds over the folded box.
    for a, rhs, strict in general:
        if strict:
            if sum(max(c * l, c * h) for c, l, h in zip(a, lo, hi)) <= rhs + TOL_STRICT:
                return FeasibilityResult(False, None, 0.0)
        elif sum(min(c * l, c * h) for c, l, h in zip(a, lo, hi)) > rhs:
            return FeasibilityResult(False, None, 0.0)

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


def decide_with_screen(sys: LinearConstraintSystem) -> FeasibilityResult:
    """Screen first, exact LP on the ambiguous remainder."""
    out = screen_feasibility(sys)
    if out is not None:
        return out
    return decide_feasibility(sys)

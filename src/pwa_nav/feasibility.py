"""Feasibility of mixed strict/non-strict linear inequality systems over a
box-constrained control variable.

A system is one array form, LinearConstraintSystem(A, b, strict, box): row
i reads A[i] . u > b[i] where strict[i] and A[i] . u <= b[i] elsewhere, with
u in the control box. A SystemStack holds N systems of one shape as (N, r, m)
/ (N, r) / (N, r) / (N, m, 2) arrays, and the exact slack LP of every system
of a stack, each system by itself (decide_stacks), gives one
Decisions(status, witness, margin) of arrays: status FEASIBLE, INFEASIBLE or
EMPTY (the slack LP has no point at all). The predictive reach rule settles
most vertices in closed form before any pattern stack exists, and sends the
pattern stack of the others to one decide_stacks call. Every box of a stack
is nonempty, lo <= hi on every input, as as_control_box requires of a
control box; decide_stacks raises ValueError on an inverted one.
decide_feasibility (strict-slack LP of one system) and
balance_witnesses_batch (balanced LP of several systems of one shape) are
views that stack their systems and read each entry of the Decisions as a
FeasibilityResult.

Strict inequalities are certified by slack maximization: the system is
feasible iff the maximal common slack of the strict rows exceeds TOL_STRICT,
and the achieved slack doubles as a robustness margin.

The slack LP lives in z = (u, d) with the control box bounding u and
0 <= d <= DELTA_CAP bounding d. Its dual has one variable per row, and the
rows are few (one per state dimension in the reach systems), so one kernel
solves it for every number of inputs (_optima): it takes the optimum and
emptiness from the dual's candidate rays, in closed form, and each
optimum's vertex from the ray that picks it, by one LU solve. An empty
system is proved empty by a ray of the dual (a Farkas certificate), never
by a solver status; a system whose vertex the kernel cannot find raises
RuntimeError unless the dual proves it infeasible.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import NamedTuple

import numpy as np

TOL_STRICT = 1e-7
DELTA_CAP = 1e6
# On rows scaled to unit max-norm, a vertex may violate a row or a box side
# by at most _FEAS_TOL (the roundoff of a small LU solve, well below
# TOL_STRICT).
_FEAS_TOL = 1e-9
# A ray of the dual is the signed minors of r - 1 plane normals (those rows
# and unit vectors): where all are below this, the planes are dependent up
# to rounding, and so is a ray's slack sum below it.
_SINGULAR_DET = 1e-12


# Unused here; the benchmark tracer (perfbench/tracer.py) wraps these bindings.
def linprog(*args, **kwargs):
    """scipy.optimize.linprog, imported on first use."""
    from scipy.optimize import linprog as scipy_linprog

    return scipy_linprog(*args, **kwargs)


def screen_feasibility(sys: LinearConstraintSystem) -> FeasibilityResult | None:
    """None: no screen rules a system out ahead of the LP."""
    return None


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


# Status of one system: OPEN (not decided) comes only from reach's closed
# form, never from the LP.
OPEN, FEASIBLE, INFEASIBLE, EMPTY = 0, 1, 2, 3


class Decisions(NamedTuple):
    """Slack-LP outcomes of N systems. status (N,) is FEASIBLE, INFEASIBLE
    or EMPTY (no input fits even with d = 0, which relaxes every strict row
    to non-strict); witness (N, m) holds the input where FEASIBLE and NaN
    elsewhere; margin (N,) is the achieved slack, 0 where EMPTY."""

    status: np.ndarray
    witness: np.ndarray
    margin: np.ndarray

    def result(self, i: int) -> FeasibilityResult:
        """System i as a FeasibilityResult."""
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
        """The stack of same-shape systems, in order; ValueError (from
        np.stack) when their shapes differ."""
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
    return decide_stacks(SystemStack.of([sys]), False).result(0)


def balance_witnesses_batch(
    systems: list[LinearConstraintSystem],
) -> list[FeasibilityResult] | None:
    """Maximize a uniform slack over all rows of each system:

        max d  s.t.  a.u >= rhs + d   (strict rows)
                     a.u <= rhs - d   (non-strict rows)
                     u in box, 0 <= d <= DELTA_CAP

    Each system is solved by itself. The systems must share one shape, else
    ValueError.

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
    decided = decide_stacks(SystemStack.of(systems), True)
    if np.any(decided.status == EMPTY):
        return None
    return [decided.result(i) for i in range(len(systems))]


def decide_stacks(stack: SystemStack, balanced: bool) -> Decisions:
    """The exact slack LP of every system of a stack: the balanced LP of
    balance_witnesses_batch where balanced, else the strict-slack LP of
    decide_feasibility. ValueError where some box has lo > hi."""
    if np.any(stack.box[..., 0] > stack.box[..., 1]):
        raise ValueError("empty control box")
    G, h = _slack_rows(stack.A, stack.b, stack.strict, balanced)
    return _decisions(_optima(G, h, stack.box), G[..., -1].any(axis=1), stack.box)


def _abs_max(A: np.ndarray) -> np.ndarray:
    """np.abs(A).max(axis=-1), exactly, as a loop over the few entries of
    the last axis, which is quicker than NumPy's reduction over it."""
    return reduce(np.maximum, [np.abs(A[..., k]) for k in range(A.shape[-1])])


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


@lru_cache(maxsize=64)
def _ray_planes(m: int, r: int) -> tuple[np.ndarray, ...]:
    """The rays of _optima's dual of r rows in m inputs, one per choice of
    r - 1 of its planes c_k = 0 and y_i = 0: per ray and coordinate j, the
    plane and column indices (R, r, r - 1, r - 1) of the minor whose
    determinant is y_j up to the sign (-1)^j, those signs, and masks of the
    inputs (R, m) and rows (R, r) whose plane is not chosen; then the unit
    normals of the planes y_i = 0 and the box sides [-I; I] of the inputs."""
    picks = list(itertools.combinations(range(m + r), r - 1))
    picks = np.array(picks, dtype=np.intp).reshape(len(picks), r - 1)
    chosen = np.zeros((len(picks), m + r), dtype=bool)
    chosen[np.arange(len(picks))[:, None], picks] = True
    minors = np.array([[i for i in range(r) if i != j] for j in range(r)],
                      dtype=np.intp).reshape(r, r - 1)
    eye = np.eye(m, m + 1)
    out = (np.broadcast_arrays(picks[:, None, :, None], minors[None, :, None, :]),
           (-1.0) ** np.arange(r), ~chosen[:, :m], ~chosen[:, m:], np.eye(r),
           np.concatenate([-eye, eye]))
    for a in (*out[0], *out[1:]):
        a.setflags(write=False)
    return out


def _optima(G, h, box) -> np.ndarray:
    """Exact slack LPs max d s.t. G z <= h over the bounds of z = (u, d) for
    a stack of same-shape systems: rows G (N, r, m + 1), h (N, r) and
    nonempty control boxes (N, m, 2), lo <= hi. Returns the optima
    (N, m + 1), NaN rows for empty systems.

    On rows scaled to unit max-norm, the dual has one variable y_i >= 0 per
    row. With c = G_u^T y, phi(y) = y . h + sum_k max(-c_k lo_k, -c_k hi_k)
    and sigma = s . y for the slack column s, the optimum is the least
    phi / sigma over sigma > 0, capped at DELTA_CAP. phi is linear between
    the planes c_k = 0 and y_i = 0, so it is enough to look at the rays where
    r - 1 of them meet (_ray_planes), scaled to sum(y) = 1. A system is
    empty where a ray has phi < -_FEAS_TOL: no input of the box then meets
    every row to within _FEAS_TOL. Otherwise the rays are tried in
    increasing phi / sigma. By
    complementary slackness a ray picks the vertex on its rows with y_i > 0,
    with u_k at lo_k where c_k >= 0 and at hi_k where c_k < 0, except on its
    planes c_k = 0, where u_k comes from the rows. That subset of m + 1
    constraints is solved by LU, and the first vertex that meets every row
    and box side to within _FEAS_TOL is optimal. Among tied optima, the one
    kept may depend on rounding; its d and the verdict do not.

    A system none of whose rows carries the slack is a plain feasibility
    check: its input is the vertex with a unit slack on every row, the least
    violation of its rows, and its d is DELTA_CAP. A system with no vertex
    kept gets d = 0 where a ray shows that no input reaches the slack
    TOL_STRICT (phi < TOL_STRICT * sigma); any other raises RuntimeError,
    since an infeasible or empty verdict would certify a reach edge Absent
    on a kernel fault."""
    n_sys, r, k = G.shape
    m = k - 1
    lo, hi = box[..., 0], box[..., 1]
    if r == 0:
        # No rows: the lower corner of the box, at the cap.
        return np.concatenate([lo, np.full((n_sys, 1), DELTA_CAP)], axis=1)
    minors, signs, fixed, tight, units, sides = _ray_planes(m, r)
    # Constraints W[..., :k] z <= W[..., k]: the rows scaled to unit
    # max-norm, then the lower and the upper sides of the input box. d is
    # never bounded on a ray's vertex.
    scale = _abs_max(G)
    scale[scale == 0.0] = 1.0
    W = np.empty((n_sys, r + 2 * m, k + 1))
    np.divide(G, scale[..., None], out=W[:, :r, :k])
    np.divide(h, scale, out=W[:, :r, k])
    W[:, r:, :k] = sides
    W[:, r:r + m, k] = -lo
    W[:, r + m:, k] = hi
    M, q = W[..., :k], W[..., k]
    carries_slack = G[..., -1].any(axis=1)
    W[~carries_slack, :r, m] = 1.0

    normals = np.empty((n_sys, m + r, r))
    normals[:, :m] = W[:, :r, :m].transpose(0, 2, 1)
    normals[:, m:] = units
    y = np.linalg.det(normals[:, minors[0], minors[1]]) * signs
    y = np.where((y < 0.0).any(axis=-1, keepdims=True), -y, y)
    ray = (y >= 0.0).all(axis=-1) & (y.max(axis=-1) > _SINGULAR_DET)
    np.divide(y, y.sum(axis=-1, keepdims=True), out=y, where=ray[..., None])
    # c, sigma and y . h of every ray.
    csh = y @ W[:, :r]
    c = csh[..., :m]
    phi = np.where(ray, csh[..., k] - np.minimum(c * lo[:, None], c * hi[:, None]).sum(axis=-1),
                   np.inf)
    sigma = csh[..., m]
    empty = (phi < -_FEAS_TOL).any(axis=1)
    ratio = np.full(phi.shape, np.inf)
    np.divide(phi, sigma, out=ratio, where=ray & (sigma > _SINGULAR_DET))
    order = np.argsort(ratio, axis=1, kind="stable")

    z = np.full((n_sys, k), np.nan)
    todo = np.flatnonzero(~empty)
    for rank in range(order.shape[1]):
        best = order[todo, rank]
        live = ratio[todo, best] < np.inf
        todo, best = todo[live], best[live]
        if not len(todo):
            break
        cb, fixed_b = c[todo, best], fixed[best]
        at_lo = fixed_b & (cb >= 0.0)
        z[todo] = _ray_vertex(M[todo], q[todo], at_lo, fixed_b, tight[best])
        failed = np.isnan(z[todo, -1])
        if not failed.any():
            break
        # Where c_k is within _FEAS_TOL of 0 the ray lies on that plane too,
        # and either side of u_k may hold a vertex of the optimal face.
        tied = fixed_b & (np.abs(cb) <= _FEAS_TOL) & failed[:, None]
        if tied.any():
            for flip in np.array(list(itertools.product((False, True), repeat=m)))[1:]:
                at = np.flatnonzero(np.isnan(z[todo, -1]) & ~(flip & ~tied).any(axis=1))
                z[todo[at]] = _ray_vertex(M[todo[at]], q[todo[at]], at_lo[at] ^ flip,
                                          fixed_b[at], tight[best[at]])
            failed = np.isnan(z[todo, -1])
        todo = todo[failed]
    todo = np.flatnonzero(~empty & np.isnan(z[:, -1]))
    if len(todo):
        certified = carries_slack[todo] & (phi[todo] < TOL_STRICT * sigma[todo]).any(axis=1)
        if not certified.all():
            raise RuntimeError(f"slack LP: no vertex found for {np.sum(~certified)} systems")
        z[todo, -1] = 0.0
    # Without a slack row, d is free up to the cap.
    z[~carries_slack & ~empty, -1] = DELTA_CAP
    return z


def _ray_vertex(M, q, at_lo, fixed, tight):
    """The vertices of T rays, NaN rows where one misses some constraint
    M z <= q by more than _FEAS_TOL: each solves its tight rows (T, r) and
    the lower or the upper side of each fixed input (at_lo and fixed,
    (T, m)) as equalities, m + 1 constraints in all. d is capped at
    DELTA_CAP."""
    subset = np.concatenate([tight, at_lo, fixed & ~at_lo], axis=1)
    idx = np.nonzero(subset)[1].reshape(len(M), M.shape[2])
    t = np.arange(len(M))[:, None]
    z = np.linalg.solve(M[t, idx], q[t, idx][..., None])[..., 0]
    z[:, -1] = np.minimum(z[:, -1], DELTA_CAP)
    kept = ((M @ z[..., None])[..., 0] <= q + _FEAS_TOL).all(axis=1)
    return np.where(kept[:, None], z, np.nan)

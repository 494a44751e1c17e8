"""Facet reachability on box cells.

Definitive decisions check, per cell vertex, feasibility of the exit-flow and
invariance inequalities in that vertex's control input. Predictive decisions
for cells with unidentified dynamics tighten (robust) or loosen (expanded)
those rows by deviation radii derived from the Lipschitz constants, branching
over the 2^m sign patterns of the control components. These are the vertex
conditions of Habets & van Schuppen (2004).

Each vertex system of an n-D box is one array-form system of n nominal
rows: the strict exit-flow row first, then the non-strict invariance row of
the facet 2d + (bit d of the vertex) of every other axis d, in axis order;
in prediction, one sign row per control input follows. A vertex off the
exit facet also lies on the opposite facet, exit_facet ^ 1, but its row is
left out: that facet's normal is the exit normal negated, so its row is
the exit row negated and made non-strict, bit for bit, in the nominal,
robust and expanded systems alike (the radii move both rows by the same
amounts with opposite signs). The exit row a . u > b then implies it,
-a . u <= -b; in the balanced LP it is the exit row's constraint a second
time. It never decides a verdict.

decide_exit_facets and predict_exit_facets build every vertex system of a
whole list of edges up front, in stacked array products over the edges'
cells (_nominal_stacks), into pools of one cell dimension and one kind each
(balanced and strict-slack LP in definitive decisions, robust and expanded
rows in prediction): a SystemStack and its Decisions, which start as the
interval screen's in prediction and all OPEN in definitive decisions.
With first the index of an edge's first vertex, its vertex j is system
first + j of each pool, and, in prediction, vertex j under sign pattern p
is system (first + j) * P + p.
Each edge's rule is written once, as a walk: a generator that yields the
(pool, index) of the system it needs next and receives that system's
status, stopping as soon as its verdict is settled. The walks run
together, in rounds: a request the pool has decided is answered at once,
and each round's OPEN requests are solved in one decide_stacks call, whose
decisions fill in the pools. Every system is decided by itself, so no
witness depends on what else is in the round.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .dynamics import AffineModel
from .feasibility import (
    FEASIBLE,
    INFEASIBLE,
    OPEN,
    TOL_STRICT,
    Decisions,
    LinearConstraintSystem,
    SystemStack,
    _screen,
    as_control_box,
    decide_stacks,
)
# Unused here; the benchmark tracer (perfbench/tracer.py) wraps these bindings.
from .feasibility import balance_witnesses_batch, decide_feasibility  # noqa: F401
from .geometry import Polytope, Simplex, find_containing_simplex, triangulate


class UnboundedTransitError(RuntimeError):
    pass


@dataclass
class ModelDeviationBounds:
    """Radii bounding the entrywise operator-norm distance between two cell
    linearizations."""

    eps_A: float
    eps_B: float
    eps_c: float

    def __post_init__(self):
        if min(self.eps_A, self.eps_B, self.eps_c) < 0:
            raise ValueError("deviation bounds must be nonnegative")


class ReachStatus(Enum):
    EXISTS = "exists"
    ABSENT = "absent"
    UNCERTAIN = "uncertain"


@dataclass
class ReachDecision:
    status: ReachStatus
    witnesses: list[np.ndarray] | None = None  # per-vertex inputs, iff EXISTS


def deviation_bounds(
    ref_model: AffineModel, x1, x2, L_df: float, L_g: float
) -> ModelDeviationBounds:
    """Lipschitz deviation radii between the linearization at x1 (= ref_model)
    and the unknown linearization at x2."""
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    d = float(np.linalg.norm(x2 - x1))
    a_norm = float(np.linalg.norm(ref_model.A, ord=2))
    eps_c = 2.0 * a_norm * d + 0.5 * L_df * d * d + L_df * d * float(np.linalg.norm(x2))
    return ModelDeviationBounds(L_df * d, L_g * d, eps_c)


class _Rows(NamedTuple):
    """Nominal rows of K vertex systems of n-D cells, n rows each."""

    item: np.ndarray  # (K,) index of the system's item
    norm: np.ndarray  # (K,) Euclidean norm of its vertex
    A: np.ndarray     # (K, n, m)
    b: np.ndarray     # (K, n)


def _norm(v: np.ndarray) -> np.ndarray:
    """Euclidean norms of stacked vectors v (..., n) as np.linalg.norm takes
    that of one vector: the square root of v @ v."""
    return np.sqrt((v[..., None, :] @ v[..., None])[..., 0, 0])


def _row_facet_index(n: int, exit_facet: np.ndarray, vertex: np.ndarray) -> np.ndarray:
    """Facets of the nominal rows of vertex systems of n-D boxes, (K, n) for
    exit facets and vertex indices (K,): the exit facet, then, for every
    other axis d in order, the facet 2d + (bit d of the vertex, axis 0 the
    most significant) that contains the vertex."""
    i = np.arange(n - 1)
    axis = i + (i >= (exit_facet // 2)[:, None])
    bit = (vertex[:, None] >> (n - 1 - axis)) & 1
    return np.concatenate([exit_facet[:, None], 2 * axis + bit], axis=1)


def _nominal_rows(items, vertex=None) -> _Rows:
    """Nominal rows of vertex systems of (cell, exit_facet, model, ...)
    items whose cells share a dimension n: of every vertex of every item,
    item-major (vertex j of item e is system e * 2^n + j), or, given
    vertex, of vertex[e] of item e alone.

    In the unknown input u_j at v_j, the exit row A[0] . u > b[0] comes
    first, then the invariance rows A[i] . u <= b[i] of _row_facet_index:
    with n a facet normal, the flow n . (A v + B u + c) must be positive
    through the exit facet and non-positive through the others. Each drift
    A v + c is one matrix-vector product, as model.A @ v + model.c."""
    n = items[0][0].dim
    if vertex is None:
        at = np.repeat(np.arange(len(items)), 2 ** n)
        vertex = np.tile(np.arange(2 ** n), len(items))
    else:
        at, vertex = np.arange(len(items)), np.asarray(vertex)
    V = np.stack([cell.vertices for cell, *_ in items])[at, vertex]
    drift = (np.stack([model.A for _, _, model, *_ in items])[at] @ V[..., None])[..., 0]
    drift += np.stack([model.c for _, _, model, *_ in items])[at]
    exit_facet = np.array([facet for _, facet, *_ in items])[at]
    # Every n-D box has the same unit normals.
    N = items[0][0].normals[_row_facet_index(n, exit_facet, vertex)]
    B = np.stack([model.B for _, _, model, *_ in items])[at]
    return _Rows(at, _norm(V), N @ B, -(N @ drift[..., None])[..., 0])


def _nominal_stacks(items):
    """The _Rows of every vertex of (cell, exit_facet, model, ...) items, one
    per cell dimension n, and, per item, its (n, index of its first vertex
    system) slot. The models share one input count."""
    kinds = {}
    for e, (cell, *_) in enumerate(items):
        kinds.setdefault(cell.dim, []).append(e)
    slots, stacks = [None] * len(items), {}
    for n, kind in kinds.items():
        rows = _nominal_rows([items[e] for e in kind])
        stacks[n] = rows._replace(item=np.asarray(kind)[rows.item])
        for t, e in enumerate(kind):
            slots[e] = (n, t * 2 ** n)
    return slots, stacks


def vertex_constraint_system(
    cell: Polytope,
    exit_facet: int,
    vertex_j: int,
    model: AffineModel,
    control_box,
) -> LinearConstraintSystem:
    """Nominal rows in the unknown input u_j: strict positive flow through
    the exit facet, non-strict inflow on the other facets containing v_j
    but the one opposite the exit facet (see the module docstring)."""
    rows = _nominal_rows([(cell, exit_facet, model)], [vertex_j])
    return LinearConstraintSystem(rows.A[0], rows.b[0], _exit_row_mask(cell.dim), control_box)


def _exit_row_mask(rows: int) -> np.ndarray:
    """Strict mask of the nominal rows: the exit-flow row alone."""
    strict = np.zeros(rows, dtype=bool)
    strict[0] = True
    return strict


class _Pool:
    """Every vertex system of one cell dimension and one kind, as one
    SystemStack decided under one LP form, and their Decisions: the
    screen's when screened, else all OPEN. Rounds fill in the systems the
    walks read."""

    def __init__(self, stack: SystemStack, balanced: bool = False, screened: bool = False):
        self.stack, self.balanced = stack, balanced
        self.decisions = (_screen(stack) if screened
                          else Decisions.open(len(stack.b), stack.A.shape[2]))


def _solve_round(requests) -> None:
    """Decide one round's OPEN (pool, index) requests in one decide_stacks
    call, one stack per pool, and record the decisions in the pools."""
    by_pool: dict[_Pool, list[int]] = {}
    for pool, i in requests:
        by_pool.setdefault(pool, []).append(i)
    pools, idx = list(by_pool), [np.array(ids) for ids in by_pool.values()]
    solved = decide_stacks([pool.stack.take(i) for pool, i in zip(pools, idx)],
                           [pool.balanced for pool in pools])
    for pool, i, decided in zip(pools, idx, solved):
        for field, values in zip(pool.decisions, decided):
            field[i] = values


def _run_walks(walks) -> list[ReachDecision]:
    """Run one-edge walks to their decisions, one per walk in order. A walk
    yields the (pool, index) request of the system it needs next and
    receives that system's status. A request its pool has decided is
    answered at once; the others wait for the round, which solves the OPEN
    requests of every walk together. Each system is decided by itself, so
    no result depends on what else is in the round."""
    decisions: list[ReachDecision | None] = [None] * len(walks)
    answered = [(e, walk, None) for e, walk in enumerate(walks)]
    while answered:
        blocked = []
        for e, walk, status in answered:
            try:
                pool, i = walk.send(status)
                while (status := pool.decisions.status[i]) != OPEN:
                    pool, i = walk.send(status)
            except StopIteration as stop:
                decisions[e] = stop.value
            else:
                blocked.append((e, walk, pool, i))
        _solve_round([(pool, i) for _, _, pool, i in blocked])
        answered = [(e, walk, pool.decisions.status[i]) for e, walk, pool, i in blocked]
    return decisions


def decide_exit_facet(
    cell: Polytope,
    exit_facet: int,
    model: AffineModel,
    control_box,
) -> ReachDecision:
    """Definitive decision of one exit facet (see decide_exit_facets)."""
    return decide_exit_facets([(cell, exit_facet, model)], control_box)[0]


def _decide_walk(pools, first: int, count: int):
    """The definitive rule of one edge, as a walk over its count vertices,
    systems first, first + 1, ... of both (balanced, strict-slack) pools.
    The walk stops at the first vertex that is empty or infeasible."""
    witnesses = []
    for i in range(first, first + count):
        for pool in pools:
            status = yield pool, i
            # A positive uniform slack certifies the vertex outright and an
            # empty system fails it outright; otherwise the strict-slack LP
            # decides.
            if status != INFEASIBLE:
                break
        if status != FEASIBLE:
            return ReachDecision(ReachStatus.ABSENT)
        witnesses.append(pool.decisions.witness[i].copy())
    return ReachDecision(ReachStatus.EXISTS, witnesses)


def decide_exit_facets(items, control_box) -> list[ReachDecision]:
    """Definitive decisions of (cell, exit_facet, model) items, one per item
    in order: EXISTS with per-vertex witnesses iff every vertex system is
    feasible, else ABSENT. Never UNCERTAIN.

    Witnesses are balanced (uniform slack over all rows) when possible, so
    the synthesized law tolerates model error on the invariance rows too;
    the strict-slack LP decides a vertex only where the balanced slack is
    not positive. The walks of all items run together (see _run_walks)."""
    box = as_control_box(control_box)
    slots, stacks = _nominal_stacks(items)
    pools = {}
    for n, rows in stacks.items():
        stack = SystemStack(rows.A, rows.b, np.broadcast_to(_exit_row_mask(n), rows.b.shape),
                            np.broadcast_to(box, (len(rows.b),) + box.shape))
        pools[n] = (_Pool(stack, balanced=True), _Pool(stack))
    return _run_walks([_decide_walk(pools[n], first, 2 ** n) for n, first in slots])


def sign_patterns(m: int) -> list[tuple[int, ...]]:
    return list(itertools.product((1, -1), repeat=m))


def _perturbed_rows(A0, b0, shift, eps_B, patterns, tighten: bool):
    """Rows (A, b, strict) of the robust (tighten=True) or expanded
    (tighten=False) systems of K vertices under P sign patterns s, shaped
    (K, P, r + m, m), (K, P, r + m) and (K, P, r + m): the nominal rows
    A0 (K, r, m), b0 (K, r) moved by the radii eps_B (K,) and the vertex
    shifts (K,), then the sign rows u_k > 0 (s_k > 0) or u_k <= 0
    (s_k < 0) for the patterns (P, m)."""
    (K, r, m), P = A0.shape, len(patterns)
    # Tightening adds -s*eps_B and +shift to the exit row and +s*eps_B and
    # -shift to the invariance rows; expanding flips every sign.
    side = np.ones(r)
    side[0] = -1.0
    if not tighten:
        side = -side
    moved = A0[:, None] + side[:, None] * (patterns[:, None, :] * eps_B[:, None, None, None])
    A = np.concatenate([moved, np.broadcast_to(np.eye(m), (K, P, m, m))], axis=2)
    rhs = np.broadcast_to((b0 - side * shift[:, None])[:, None], (K, P, r))
    b = np.concatenate([rhs, np.zeros((K, P, m))], axis=2)
    strict = np.concatenate([np.broadcast_to(_exit_row_mask(r), (K, P, r)),
                             np.broadcast_to(patterns > 0, (K, P, m))], axis=2)
    return A, b, strict


def _perturbed_system(cell, exit_facet, vertex_j, ref_model, bounds, pattern, control_box,
                      tighten: bool) -> LinearConstraintSystem:
    rows = _nominal_rows([(cell, exit_facet, ref_model)], [vertex_j])
    A, b, strict = _perturbed_rows(
        rows.A, rows.b, bounds.eps_A * rows.norm + bounds.eps_c, np.array([bounds.eps_B]),
        np.array([pattern], dtype=float), tighten)
    return LinearConstraintSystem(A[0, 0], b[0, 0], strict[0, 0], control_box)


def robust_vertex_system(
    cell, exit_facet, vertex_j, ref_model, bounds, pattern, control_box
) -> LinearConstraintSystem:
    """Maximally tightened rows: feasibility certifies reachability for any
    dynamics within the deviation radii of the reference model."""
    return _perturbed_system(cell, exit_facet, vertex_j, ref_model, bounds, pattern,
                             control_box, True)


def expanded_vertex_system(
    cell, exit_facet, vertex_j, ref_model, bounds, pattern, control_box
) -> LinearConstraintSystem:
    """Maximally loosened rows: joint infeasibility over all patterns
    certifies unreachability for any dynamics within the radii."""
    return _perturbed_system(cell, exit_facet, vertex_j, ref_model, bounds, pattern,
                             control_box, False)


def predict_exit_facet(
    cell: Polytope,
    exit_facet: int,
    ref_model: AffineModel,
    bounds: ModelDeviationBounds,
    control_box,
) -> ReachDecision:
    """Predictive decision of one exit facet (see predict_exit_facets)."""
    return predict_exit_facets([(cell, exit_facet, ref_model, bounds)], control_box)[0]


def _pattern_stack(A0, b0, shift, eps_B, box: np.ndarray, tighten: bool) -> SystemStack:
    """The robust (tighten=True) or expanded systems of stacked vertices
    under every sign pattern, vertex-major, patterns in sign_patterns
    order."""
    m = A0.shape[2]
    A, b, strict = _perturbed_rows(A0, b0, shift, eps_B,
                                   np.array(sign_patterns(m), dtype=float), tighten)
    n_sys, r = b.shape[0] * b.shape[1], b.shape[2]
    return SystemStack(A.reshape(n_sys, r, m), b.reshape(n_sys, r), strict.reshape(n_sys, r),
                       np.broadcast_to(box, (n_sys,) + box.shape))


def _predict_walk(robust, expanded, first: int, count: int, P: int, zero_radius: bool):
    """The predictive rule of one edge, as a walk over its count vertices:
    vertex j under sign pattern p is system (first + j) * P + p of both
    the robust and the expanded pool. P is the number of sign patterns.

    Every vertex tries its robust patterns until one is feasible, the last
    feasible pattern first. Then every robust-failed vertex tries its
    expanded patterns until one is feasible; the walk stops at the first
    one where none is."""
    order = list(range(P))
    witnesses, robust_failed = [], []
    for i in range(first * P, (first + count) * P, P):
        for pos, p in enumerate(order):
            if (yield robust, i + p) == FEASIBLE:
                witnesses.append(robust.decisions.witness[i + p].copy())
                # A pattern feasible at one vertex tends to work at the
                # neighbours, so it goes first there: the witness is the
                # first feasible pattern in this order.
                order.insert(0, order.pop(pos))
                break
        else:
            robust_failed.append(i)
    if not robust_failed:
        return ReachDecision(ReachStatus.EXISTS, witnesses)
    if zero_radius:
        # Robust and expanded systems coincide at zero radius, so a robust
        # failure is already an expanded failure.
        return ReachDecision(ReachStatus.ABSENT)
    # Robust-feasible vertices are expanded-feasible a fortiori; only the
    # failed ones can certify absence.
    for i in robust_failed:
        for p in order:
            if (yield expanded, i + p) == FEASIBLE:
                break
        else:
            return ReachDecision(ReachStatus.ABSENT)
    return ReachDecision(ReachStatus.UNCERTAIN)


def predict_exit_facets(items, control_box) -> list[ReachDecision]:
    """Predictive tri-state decisions of (cell, exit_facet, ref_model,
    bounds) items, for cells with unidentified dynamics, one per item in
    order.

    EXISTS iff every vertex has a feasible robust pattern system; ABSENT iff
    some vertex has all expanded pattern systems infeasible; UNCERTAIN
    otherwise. The robust and expanded systems of every vertex are built
    and screened up front, one robust and one expanded pool per cell
    dimension; the walks of all items run together (see _run_walks).
    """
    box = as_control_box(control_box)
    if not items:
        return []
    slots, stacks = _nominal_stacks(items)
    eps_A, eps_B, eps_c = np.array([(b.eps_A, b.eps_B, b.eps_c) for *_, b in items]).T
    pools = {}
    for n, rows in stacks.items():
        # eps_A ||v|| + eps_c: how far the deviation radii move the
        # right-hand side of every row at v. Unit normals make the ||n||
        # factors one.
        shift = eps_A[rows.item] * rows.norm + eps_c[rows.item]
        pools[n] = [_Pool(_pattern_stack(rows.A, rows.b, shift, eps_B[rows.item], box, tighten),
                          screened=True)
                    for tighten in (True, False)]
    P = 2 ** box.shape[0]
    return _run_walks([_predict_walk(*pools[n], first, 2 ** n, P,
                                     bounds.eps_A == bounds.eps_B == bounds.eps_c == 0.0)
                       for (n, first), (*_, bounds) in zip(slots, items)])


def _interpolate_on_simplex(cell: Polytope, simplex: Simplex, witnesses):
    """(F, g) of the affine law u = F x + g that takes the witness input at
    every vertex of the simplex."""
    idxs = list(simplex.vertex_indices)
    V = cell.vertices[idxs]            # (n+1, n)
    U = np.array([witnesses[j] for j in idxs])  # (n+1, m)
    n = cell.dim
    mat = np.vstack([V.T, np.ones(len(idxs))])  # (n+1, n+1)
    # Kuhn simplices of a box with positive widths are never degenerate.
    fg = np.linalg.solve(mat.T, U)  # (n+1, m): rows = [F | g]^T
    return fg[:n].T, fg[n]


class PiecewiseInterpolationLaw:
    """Continuous feedback interpolating the witnesses on whichever simplex
    currently contains the state.

    Per-simplex it is exactly the affine interpolation law; re-selecting the
    simplex at every evaluation keeps the vertex conditions in force on the
    whole cell, so the transit-time bound applies from any start state.
    """

    def __init__(self, cell: Polytope, witnesses):
        self.cell = cell
        self.witnesses = [np.asarray(w, dtype=float) for w in witnesses]
        self.simplices = triangulate(cell)
        self._laws: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def _law(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        if k not in self._laws:
            self._laws[k] = _interpolate_on_simplex(self.cell, self.simplices[k], self.witnesses)
        return self._laws[k]

    def input(self, x):
        k = find_containing_simplex(self.cell, self.simplices, x)
        F, g = self._law(k)
        return F @ np.asarray(x, dtype=float) + g


def t0_upper_bound(
    cell: Polytope,
    exit_facet: int,
    model: AffineModel,
    witnesses,
    x0=None,
) -> float:
    """Transit-time bound (beta - alpha) / c1 with c1 the worst vertex flow
    through the exit facet. alpha comes from x0 when given, else from the
    worst-case entry vertex."""
    n1 = cell.normals[exit_facet]
    proj = cell.vertices @ n1
    beta = float(proj.max())
    alpha = float(n1 @ np.asarray(x0, dtype=float)) if x0 is not None else float(proj.min())
    flows = [
        float(n1 @ model.velocity(cell.vertices[j], witnesses[j]))
        for j in range(cell.n_vertices)
    ]
    c1 = min(flows)
    if c1 <= TOL_STRICT:
        raise UnboundedTransitError(f"exit-facet flow c1 = {c1:.3e} not positive")
    return (beta - alpha) / c1

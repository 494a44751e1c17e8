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

decide_exit_facets and predict_exit_facets decide a whole list of edges
at once. The nominal rows of every vertex of the edges' cells come from
stacked array products, one stack per cell dimension n (_by_dimension), in
which vertex j of edge t is system t * 2^n + j; in prediction, vertex j
under sign pattern p, of P = 2^m, is system (t * 2^n + j) * P + p of the
robust stack. The definitive rule runs one pass per vertex index over the
edges still open: one balanced decide_stacks call, then one strict-slack
call where the balanced slack is not positive. The predictive rule is a set
condition, free of any order: an edge is Exists iff every vertex has some
feasible robust pattern system, and Absent iff some vertex has no feasible
expanded one. Robust-feasible implies expanded-feasible, and at zero radius
the expanded systems are the robust ones, so expanded systems are built
only at the robust-failed vertices of edges with a non-zero radius. Each of
the two stacks is screened once, and the patterns the screen left OPEN at
the vertices where it settled none FEASIBLE go to one decide_stacks call
(_any_feasible). Every system is decided by itself, so no witness depends
on what else is in the call.
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


def _by_dimension(items):
    """Indices of (cell, exit_facet, model, ...) items grouped by cell
    dimension n, in order of first appearance, as (n, indices, rows) with
    the _Rows of every vertex of the group's items: vertex j of its item t
    is system t * 2^n + j, and rows.item is t. The models share one input
    count."""
    groups: dict[int, list[int]] = {}
    for e, (cell, *_) in enumerate(items):
        groups.setdefault(cell.dim, []).append(e)
    return [(n, group, _nominal_rows([items[e] for e in group]))
            for n, group in groups.items()]


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


def decide_exit_facet(
    cell: Polytope,
    exit_facet: int,
    model: AffineModel,
    control_box,
) -> ReachDecision:
    """Definitive decision of one exit facet (see decide_exit_facets)."""
    return decide_exit_facets([(cell, exit_facet, model)], control_box)[0]


def decide_exit_facets(items, control_box) -> list[ReachDecision]:
    """Definitive decisions of (cell, exit_facet, model) items, one per item
    in order: EXISTS with per-vertex witnesses iff every vertex system is
    feasible, else ABSENT. Never UNCERTAIN.

    Witnesses are balanced (uniform slack over all rows) when possible, so
    the synthesized law tolerates model error on the invariance rows too;
    the strict-slack LP decides a vertex only where the balanced slack is
    not positive. One pass per vertex index j decides vertex j of every
    item still open, and an item closes at its first vertex that is empty
    or infeasible."""
    box = as_control_box(control_box)
    out: list[ReachDecision | None] = [None] * len(items)
    for n, group, rows in _by_dimension(items):
        V = 2 ** n
        stack = SystemStack(rows.A, rows.b, np.broadcast_to(_exit_row_mask(n), rows.b.shape),
                            np.broadcast_to(box, (len(rows.b),) + box.shape))
        witness = np.full((len(group), V, box.shape[0]), np.nan)
        live = np.arange(len(group))
        for j in range(V):
            idx = live * V + j
            status, found, _ = decide_stacks([stack.take(idx)], [True])[0]
            # A positive uniform slack certifies the vertex outright and an
            # empty system fails it outright; otherwise the strict-slack LP
            # decides.
            retry = status == INFEASIBLE
            status[retry], found[retry], _ = decide_stacks([stack.take(idx[retry])], [False])[0]
            witness[live, j] = found
            live = live[status == FEASIBLE]
        exists = np.zeros(len(group), dtype=bool)
        exists[live] = True
        for t, e in enumerate(group):
            out[e] = (ReachDecision(ReachStatus.EXISTS, list(witness[t])) if exists[t]
                      else ReachDecision(ReachStatus.ABSENT))
    return out


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


def _any_feasible(stack: SystemStack) -> tuple[np.ndarray, np.ndarray]:
    """Whether some pattern system of each vertex of a _pattern_stack is
    feasible, (K,), and the witness of the first feasible one in
    sign_patterns order, (K, m), NaN where none is. The screen settles what
    it can; at the vertices where it settled no pattern FEASIBLE, the
    patterns it left OPEN go to one decide_stacks call."""
    m = stack.A.shape[2]
    screen = _screen(stack)
    status = screen.status.reshape(-1, 2 ** m)
    witness = screen.witness.reshape(status.shape + (m,))
    solve = (status == OPEN) & ~(status == FEASIBLE).any(axis=1, keepdims=True)
    solved = decide_stacks([stack.take(solve.ravel())], [False])[0]
    status[solve], witness[solve] = solved.status, solved.witness
    feasible = status == FEASIBLE
    return feasible.any(axis=1), witness[np.arange(len(status)), feasible.argmax(axis=1)]


def predict_exit_facets(items, control_box) -> list[ReachDecision]:
    """Predictive tri-state decisions of (cell, exit_facet, ref_model,
    bounds) items, for cells with unidentified dynamics, one per item in
    order.

    EXISTS iff every vertex has some feasible robust pattern system; ABSENT
    iff some vertex has no feasible expanded pattern system; UNCERTAIN
    otherwise. Both are set conditions, free of any order over vertices or
    patterns: each vertex's witness is its first feasible robust pattern
    in sign_patterns order among those the screen settled FEASIBLE, else
    among those the LP decided (see _any_feasible). Robust-feasible
    vertices are expanded-feasible a fortiori, and at zero radius the
    expanded systems are the robust ones, so only the robust-failed
    vertices of items with a non-zero radius can certify absence: their
    expanded systems alone are built and decided.
    """
    box = as_control_box(control_box)
    m = box.shape[0]
    radii = np.array([(b.eps_A, b.eps_B, b.eps_c) for *_, b in items])
    out: list[ReachDecision | None] = [None] * len(items)
    for n, group, rows in _by_dimension(items):
        E, V = len(group), 2 ** n
        eps_A, eps_B, eps_c = radii[group][rows.item].T
        # eps_A ||v|| + eps_c: how far the deviation radii move the
        # right-hand side of every row at v. Unit normals make the ||n||
        # factors one.
        shift = eps_A * rows.norm + eps_c
        feasible, witness = _any_feasible(
            _pattern_stack(rows.A, rows.b, shift, eps_B, box, tighten=True))
        failed = ~feasible.reshape(E, V)
        witness = witness.reshape(E, V, m)

        # At zero radius a robust failure is already an expanded failure.
        zero = (radii[group] == 0.0).all(axis=1)
        pairs = np.flatnonzero(failed & ~zero[:, None])
        expandable, _ = _any_feasible(
            _pattern_stack(rows.A[pairs], rows.b[pairs], shift[pairs], eps_B[pairs], box,
                           tighten=False))
        absent = zero.copy()
        absent[pairs[~expandable] // V] = True

        for t, e in enumerate(group):
            if not failed[t].any():
                out[e] = ReachDecision(ReachStatus.EXISTS, list(witness[t]))
            else:
                out[e] = ReachDecision(ReachStatus.ABSENT if absent[t] else ReachStatus.UNCERTAIN)
    return out


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
        x = np.asarray(x, dtype=float)
        k = find_containing_simplex(self.cell, self.simplices, x)
        F, g = self._law(k)
        return F @ x + g


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

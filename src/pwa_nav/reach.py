"""Facet reachability on box cells.

Definitive decisions check, per cell vertex, feasibility of the exit-flow and
invariance inequalities in that vertex's control input. Predictive decisions
for cells with unidentified dynamics tighten (robust) or loosen (expanded)
those rows by deviation radii derived from the Lipschitz constants, branching
over the sign patterns of the control components. These are the vertex
conditions of Habets & van Schuppen (2004).

Each vertex system of an n-D box is one array-form system of n nominal
rows: the strict exit-flow row first, then the non-strict invariance row of
the facet 2d + (bit d of the vertex) of every other axis d, in axis order.
A vertex off the exit facet also lies on the opposite facet, exit_facet ^ 1,
but its row is left out: that facet's normal is the exit normal negated, so
its row is the exit row negated and made non-strict, bit for bit, in the
nominal, robust and expanded systems alike (the radii move both rows by the
same amounts with opposite signs). The exit row a . u > b then implies it,
-a . u <= -b; in the balanced LP it is the exit row's constraint a second
time. It never decides a verdict.

In prediction, sign pattern s is the closed orthant of s cut from the
control box: the input box [max(lo, 0), hi] on the axes where s_k > 0 and
[lo, min(hi, 0)] where s_k < 0. Only a pattern whose orthant meets the box,
lo <= hi on every axis, has a system (_orthant_halves). On it
||u||_1 = s . u exactly, so the radius eps_B moves the rows linearly, and
the closed orthants cover every input.

decide_exit_facets and predict_exit_facets decide a whole list of edges
at once; the edges' cells share one dimension n. The nominal rows of every
vertex of every edge come from stacked array products into one stack
(_nominal_rows), in which vertex j of edge t is system t * 2^n + j; in
prediction, the k-th vertex of a pattern stack (_perturbed_rows) under
sign pattern p, of the P that meet the box, is its system k * P + p. The
definitive rule runs one pass per vertex index over the edges still open:
one balanced decide_stacks call, then one strict-slack call where the
balanced slack is not positive. The predictive rule is a set
condition, free of any order: an edge is Exists iff every vertex has some
feasible robust orthant system, and Absent iff some vertex has no feasible
expanded one. Robust-feasible implies expanded-feasible, so the expanded
rule runs only at the robust-failed vertices. Each rule first settles every
vertex in closed form (_settle), from its nominal rows, radii and control
box, with no pattern system built: on every orthant the moved rows are one
function of u, a . u -+ eps_B ||u||_1, so a row that misses its threshold at
its per-axis extremes over {lo, hi}, and 0 where the box holds it, fails
every pattern, and a candidate point (an orthant centre, or a point of
{lo, 0, hi}^m in the box) that meets every row serves the pattern whose
orthant holds it. Both tests keep the kernel's TOL_STRICT and _FEAS_TOL
thresholds, by a _SETTLE_ROUNDING margin, so a settled vertex is one that
the kernel decides the same way. Only the vertices left open get a pattern
stack (_perturbed_rows), which goes whole to one decide_stacks call
(_any_feasible).
Predictions carry no witness: a transit runs only on a definitive edge.
The one-system views (vertex_constraint_system, robust_vertex_system,
expanded_vertex_system) build the stack of their one edge and read their
system out of it by index.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .dynamics import AffineModel
from .feasibility import (
    _FEAS_TOL,
    FEASIBLE,
    INFEASIBLE,
    OPEN,
    TOL_STRICT,
    LinearConstraintSystem,
    SystemStack,
    as_control_box,
    decide_stacks,
)
# Unused here; the benchmark tracer (perfbench/tracer.py) wraps these bindings.
from .feasibility import balance_witnesses_batch, decide_feasibility  # noqa: F401
from .geometry import Polytope, Simplex, find_containing_simplex, norm, triangulate

# The kernel's slack of a row differs from its exact largest slack over the
# box, which _settle sums axis by axis, by rounding: at most 0.83 ulp of the
# row's magnitude (the sum of its largest terms over the box and |b|) on
# 3,000 random one-row systems of one to four inputs. _settle leaves rows
# this much closer to their thresholds to the kernel.
_SETTLE_ROUNDING = 1e-12


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
    # Per-vertex inputs, set only on definitive EXISTS decisions.
    witnesses: list[np.ndarray] | None = None


def deviation_bounds(
    ref_model: AffineModel, x1, x2, L_df: float, L_g: float
) -> ModelDeviationBounds:
    """Lipschitz deviation radii between the linearization at x1 (= ref_model)
    and the unknown linearization at x2."""
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    d = float(norm(x2 - x1))
    eps_c = 2.0 * ref_model.a_norm * d + 0.5 * L_df * d * d + L_df * d * float(norm(x2))
    return ModelDeviationBounds(L_df * d, L_g * d, eps_c)


class _Rows(NamedTuple):
    """Nominal rows of K vertex systems of n-D cells, n rows each."""

    norm: np.ndarray  # (K,) Euclidean norm of its vertex
    A: np.ndarray     # (K, n, m)
    b: np.ndarray     # (K, n)


def _row_facet_index(n: int, exit_facet: np.ndarray, vertex: np.ndarray) -> np.ndarray:
    """Facets of the nominal rows of vertex systems of n-D boxes, (K, n) for
    exit facets and vertex indices (K,): the exit facet, then, for every
    other axis d in order, the facet 2d + (bit d of the vertex, axis 0 the
    most significant) that contains the vertex."""
    i = np.arange(n - 1)
    axis = i + (i >= (exit_facet // 2)[:, None])
    bit = (vertex[:, None] >> (n - 1 - axis)) & 1
    return np.concatenate([exit_facet[:, None], 2 * axis + bit], axis=1)


def _nominal_rows(items) -> _Rows:
    """Nominal rows of the vertex systems of every vertex of every
    (cell, exit_facet, model, ...) item, item-major: vertex j of item e is
    system e * 2^n + j. The cells must share one dimension n, else
    ValueError (from np.stack).

    In the unknown input u_j at v_j, the exit row A[0] . u > b[0] comes
    first, then the invariance rows A[i] . u <= b[i] of _row_facet_index:
    with n a facet normal, the flow n . (A v + B u + c) must be positive
    through the exit facet and non-positive through the others. Each drift
    A v + c is one matrix-vector product, as model.A @ v + model.c."""
    n = items[0][0].dim
    at = np.repeat(np.arange(len(items)), 2 ** n)
    vertex = np.tile(np.arange(2 ** n), len(items))
    V = np.stack([cell.vertices for cell, *_ in items])[at, vertex]
    drift = (np.stack([model.A for _, _, model, *_ in items])[at] @ V[..., None])[..., 0]
    drift += np.stack([model.c for _, _, model, *_ in items])[at]
    exit_facet = np.array([facet for _, facet, *_ in items])[at]
    # Every n-D box has the same unit normals.
    N = items[0][0].normals[_row_facet_index(n, exit_facet, vertex)]
    B = np.stack([model.B for _, _, model, *_ in items])[at]
    return _Rows(norm(V), N @ B, -(N @ drift[..., None])[..., 0])


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
    rows = _nominal_rows([(cell, exit_facet, model)])
    return LinearConstraintSystem(rows.A[vertex_j], rows.b[vertex_j], _exit_row_mask(cell.dim),
                                  control_box)


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
    if not items:
        return []
    rows = _nominal_rows(items)
    E, V = len(items), 2 ** items[0][0].dim
    strict = np.broadcast_to(_exit_row_mask(rows.b.shape[1]), rows.b.shape)
    stack = SystemStack(rows.A, rows.b, strict, np.broadcast_to(box, (E * V,) + box.shape))
    witness = np.full((E, V, box.shape[0]), np.nan)
    live = np.arange(E)
    for j in range(V):
        if not live.size:
            break
        idx = live * V + j
        status, found, _ = decide_stacks(stack.take(idx), True)
        # A positive uniform slack certifies the vertex outright and an
        # empty system fails it outright; otherwise the strict-slack LP
        # decides.
        retry = status == INFEASIBLE
        if retry.any():
            status[retry], found[retry], _ = decide_stacks(stack.take(idx[retry]), False)
        witness[live, j] = found
        live = live[status == FEASIBLE]
    exists = np.zeros(E, dtype=bool)
    exists[live] = True
    return [ReachDecision(ReachStatus.EXISTS, list(w)) if ok else ReachDecision(ReachStatus.ABSENT)
            for ok, w in zip(exists, witness)]


def _row_sides(r: int, tighten: bool) -> np.ndarray:
    """The sign with which the radii move each of r rows: tightening adds
    -s*eps_B and +shift to the exit row and +s*eps_B and -shift to the
    invariance rows, as side * (s*eps_B) and -side * shift; expanding flips
    every sign."""
    side = np.ones(r)
    side[0] = -1.0
    return side if tighten else -side


def _orthant_halves(box: np.ndarray) -> list[list[tuple[int, float, float]]]:
    """Per axis of the control box (m, 2), the halves (s_k, lo, hi) that
    the closed orthants cut from its sides [lo, hi], (1, max(lo, 0), hi)
    then (-1, lo, min(hi, 0)), kept where they meet it, lo <= hi exactly.
    The sign patterns are the products of one half per axis, in that
    order, and their orthant boxes the products of the sides; a pattern
    whose orthant misses the box has no system."""
    return [[(s, a, b) for s, a, b in ((1, np.maximum(lo, 0.0), hi), (-1, lo, np.minimum(hi, 0.0)))
             if a <= b] for lo, hi in box]


def _perturbed_rows(A0, b0, shift, eps_B, box: np.ndarray, tighten: bool) -> SystemStack:
    """The robust (tighten=True) or expanded (tighten=False) systems of K
    vertices under every sign pattern s of _orthant_halves(box), of P in
    all, vertex-major (vertex k under pattern p is system k * P + p): the
    nominal rows A0 (K, r, m), b0 (K, r) moved by the radii eps_B (K,) and
    the vertex shifts (K,), over the control box cut by the closed orthant
    of s."""
    K, r, m = A0.shape
    orthants = np.array(list(itertools.product(*_orthant_halves(box))), dtype=float)
    P = len(orthants)
    patterns, sides = orthants[..., 0], orthants[..., 1:]
    side = _row_sides(r, tighten)
    moved = A0[:, None] + side[:, None] * (patterns[:, None, :] * eps_B[:, None, None, None])
    rhs = np.broadcast_to((b0 - side * shift[:, None])[:, None], (K, P, r))
    return SystemStack(moved.reshape(K * P, r, m), rhs.reshape(K * P, r),
                       np.broadcast_to(_exit_row_mask(r), (K * P, r)),
                       np.broadcast_to(sides, (K, P, m, 2)).reshape(K * P, m, 2))


def _perturbed_system(cell, exit_facet, vertex_j, ref_model, bounds, pattern, control_box,
                      tighten: bool) -> LinearConstraintSystem:
    """One system of the _perturbed_rows stack of one edge, over its orthant
    box; ValueError (from list.index) where the orthant of the pattern
    misses the box, which then has no system."""
    box = as_control_box(control_box)
    patterns = [tuple(s for s, _, _ in o) for o in itertools.product(*_orthant_halves(box))]
    rows = _nominal_rows([(cell, exit_facet, ref_model)])
    stack = _perturbed_rows(rows.A, rows.b, bounds.eps_A * rows.norm + bounds.eps_c,
                            np.full(len(rows.b), bounds.eps_B), box, tighten)
    i = vertex_j * len(patterns) + patterns.index(tuple(pattern))
    return LinearConstraintSystem(stack.A[i], stack.b[i], stack.strict[i], stack.box[i])


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
    """Predictive decision of one exit facet, with no witnesses (see
    predict_exit_facets)."""
    return ReachDecision(
        predict_exit_facets([(cell, exit_facet, ref_model, bounds)], control_box)[0])


def _any_feasible(stack: SystemStack, K: int) -> np.ndarray:
    """Whether some pattern system of each of the K vertices of a
    _perturbed_rows stack is feasible, (K,), by one decide_stacks call."""
    feasible = decide_stacks(stack, False).status == FEASIBLE
    return feasible.reshape(K, -1).any(axis=1)


def _candidates(box: np.ndarray, halves) -> np.ndarray:
    """The points (C, m) at which _settle tests the rows: the centre of every
    orthant box, from the _orthant_halves of the control box (m, 2), then
    every point of {lo, 0, hi}^m inside it, the corners of the orthant
    boxes."""
    centres = [[0.5 * (a + b) for _, a, b in axis] for axis in halves]
    corners = [[lo, 0.0, hi] if lo < 0.0 < hi else [lo, hi] for lo, hi in box]
    points = list(itertools.product(*centres)) + list(itertools.product(*corners))
    return np.array(points, dtype=float).reshape(-1, len(box))


def _settle(A0, b0, shift, eps_B, box: np.ndarray, tighten: bool) -> np.ndarray:
    """Per vertex, whether some system of its _perturbed_rows stack is
    feasible, in closed form and without the stack: FEASIBLE, INFEASIBLE or
    OPEN (K,), settled only where _any_feasible, the kernel over every
    pattern, decides the same way.

    On the closed orthant of s, ||u||_1 = s . u, so every pattern's row i
    is the one function a_i . u + side_i eps_B ||u||_1 of u, against the
    moved right-hand side b_i - side_i shift. The sums below take the ends
    of the halves that meet the box, from _orthant_halves as
    _perturbed_rows takes them, and the very products the pattern rows
    hold, so each bounds its row over the box of every pattern system.
    The margin covers the rounding by which the kernel's elimination and
    these sums differ.
    - INFEASIBLE where some row misses its threshold everywhere in the box.
      - The strict exit row's largest value exceeds the right-hand side by
        at most TOL_STRICT, less the margin. The kernel's slack d is the
        value of that row at its vertex, which the pattern's box holds (its
        inputs are box sides or solved from the rows, to rounding), less
        the right-hand side: d <= TOL_STRICT.
      - A non-strict row's least value exceeds the right-hand side by more
        than _FEAS_TOL times the widest coefficient of any of its patterns
        (1 where a pattern's row is constant). The ray of the dual that
        weighs this row alone, scaled to unit max-norm, then has
        phi < -_FEAS_TOL: the kernel finds the pattern EMPTY.
    - FEASIBLE where some point of _candidates clears the strict row's
      TOL_STRICT and meets every non-strict row, each by the margin. The
      point lies in the orthant box of some pattern, whose LP optimum is at
      least the point's slack. The kernel's d is the ratio phi / sigma of
      some ray, and no ray's ratio is below the optimum, so it finds that
      pattern FEASIBLE."""
    K, r, m = A0.shape
    side = _row_sides(r, tighten)
    rhs = b0 - side * shift[:, None]
    # side * (s_k eps_B), the move of the coefficients where s_k = 1; it
    # is negated where s_k = -1.
    moved = np.multiply.outer(eps_B, side)
    halves = _orthant_halves(box)
    reach_hi = reach_lo = size = widest = 0.0
    constant = True
    for k, (lo, hi) in enumerate(box):
        a = A0[..., k]
        axis = [(a + moved if s > 0 else a - moved, ends) for s, *ends in halves[k]]
        at = [coef * end for coef, ends in axis for end in ends]
        reach_hi = reach_hi + functools.reduce(np.maximum, at)
        reach_lo = reach_lo + functools.reduce(np.minimum, at)
        widest = functools.reduce(np.maximum, [np.abs(coef) for coef, _ in axis], widest)
        constant = constant & functools.reduce(np.logical_or, [coef == 0.0 for coef, _ in axis])
        size = size + (np.abs(a) + eps_B[:, None]) * max(abs(lo), abs(hi))
    scale = np.where(constant, np.maximum(widest, 1.0), widest)
    margin = _SETTLE_ROUNDING * (size + np.abs(rhs))
    infeasible = reach_hi[:, 0] - rhs[:, 0] <= TOL_STRICT - margin[:, 0]
    for i in range(1, r):
        infeasible |= reach_lo[:, i] - rhs[:, i] > _FEAS_TOL * scale[:, i] + margin[:, i]

    # Every row at every candidate u is one product: [a | side eps_B] . [u | ||u||_1].
    rows = np.concatenate([A0, moved[..., None]], axis=2).reshape(K * r, m + 1)
    U = _candidates(box, halves)
    feasible = np.zeros(K, dtype=bool)
    # A block of candidates at a time bounds the working set when 3^m is large.
    for start in range(0, len(U), 64):
        u = U[start:start + 64]
        slack = (np.column_stack([u, np.abs(u).sum(axis=1)]) @ rows.T
                 - rhs.ravel()).reshape(len(u), K, r)
        met = slack[..., 0] > TOL_STRICT + margin[:, 0]
        for i in range(1, r):
            met &= slack[..., i] <= -margin[:, i]
        feasible |= met.any(axis=0)
    return np.where(infeasible, INFEASIBLE, np.where(feasible, FEASIBLE, OPEN))


def _some_feasible(A0, b0, shift, eps_B, box: np.ndarray, tighten: bool) -> np.ndarray:
    """Whether some pattern system of each of K vertices is feasible, (K,),
    as _any_feasible decides it over their _perturbed_rows stack: _settle
    decides what it can, and the stack is built only for the vertices it
    leaves OPEN."""
    status = _settle(A0, b0, shift, eps_B, box, tighten)
    feasible = status == FEASIBLE
    todo = np.flatnonzero(status == OPEN)
    if todo.size:
        feasible[todo] = _any_feasible(
            _perturbed_rows(A0[todo], b0[todo], shift[todo], eps_B[todo], box, tighten),
            todo.size)
    return feasible


def predict_exit_facets(items, control_box) -> list[ReachStatus]:
    """Predictive tri-state statuses of (cell, exit_facet, ref_model,
    bounds) items, for cells with unidentified dynamics, one per item in
    order.

    EXISTS iff every vertex has some feasible robust pattern system; ABSENT
    iff some vertex has no feasible expanded pattern system; UNCERTAIN
    otherwise. Both are set conditions, free of any order over vertices or
    patterns. Robust-feasible vertices are expanded-feasible a fortiori,
    so only the robust-failed vertices can certify absence: the expanded
    rule decides them alone. Each rule runs through _some_feasible.
    """
    box = as_control_box(control_box)
    if not items:
        return []
    rows = _nominal_rows(items)
    E, V = len(items), 2 ** items[0][0].dim
    radii = np.array([(b.eps_A, b.eps_B, b.eps_c) for *_, b in items])
    eps_A, eps_B, eps_c = np.repeat(radii, V, axis=0).T
    # eps_A ||v|| + eps_c: how far the deviation radii move the right-hand
    # side of every row at v. Unit normals make the ||n|| factors one.
    shift = eps_A * rows.norm + eps_c
    failed = ~_some_feasible(rows.A, rows.b, shift, eps_B, box, tighten=True).reshape(E, V)

    pairs = np.flatnonzero(failed)
    expandable = _some_feasible(rows.A[pairs], rows.b[pairs], shift[pairs], eps_B[pairs], box,
                                tighten=False)
    absent = np.zeros(E, dtype=bool)
    absent[pairs[~expandable] // V] = True
    return [ReachStatus.EXISTS if not f
            else ReachStatus.ABSENT if a else ReachStatus.UNCERTAIN
            for f, a in zip(failed.any(axis=1).tolist(), absent.tolist())]


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
        witnesses = [np.asarray(w, dtype=float) for w in witnesses]
        self.simplices = triangulate(cell)
        # (F, g) per simplex, in the order of self.simplices, g as floats.
        self.laws = [(F, g.tolist()) for F, g in
                     (_interpolate_on_simplex(cell, s, witnesses) for s in self.simplices)]

    def input(self, x) -> tuple[float, ...]:
        """F x + g of the simplex containing the state x, a sequence of
        floats, as a float tuple: F x stays one NumPy product (see the
        dynamics module), g is added per component."""
        F, g = self.laws[find_containing_simplex(self.cell, self.simplices, x)]
        return tuple([a + b for a, b in zip(F.dot(x).tolist(), g)])


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

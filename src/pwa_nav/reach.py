"""Facet reachability on box cells.

Definitive decisions check, per cell vertex, feasibility of the exit-flow and
invariance inequalities in that vertex's control input. Predictive decisions
for cells with unidentified dynamics tighten (robust) or loosen (expanded)
those rows by deviation radii derived from the Lipschitz constants, branching
over the 2^m sign patterns of the control components. These are the vertex
conditions of Habets & van Schuppen (2004).

Each vertex system is one array-form system: the strict exit-flow row first,
then the non-strict invariance rows, then, in prediction, one sign row per
control input. decide_exit_facets and predict_exit_facets build every
vertex system of a whole list of edges up front, in stacked array products
over the edges' cells (_nominal_stacks), into pools of one row shape and
one kind each (balanced and strict-slack LP in definitive
decisions, robust and expanded rows in prediction): a SystemStack and its
Decisions, which start as the interval screen's in prediction and all
OPEN in definitive decisions.
Each edge's rule is written once, as a walk: a generator that yields the
(pool, index) of the system it needs next and receives that system's
status, stopping as soon as its verdict is settled. The walks run
together, in rounds: a request the pool has decided is answered at once,
and each round's OPEN requests are solved in one decide_stacks call, whose
decisions fill in the pools. With at most three control inputs every
system is decided by itself, so no witness depends on what else is in the
round.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
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


@lru_cache(maxsize=256)
def _row_facets(incidence: tuple[tuple[int, ...], ...], exit_facet: int):
    """Facets of the nominal rows at every vertex of a cell with
    vertex-facet incidence `incidence`: the exit facet first, then the
    other facets containing the vertex. Vertices on the exit facet drop it
    from their incidence set, so their systems have one row fewer.

    Returns, per vertex, its (row count, position among the vertices of
    that row count), and, per row count r, the (r, vertices, facets) of
    its vertices in order, facets (count, r)."""
    slots, groups = [], {}
    for j, incident in enumerate(incidence):
        facets = (exit_facet, *(i for i in incident if i != exit_facet))
        vertices, rows = groups.setdefault(len(facets), ([], []))
        slots.append((len(facets), len(vertices)))
        vertices.append(j)
        rows.append(facets)
    out = []
    for r, (vertices, rows) in groups.items():
        vertices = np.array(vertices, dtype=np.intp)
        rows = np.array(rows, dtype=np.intp).reshape(-1, r)
        vertices.setflags(write=False)
        rows.setflags(write=False)
        out.append((r, vertices, rows))
    return tuple(slots), tuple(out)


class _Rows(NamedTuple):
    """Nominal rows of K vertex systems with r rows each."""

    item: np.ndarray  # (K,) index of the system's item
    norm: np.ndarray  # (K,) Euclidean norm of its vertex
    A: np.ndarray     # (K, r, m)
    b: np.ndarray     # (K, r)


def _norm(v: np.ndarray) -> np.ndarray:
    """Euclidean norms of stacked vectors v (..., n) as np.linalg.norm takes
    that of one vector: the square root of v @ v."""
    return np.sqrt((v[..., None, :] @ v[..., None])[..., 0, 0])


def _nominal_stacks(items):
    """Nominal rows of every vertex of (cell, exit_facet, model, ...) items,
    in the unknown input u_j at v_j: first the exit row A[0] . u > b[0],
    then the invariance rows A[i] . u <= b[i], one per facet of
    _row_facets. With n a facet normal, the flow n . (A v + B u + c) must
    be positive through the exit facet and non-positive through the
    others. The models share one input count.

    Returns, for each item, the (r, position) slot of each of its vertices,
    and, for each row count r, the _Rows of its vertices. Items whose cells
    share a dimension are stacked together; every drift
    A v + c is one matrix-vector product, as model.A @ v + model.c."""
    kinds = {}
    for i, (cell, *_) in enumerate(items):
        kinds.setdefault(cell.dim, []).append(i)
    slots = [None] * len(items)
    count, blocks = {}, {}
    for kind in kinds.values():
        V = np.stack([items[i][0].vertices for i in kind])
        normals = np.stack([items[i][0].normals for i in kind])
        B = np.stack([items[i][2].B for i in kind])
        drift = (np.stack([items[i][2].A for i in kind])[:, None] @ V[..., None])[..., 0]
        drift += np.stack([items[i][2].c for i in kind])[:, None]
        members = {}
        for t, i in enumerate(kind):
            cell, facet = items[i][:2]
            vertex_slots, groups = _row_facets(cell.vertex_facet_index, facet)
            slots[i] = [(r, count.get(r, 0) + k) for r, k in vertex_slots]
            for r, vertices, facets in groups:
                members.setdefault(r, []).append((t, vertices, facets))
                count[r] = count.get(r, 0) + len(vertices)
        for r, group in members.items():
            at = np.repeat([t for t, _, _ in group], [len(v) for _, v, _ in group])
            vertex = np.concatenate([v for _, v, _ in group])
            N = normals[at[:, None], np.concatenate([f for _, _, f in group])]
            blocks.setdefault(r, []).append(
                _Rows(np.asarray(kind)[at], _norm(V[at, vertex]), N @ B[at],
                      -(N @ drift[at, vertex][..., None])[..., 0]))
    return slots, {r: _Rows(*map(np.concatenate, zip(*parts))) for r, parts in blocks.items()}


def _vertex_rows(cell: Polytope, exit_facet: int, vertex_j: int, model: AffineModel):
    """The nominal rows (A, b) of one vertex (see _nominal_stacks)."""
    slots, stacks = _nominal_stacks([(cell, exit_facet, model)])
    r, k = slots[0][vertex_j]
    return stacks[r].A[k], stacks[r].b[k]


def vertex_constraint_system(
    cell: Polytope,
    exit_facet: int,
    vertex_j: int,
    model: AffineModel,
    control_box,
) -> LinearConstraintSystem:
    """Nominal rows in the unknown input u_j: strict positive flow through
    the exit facet, non-strict inflow on the other facets containing v_j."""
    A, b = _vertex_rows(cell, exit_facet, vertex_j, model)
    return LinearConstraintSystem(A, b, _exit_row_mask(len(b)), control_box)


def _exit_row_mask(rows: int) -> np.ndarray:
    """Strict mask of the nominal rows: the exit-flow row alone."""
    strict = np.zeros(rows, dtype=bool)
    strict[0] = True
    return strict


class _Pool:
    """Every vertex system of one row shape and one kind, as one
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
    requests of every walk together. Vertex enumeration decides each system
    by itself, so no result depends on what else is in the round; only
    systems with more than three inputs share a HiGHS LP."""
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


def _decide_walk(vertices):
    """The definitive rule of one edge, as a walk over its vertices, given
    as ((balanced, strict-slack) pools, index) pairs. The walk stops at the
    first vertex that is empty or infeasible."""
    witnesses = []
    for pools, i in vertices:
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
    for r, rows in stacks.items():
        stack = SystemStack(rows.A, rows.b, np.broadcast_to(_exit_row_mask(r), rows.b.shape),
                            np.broadcast_to(box, (len(rows.b),) + box.shape))
        pools[r] = (_Pool(stack, balanced=True), _Pool(stack))
    return _run_walks([_decide_walk([(pools[r], k) for r, k in item_slots])
                       for item_slots in slots])


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
    A0, b0 = _vertex_rows(cell, exit_facet, vertex_j, ref_model)
    shift = bounds.eps_A * _norm(cell.vertices[vertex_j]) + bounds.eps_c
    A, b, strict = _perturbed_rows(
        A0[None], b0[None], np.array([shift]), np.array([bounds.eps_B]),
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


def _predict_walk(vertices, P: int, zero_radius: bool):
    """The predictive rule of one edge, as a walk over its vertices, given
    as (robust pool, expanded pool, index) triples: index is the vertex's
    first system in both pools of its row shape, and pattern p follows at
    offset p. P is the number of sign patterns.

    Every vertex tries its robust patterns until one is feasible, the last
    feasible pattern first. Then every robust-failed vertex tries its
    expanded patterns until one is feasible; the walk stops at the first
    one where none is."""
    order = list(range(P))
    witnesses, robust_failed = [], []
    for robust, expanded, i in vertices:
        for pos, p in enumerate(order):
            if (yield robust, i + p) == FEASIBLE:
                witnesses.append(robust.decisions.witness[i + p].copy())
                # A pattern feasible at one vertex tends to work at the
                # neighbours, so it goes first there: the witness is the
                # first feasible pattern in this order.
                order.insert(0, order.pop(pos))
                break
        else:
            robust_failed.append((expanded, i))
    if not robust_failed:
        return ReachDecision(ReachStatus.EXISTS, witnesses)
    if zero_radius:
        # Robust and expanded systems coincide at zero radius, so a robust
        # failure is already an expanded failure.
        return ReachDecision(ReachStatus.ABSENT)
    # Robust-feasible vertices are expanded-feasible a fortiori; only the
    # failed ones can certify absence.
    for expanded, i in robust_failed:
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
    and screened up front, one robust and one expanded pool per row shape;
    the walks of all items run together (see _run_walks).
    """
    box = as_control_box(control_box)
    if not items:
        return []
    slots, stacks = _nominal_stacks(items)
    eps_A, eps_B, eps_c = np.array([(b.eps_A, b.eps_B, b.eps_c) for *_, b in items]).T
    pools = {}
    for r, rows in stacks.items():
        # eps_A ||v|| + eps_c: how far the deviation radii move the
        # right-hand side of every row at v. Unit normals make the ||n||
        # factors one.
        shift = eps_A[rows.item] * rows.norm + eps_c[rows.item]
        pools[r] = [_Pool(_pattern_stack(rows.A, rows.b, shift, eps_B[rows.item], box, tighten),
                          screened=True)
                    for tighten in (True, False)]
    walks = []
    for (_, _, model, bounds), item_slots in zip(items, slots):
        P = 2 ** model.B.shape[1]
        walks.append(_predict_walk([(*pools[r], k * P) for r, k in item_slots], P,
                                   bounds.eps_A == bounds.eps_B == bounds.eps_c == 0.0))
    return _run_walks(walks)


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

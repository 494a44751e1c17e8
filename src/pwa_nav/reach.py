"""Facet reachability on box cells.

Definitive decisions check, per cell vertex, feasibility of the exit-flow and
invariance inequalities in that vertex's control input. Predictive decisions
for cells with unidentified dynamics tighten (robust) or loosen (expanded)
those rows by deviation radii derived from the Lipschitz constants, branching
over the 2^m sign patterns of the control components.

Each vertex system is one array-form LinearConstraintSystem: the strict
exit-flow row first, then the non-strict invariance rows, then, in
prediction, one sign row per control input.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .dynamics import AffineModel
from .feasibility import (
    TOL_STRICT,
    LinearConstraintSystem,
    balance_witnesses_batch,
    decide_feasibility,
    decide_with_screen,
)
from .geometry import (
    Polytope,
    Simplex,
    barycentric,
    find_containing_simplex,
    triangulate,
)


class SynthesisError(RuntimeError):
    pass


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


@dataclass
class ControllerLaw:
    """Affine feedback u = F x + g interpolating per-vertex inputs over one
    simplex of the cell."""

    F: np.ndarray
    g: np.ndarray
    simplex: Simplex
    vertex_inputs: list[np.ndarray]

    def input(self, x):
        return self.F @ np.asarray(x, dtype=float) + self.g


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


def _row_partition(cell: Polytope, exit_facet: int, vertex_j: int):
    """Facet indices whose non-strict invariance rows apply at vertex_j.

    Vertices on the exit facet drop the exit facet from their incidence set;
    every vertex additionally carries the strict exit-flow row."""
    incident = cell.vertex_facet_index[vertex_j]
    if exit_facet in incident:
        return [i for i in incident if i != exit_facet]
    return list(incident)


def _nominal_rows(cell: Polytope, exit_facet: int, vertex_j: int, model: AffineModel):
    """Nominal rows (A, b) at v_j in the unknown input u_j: first the exit
    row A[0] . u > b[0], then the invariance rows A[i] . u <= b[i] in
    _row_partition order. With n a facet normal, the flow n . (A v + B u + c)
    must be positive through the exit facet and non-positive through the
    others."""
    v = cell.vertices[vertex_j]
    N = cell.normals[[exit_facet, *_row_partition(cell, exit_facet, vertex_j)]]
    drift = model.A @ v + model.c
    return N @ model.B, -(N @ drift)


def vertex_constraint_system(
    cell: Polytope,
    exit_facet: int,
    vertex_j: int,
    model: AffineModel,
    control_box,
) -> LinearConstraintSystem:
    """Nominal rows in the unknown input u_j: strict positive flow through
    the exit facet, non-strict inflow on the other facets containing v_j."""
    A, b = _nominal_rows(cell, exit_facet, vertex_j, model)
    strict = np.zeros(len(b), dtype=bool)
    strict[0] = True
    return LinearConstraintSystem(A, b, strict, control_box)


def decide_exit_facet(
    cell: Polytope,
    exit_facet: int,
    model: AffineModel,
    control_box,
) -> ReachDecision:
    """Definitive decision: EXISTS with per-vertex witnesses iff every vertex
    system is feasible, else ABSENT. Never UNCERTAIN.

    Witnesses are balanced (uniform slack over all rows) when possible, so
    the synthesized law tolerates model error on the invariance rows too."""
    systems = [
        vertex_constraint_system(cell, exit_facet, j, model, control_box)
        for j in range(cell.n_vertices)
    ]
    balanced = balance_witnesses_batch(systems)
    if balanced is None:
        # Some vertex system is empty even with every row relaxed.
        return ReachDecision(ReachStatus.ABSENT)
    witnesses = []
    for system, bal in zip(systems, balanced):
        if bal.feasible:
            # A positive uniform slack certifies the system outright.
            witnesses.append(bal.witness)
            continue
        res = decide_feasibility(system)
        if not res.feasible:
            return ReachDecision(ReachStatus.ABSENT)
        witnesses.append(res.witness)
    return ReachDecision(ReachStatus.EXISTS, witnesses)


def sign_patterns(m: int) -> list[tuple[int, ...]]:
    return list(itertools.product((1, -1), repeat=m))


def _perturbed_rows(
    cell: Polytope,
    exit_facet: int,
    vertex_j: int,
    ref_model: AffineModel,
    bounds: ModelDeviationBounds,
    pattern,
    tighten: bool,
):
    """Rows (A, b, strict) of the robust (tighten=True) or expanded
    (tighten=False) system for one sign pattern s: the nominal rows moved by
    the deviation radii, then the sign rows u_k > 0 (s_k > 0) or u_k <= 0
    (s_k < 0). Unit normals make the ||n|| factors one."""
    A, b = _nominal_rows(cell, exit_facet, vertex_j, ref_model)
    v = cell.vertices[vertex_j]
    shift = bounds.eps_A * float(np.linalg.norm(v)) + bounds.eps_c
    s = np.asarray(pattern, dtype=float)
    m = len(s)
    # Tightening adds -s*eps_B and +shift to the exit row and +s*eps_B and
    # -shift to the invariance rows; expanding flips every sign.
    side = np.ones(len(b))
    side[0] = -1.0
    if not tighten:
        side = -side
    strict = np.zeros(len(b) + m, dtype=bool)
    strict[0] = True
    strict[len(b):] = s > 0
    return (np.concatenate([A + side[:, None] * (s * bounds.eps_B), np.eye(m)]),
            np.concatenate([b - side * shift, np.zeros(m)]),
            strict)


def robust_vertex_system(
    cell, exit_facet, vertex_j, ref_model, bounds, pattern, control_box
) -> LinearConstraintSystem:
    """Maximally tightened rows: feasibility certifies reachability for any
    dynamics within the deviation radii of the reference model."""
    return LinearConstraintSystem(
        *_perturbed_rows(cell, exit_facet, vertex_j, ref_model, bounds, pattern, True),
        control_box)


def expanded_vertex_system(
    cell, exit_facet, vertex_j, ref_model, bounds, pattern, control_box
) -> LinearConstraintSystem:
    """Maximally loosened rows: joint infeasibility over all patterns
    certifies unreachability for any dynamics within the radii."""
    return LinearConstraintSystem(
        *_perturbed_rows(cell, exit_facet, vertex_j, ref_model, bounds, pattern, False),
        control_box)


def predict_exit_facet(
    cell: Polytope,
    exit_facet: int,
    ref_model: AffineModel,
    bounds: ModelDeviationBounds,
    control_box,
) -> ReachDecision:
    """Predictive tri-state decision for a cell with unidentified dynamics.

    EXISTS iff every vertex has a feasible robust pattern system; ABSENT iff
    some vertex has all expanded pattern systems infeasible; UNCERTAIN
    otherwise.
    """
    m = ref_model.B.shape[1]
    patterns = sign_patterns(m)
    witnesses: list[np.ndarray] = []
    robust_failed: list[int] = []
    for j in range(cell.n_vertices):
        wit = None
        for idx, pat in enumerate(patterns):
            res = decide_with_screen(
                robust_vertex_system(cell, exit_facet, j, ref_model, bounds, pat, control_box)
            )
            if res.feasible:
                wit = res.witness
                # A pattern feasible at one vertex tends to work at the
                # neighbours; trying it first saves solver calls.
                patterns.insert(0, patterns.pop(idx))
                break
        if wit is None:
            robust_failed.append(j)
        else:
            witnesses.append(wit)
    if not robust_failed:
        return ReachDecision(ReachStatus.EXISTS, witnesses)
    if bounds.eps_A == bounds.eps_B == bounds.eps_c == 0.0:
        # Robust and expanded systems coincide at zero radius, so a robust
        # failure is already an expanded failure.
        return ReachDecision(ReachStatus.ABSENT)
    # Robust-feasible vertices are expanded-feasible a fortiori; only the
    # failed ones can certify absence.
    for j in robust_failed:
        if not any(
            decide_with_screen(
                expanded_vertex_system(cell, exit_facet, j, ref_model, bounds, pat, control_box)
            ).feasible
            for pat in patterns
        ):
            return ReachDecision(ReachStatus.ABSENT)
    return ReachDecision(ReachStatus.UNCERTAIN)


def synthesize_controller(cell: Polytope, witnesses, x0) -> ControllerLaw:
    """Interpolate the per-vertex witness inputs over the simplex of the
    cell's triangulation containing x0 (ties: lowest simplex index)."""
    simplices = triangulate(cell)
    k = find_containing_simplex(cell, simplices, x0)
    return _interpolate_on_simplex(cell, simplices[k], witnesses)


def _interpolate_on_simplex(cell: Polytope, simplex: Simplex, witnesses) -> ControllerLaw:
    idxs = list(simplex.vertex_indices)
    V = cell.vertices[idxs]            # (n+1, n)
    U = np.array([witnesses[j] for j in idxs])  # (n+1, m)
    n = cell.dim
    mat = np.vstack([V.T, np.ones(len(idxs))])  # (n+1, n+1)
    try:
        fg = np.linalg.solve(mat.T, U)  # (n+1, m): rows = [F | g]^T
    except np.linalg.LinAlgError as exc:
        raise SynthesisError("degenerate interpolation simplex") from exc
    F = fg[:n].T
    g = fg[n]
    return ControllerLaw(F, g, simplex, [witnesses[j] for j in idxs])


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
        self._laws: dict[int, ControllerLaw] = {}

    def _law(self, k: int) -> ControllerLaw:
        if k not in self._laws:
            self._laws[k] = _interpolate_on_simplex(self.cell, self.simplices[k], self.witnesses)
        return self._laws[k]

    def input(self, x):
        k = find_containing_simplex(self.cell, self.simplices, x)
        return self._law(k).input(x)


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

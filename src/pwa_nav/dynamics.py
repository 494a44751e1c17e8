"""Ground-truth control-affine systems, linearization oracles, and fixed-step
closed-loop integration with facet-exit detection."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .geometry import Polytope

EXIT_TOL = 1e-9          # in-cell predicate tolerance during simulation
BISECT_TIME_TOL = 1e-10


@dataclass
class AffineModel:
    """Affine vector field x' = A x + B u + c on one cell."""

    A: np.ndarray
    B: np.ndarray
    c: np.ndarray
    center: np.ndarray

    def __post_init__(self):
        self.A = np.asarray(self.A, dtype=float)
        self.B = np.asarray(self.B, dtype=float)
        self.c = np.asarray(self.c, dtype=float)
        self.center = np.asarray(self.center, dtype=float)
        if not (np.all(np.isfinite(self.A)) and np.all(np.isfinite(self.B))
                and np.all(np.isfinite(self.c))):
            raise ValueError("affine model entries must be finite")

    def velocity(self, x, u) -> np.ndarray:
        return self.A @ x + self.B @ u + self.c


class ControlAffineField:
    """Abstract x' = f(x) + g(x) u with declared Lipschitz constants for
    grad f and g. Subclasses give the drift, its Jacobian and the control
    matrix in closed form."""

    n: int
    m: int
    L_df: float
    L_g: float

    def drift(self, x) -> np.ndarray:
        raise NotImplementedError

    def control_matrix(self, x) -> np.ndarray:
        raise NotImplementedError

    def jacobian_drift(self, x) -> np.ndarray:
        raise NotImplementedError

    def velocity(self, x, u) -> np.ndarray:
        return self.drift(x) + self.control_matrix(x) @ np.asarray(u, dtype=float)


class TerrainField(ControlAffineField):
    """Builtin mobile-robot terrain model: sinusoid drift perturbations over
    a constant -4.5 bias, state-dependent near-identity control matrix."""

    n = 2
    m = 2
    L_df = 0.03
    L_g = 0.03

    def drift(self, x):
        x = np.asarray(x, dtype=float)
        return np.array([
            -0.5 * np.sin(0.1 * x[0] - 0.2 * x[1]) - 4.5,
            -0.2 * np.sin(0.3 * x[0] - 0.1 * x[1]) - 4.5,
        ])

    def control_matrix(self, x):
        x = np.asarray(x, dtype=float)
        return np.array([
            [1.0 + 0.02 * x[0], 0.02 * x[1]],
            [-0.02 * x[0], 1.0 - 0.02 * x[1]],
        ])

    def jacobian_drift(self, x):
        x = np.asarray(x, dtype=float)
        c1 = np.cos(0.1 * x[0] - 0.2 * x[1])
        c2 = np.cos(0.3 * x[0] - 0.1 * x[1])
        return np.array([
            [-0.05 * c1, 0.10 * c1],
            [-0.06 * c2, 0.02 * c2],
        ])


class AffineField(ControlAffineField):
    """Exactly affine ground truth; its linearization is itself."""

    def __init__(self, A, B, c, L_df: float = 0.0, L_g: float = 0.0):
        self.A = np.asarray(A, dtype=float)
        self.B = np.asarray(B, dtype=float)
        self.c = np.asarray(c, dtype=float)
        self.n = self.A.shape[0]
        self.m = self.B.shape[1]
        self.L_df = max(L_df, 1e-12)
        self.L_g = max(L_g, 1e-12)

    def drift(self, x):
        return self.A @ np.asarray(x, dtype=float) + self.c

    def control_matrix(self, x):
        return self.B

    def jacobian_drift(self, x):
        return self.A


def linearize_at(field: ControlAffineField, x_e) -> AffineModel:
    """Affine model A x + B u + c matching the field to first order at x_e:
    A = grad f(x_e), B = g(x_e), c = f(x_e) - A x_e."""
    x_e = np.asarray(x_e, dtype=float)
    A = field.jacobian_drift(x_e)
    B = field.control_matrix(x_e)
    f_e = field.drift(x_e)
    return AffineModel(A, B, f_e - A @ x_e, x_e)


class ExitOutcome(Enum):
    EXITED_FACET = "exited_facet"
    TIMEOUT = "timeout"


@dataclass
class ExitRecord:
    exit_state: np.ndarray
    exit_time: float
    exit_facet: int | None
    outcome: ExitOutcome
    samples: list = field(default_factory=list)  # (t, x, u) along the run


def saturate(u, control_box) -> np.ndarray:
    if control_box is None:
        return np.asarray(u, dtype=float)
    box = np.asarray(control_box, dtype=float)
    return np.clip(u, box[:, 0], box[:, 1])


def rk4_step(velocity, x, dt: float) -> np.ndarray:
    k1 = velocity(x)
    k2 = velocity(x + 0.5 * dt * k1)
    k3 = velocity(x + 0.5 * dt * k2)
    k4 = velocity(x + dt * k3)
    return x + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


def simulate_closed_loop(
    field: ControlAffineField,
    law,
    cell: Polytope,
    x0,
    step: float = 1e-3,
    t_max: float = 10.0,
    control_box=None,
) -> ExitRecord:
    """Integrate x' = f(x) + g(x) sat(law(x)) with classical RK4 until the
    state leaves the cell or t_max elapses. The crossing time is bisected to
    BISECT_TIME_TOL; the exit facet is the one with maximal signed halfspace
    violation.

    `law` is anything exposing input(x) -> u; the applied input is clamped
    componentwise into control_box.
    """
    x0 = np.asarray(x0, dtype=float)
    if not cell.contains(x0, tol=EXIT_TOL):
        raise ValueError("initial state lies outside the cell")
    if step <= 0 or t_max <= 0:
        raise ValueError("step and t_max must be positive")

    def closed_loop(x):
        u = saturate(law.input(x), control_box)
        return field.velocity(x, u)

    samples = [(0.0, x0.copy(), saturate(law.input(x0), control_box))]
    t, x = 0.0, x0.copy()
    while t < t_max - 1e-15:
        dt = min(step, t_max - t)
        x_new = rk4_step(closed_loop, x, dt)
        if cell.violation(x_new) > EXIT_TOL:
            # bisect the crossing time within (t, t + dt]
            lo_dt, hi_dt = 0.0, dt
            x_hi = x_new
            while hi_dt - lo_dt > BISECT_TIME_TOL:
                mid = 0.5 * (lo_dt + hi_dt)
                x_mid = rk4_step(closed_loop, x, mid)
                if cell.violation(x_mid) > EXIT_TOL:
                    hi_dt, x_hi = mid, x_mid
                else:
                    lo_dt = mid
            t_exit = t + hi_dt
            facet = int(np.argmax(cell.normals @ x_hi - cell.offsets))
            samples.append((t_exit, x_hi.copy(), saturate(law.input(x_hi), control_box)))
            return ExitRecord(x_hi, t_exit, facet, ExitOutcome.EXITED_FACET, samples)
        t += dt
        x = x_new
        samples.append((t, x.copy(), saturate(law.input(x), control_box)))
    return ExitRecord(x, t, None, ExitOutcome.TIMEOUT, samples)

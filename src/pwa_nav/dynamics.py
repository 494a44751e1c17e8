"""Ground-truth control-affine systems, linearization oracles, and fixed-step
closed-loop integration with facet-exit detection.

Transits and identification bursts integrate on Python floats: a state,
an input and a velocity are tuples of floats, and one RK4 (`rk4_step`)
serves both. Only the matrix-vector products stay NumPy calls on the same
arrays and shapes (F x in the interpolation law, g(x) u in the terrain
field, A x and B u in an affine field): OpenBLAS may fuse their
multiply-adds, so a scalar rewrite of even a 2 x 2 product changes the last
bits of a trajectory. They are taken with ndarray.dot, which gives the bits
of the @ operator (the tests' array-form references use @) at less call
overhead. Every other operation, the saturation clamp and the exit test
included, is the IEEE operation the array form applied, one float at a
time, so the floats are those of the array form bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

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

    @cached_property
    def a_norm(self) -> float:  # ||A||_2, which the deviation radii scale with
        return float(np.linalg.norm(self.A, ord=2))

    def velocity(self, x, u) -> np.ndarray:
        return self.A @ x + self.B @ u + self.c


class ControlAffineField:
    """Abstract x' = f(x) + g(x) u with declared Lipschitz constants for
    grad f and g. Subclasses give the drift, its Jacobian and the control
    matrix in closed form, and the velocity on floats."""

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

    def velocity(self, x, u) -> tuple[float, ...]:
        """f(x) + g(x) u at the state x under the input u, both sequences of
        floats, as a tuple of floats: the values of
        drift(x) + control_matrix(x) @ u, bit for bit."""
        raise NotImplementedError


class TerrainField(ControlAffineField):
    """Builtin mobile-robot terrain model: sinusoid drift perturbations over
    a constant -4.5 bias, state-dependent near-identity control matrix."""

    n = 2
    m = 2
    L_df = 0.03
    L_g = 0.03

    # The formulas work on Python floats: the same IEEE operations as on
    # NumPy scalars, at a fraction of the cost.
    @staticmethod
    def _drift(x0, x1):
        return (-0.5 * math.sin(0.1 * x0 - 0.2 * x1) - 4.5,
                -0.2 * math.sin(0.3 * x0 - 0.1 * x1) - 4.5)

    @staticmethod
    def _control_matrix(x0, x1):
        return [[1.0 + 0.02 * x0, 0.02 * x1],
                [-0.02 * x0, 1.0 - 0.02 * x1]]

    def drift(self, x):
        return np.array(self._drift(*np.asarray(x, dtype=float).tolist()))

    def control_matrix(self, x):
        return np.array(self._control_matrix(*np.asarray(x, dtype=float).tolist()))

    def velocity(self, x, u):
        x0, x1 = x
        f0, f1 = self._drift(x0, x1)
        g0, g1 = np.array(self._control_matrix(x0, x1)).dot(u).tolist()
        return (f0 + g0, f1 + g1)

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
        self._c = self.c.tolist()

    def drift(self, x):
        return self.A @ np.asarray(x, dtype=float) + self.c

    def control_matrix(self, x):
        return self.B

    def jacobian_drift(self, x):
        return self.A

    def velocity(self, x, u):
        ax, bu = self.A.dot(x).tolist(), self.B.dot(u).tolist()
        return tuple([(a + c) + b for a, c, b in zip(ax, self._c, bu)])


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
    samples: list = field(default_factory=list)  # (t, x, u) along the run, x and u float tuples


def saturation(control_box):
    """The map u -> u clamped componentwise into control_box, an (m, 2)
    array of [low, high] rows, on a sequence of floats. It returns a float
    tuple with the values of np.clip, NaN and signed zeros included: NaN in
    u or in a bound propagates, and an input equal to a bound takes the
    bound, so a zero input against a zero bound takes the bound's sign."""
    box = np.asarray(control_box, dtype=float)
    lows, highs = box[:, 0].tolist(), box[:, 1].tolist()

    def clamp(u):
        # np.clip is min(max(u, low), high), each taking u where u is NaN.
        u = [v if v > lo or v != v else lo for v, lo in zip(u, lows)]
        return tuple([v if v < hi or v != v else hi for v, hi in zip(u, highs)])

    return clamp


def rk4_step(velocity, x, dt: float, k1) -> tuple[float, ...]:
    """One classical RK4 step on floats from the state x and its first stage
    k1 = velocity(x), float sequences, with the operations of the array form
    in its order: x + (0.5 dt) k for the middle stages, x + dt k3 for the
    last, then x + (dt / 6) (((k1 + 2 k2) + 2 k3) + k4)."""
    h = 0.5 * dt
    k2 = velocity([a + h * k for a, k in zip(x, k1)])
    k3 = velocity([a + h * k for a, k in zip(x, k2)])
    k4 = velocity([a + dt * k for a, k in zip(x, k3)])
    w = dt / 6.0
    return tuple([a + w * (((b + 2 * c) + 2 * d) + e)
                  for a, b, c, d, e in zip(x, k1, k2, k3, k4)])


def simulate_closed_loop(
    field: ControlAffineField,
    law,
    cell: Polytope,
    x0,
    step: float = 1e-3,
    t_max: float = 10.0,
    *,
    control_box,
) -> ExitRecord:
    """Integrate x' = f(x) + g(x) sat(law(x)) with classical RK4 until the
    state leaves the cell or t_max elapses. The crossing time is bisected to
    BISECT_TIME_TOL; the exit facet is the one with maximal signed halfspace
    violation.

    `law` is anything exposing input(x) -> u on float sequences; the
    applied input is clamped componentwise into control_box.

    The law and the field are evaluated once per state: the input recorded
    with a sample is the one the next step's first stage uses, and that
    stage, f(x) + g(x) u, serves the full step and every trial step of the
    exit bisection.

    The state is integrated on floats, which overflow to inf and NaN
    without a warning (none comes from the products either). A state
    holding NaN has a NaN violation and is never outside the cell, so a
    transit that overflows to NaN runs on to t_max and times out there.
    """
    x = tuple(np.asarray(x0, dtype=float).tolist())
    if not cell.contains(x, tol=EXIT_TOL):
        raise ValueError("initial state lies outside the cell")
    if step <= 0 or t_max <= 0:
        raise ValueError("step and t_max must be positive")
    saturate = saturation(control_box)

    def closed_loop(x):
        return field.velocity(x, saturate(law.input(x)))

    u = saturate(law.input(x))
    samples = [(0.0, x, u)]
    t = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        while t < t_max - 1e-15:
            dt = min(step, t_max - t)
            k1 = field.velocity(x, u)
            x_new = rk4_step(closed_loop, x, dt, k1)
            if cell.violation(x_new) > EXIT_TOL:
                # bisect the crossing time within (t, t + dt]
                lo_dt, hi_dt = 0.0, dt
                x_hi = x_new
                while hi_dt - lo_dt > BISECT_TIME_TOL:
                    mid = 0.5 * (lo_dt + hi_dt)
                    x_mid = rk4_step(closed_loop, x, mid, k1)
                    if cell.violation(x_mid) > EXIT_TOL:
                        hi_dt, x_hi = mid, x_mid
                    else:
                        lo_dt = mid
                t_exit = t + hi_dt
                facet = int(np.argmax(cell.normals @ x_hi - cell.offsets))
                samples.append((t_exit, x_hi, saturate(law.input(x_hi))))
                return ExitRecord(np.array(x_hi), t_exit, facet, ExitOutcome.EXITED_FACET,
                                  samples)
            t += dt
            x = x_new
            u = saturate(law.input(x))
            samples.append((t, x, u))
    return ExitRecord(np.array(x), t, None, ExitOutcome.TIMEOUT, samples)

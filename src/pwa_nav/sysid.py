"""Affine model identification from small random excitations and least
squares on the extended regressor [x; u; 1].

The burst integrates with `dynamics.rk4_step`, handing it the first stage,
which in oracle mode is also the recorded velocity, so the field is
evaluated four times per sample, not five. Velocities come only from the
field's own `velocity`: its products (g(x) @ u, A @ x) stay NumPy calls,
since OpenBLAS may fuse their multiply-adds and a scalar rewrite would
change the last bits of the fitted model."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .dynamics import AffineModel, ControlAffineField, rk4_step, saturation

COND_LIMIT = 1e12


def _finite(a: np.ndarray) -> bool:
    """Whether every entry of the 1-D array a is finite; a fifth of the cost
    of np.isfinite(a).all() on the few entries of a state."""
    return all(map(math.isfinite, a.tolist()))


class IdentificationError(RuntimeError):
    """The excitation overflowed, or the regressor Gram matrix is too
    ill-conditioned even after ridge fallback."""


class VelocityMode(Enum):
    ORACLE = "oracle"
    FINITE_DIFFERENCE = "finite_difference"


@dataclass
class IdentificationConfig:
    samples: int = 100
    time_step: float = 1e-3
    input_scale: float = 0.1
    velocity_mode: VelocityMode = VelocityMode.ORACLE
    seed: int = 0

    def validate(self, n: int, m: int) -> None:
        if self.samples < n + m + 1:
            raise IdentificationError(
                f"samples = {self.samples} below identifiability minimum {n + m + 1}"
            )
        if self.time_step <= 0 or self.input_scale <= 0:
            raise IdentificationError("time_step and input_scale must be positive")


def identify(
    env: ControlAffineField,
    x_init,
    cfg: IdentificationConfig,
    control_box=None,
    history: list | None = None,
) -> tuple[AffineModel, np.ndarray, float]:
    """Excite the system with uniform random inputs in
    [-input_scale, input_scale]^m (clamped into the control box), record
    velocities and extended regressors, and solve the least-squares normal
    equations for Theta = [A | B | c].

    The state is advanced (never reset) between samples; the caller handles
    any cell change. When `history` is given, the visited (x, u) pairs are
    appended to it.

    All N inputs come from one draw, the same stream as one draw per sample.
    The oracle velocity recorded at x is the first RK4 stage of the step
    from x. The excitation stops with IdentificationError at the first
    state, stage or velocity that is not finite, before the field is
    evaluated there.
    """
    n, m = env.n, env.m
    cfg.validate(n, m)
    rng = np.random.default_rng(cfg.seed)
    x = np.asarray(x_init, dtype=float).copy()
    T = cfg.time_step
    N = cfg.samples
    inputs = saturation(control_box)(
        rng.uniform(-cfg.input_scale, cfg.input_scale, size=(N, m)))
    if not (_finite(x) and np.all(np.isfinite(inputs))):
        raise IdentificationError("the initial state or an input is not finite")
    oracle = cfg.velocity_mode is VelocityMode.ORACLE

    X = np.empty((n + m + 1, N))
    Xdot = np.empty((n, N))
    states = np.empty((N, n))
    # Overflow is caught by the finiteness checks, not reported as a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(N):
            u = inputs[i]

            def velocity(s):
                if not _finite(s):
                    raise IdentificationError(f"the excitation overflowed at sample {i}")
                return env.velocity(s, u)

            k1 = env.velocity(x, u)
            x_new = rk4_step(velocity, x, T, k1)
            v = k1 if oracle else (x_new - x) / T
            if not (_finite(x_new) and _finite(v)):
                raise IdentificationError(f"the excitation overflowed at sample {i}")
            X[:n, i] = x
            X[n:n + m, i] = u
            X[-1, i] = 1.0
            Xdot[:, i] = v
            states[i] = x
            if history is not None:
                history.append((x.copy(), u.copy()))
            x = x_new

    # A Gram matrix whose entries overflow leaves nothing to fit.
    with np.errstate(over="ignore", invalid="ignore"):
        gram = X @ X.T
    if not np.all(np.isfinite(gram)):
        raise IdentificationError("regressor Gram matrix overflows")
    cond = np.linalg.cond(gram)
    if cond > COND_LIMIT:
        ridge = 1e-8 * np.trace(gram) / (n + m + 1)
        gram = gram + ridge * np.eye(n + m + 1)
        if np.linalg.cond(gram) > COND_LIMIT:
            raise IdentificationError(
                f"regressor Gram matrix ill-conditioned (cond = {cond:.3e})"
            )
        theta = np.linalg.solve(gram, X @ Xdot.T).T  # (n, p)
    else:
        # Same least-squares minimizer as the normal equations, but solved
        # via orthogonal factorization so the conditioning is not squared.
        theta = np.linalg.lstsq(X.T, Xdot.T, rcond=None)[0].T
    residual = Xdot - theta @ X
    residual_rms = float(np.sqrt(np.mean(residual**2)))
    model = AffineModel(
        A=theta[:, :n],
        B=theta[:, n:n + m],
        c=theta[:, -1],
        center=states.mean(axis=0),
    )
    return model, x, residual_rms

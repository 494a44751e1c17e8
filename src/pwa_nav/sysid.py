"""Affine model identification from small random excitations and least
squares on the extended regressor [x; u; 1]."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .dynamics import AffineModel, ControlAffineField, rk4_step, saturate

COND_LIMIT = 1e12


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
    """
    n, m = env.n, env.m
    cfg.validate(n, m)
    rng = np.random.default_rng(cfg.seed)
    x = np.asarray(x_init, dtype=float).copy()
    T = cfg.time_step
    N = cfg.samples

    X = np.empty((n + m + 1, N))
    Xdot = np.empty((n, N))
    states = np.empty((N, n))
    for i in range(N):
        u = rng.uniform(-cfg.input_scale, cfg.input_scale, size=m)
        u = saturate(u, control_box)
        x_new = rk4_step(lambda s: env.velocity(s, u), x, T)
        if cfg.velocity_mode is VelocityMode.ORACLE:
            v = env.velocity(x, u)
        else:
            v = (x_new - x) / T
        X[:n, i] = x
        X[n:n + m, i] = u
        X[-1, i] = 1.0
        Xdot[:, i] = v
        states[i] = x
        if history is not None:
            history.append((x.copy(), u.copy()))
        x = x_new

    # An excitation that overflows (a huge time step or state) leaves
    # nothing to fit; nor does a Gram matrix whose entries overflow.
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(Xdot))):
        raise IdentificationError("a recorded state or velocity is not finite")
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

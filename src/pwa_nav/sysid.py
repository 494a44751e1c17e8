"""Affine model identification from small random excitations and least
squares on the extended regressor [x; u; 1].

The burst integrates on Python floats with `dynamics.rk4_step`, the RK4 of
the transits, handing it the first stage, which in oracle mode is also the
recorded velocity, so the field is evaluated four times per sample, not
five. Velocities come only from the field's own `velocity`, whose
matrix-vector products (g(x) u, A x, B u) stay NumPy calls: OpenBLAS may
fuse their multiply-adds, so a scalar rewrite would change the last bits
of the fitted model. The samples become arrays once, for the fit."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .dynamics import AffineModel, ControlAffineField, rk4_step, saturation

COND_LIMIT = 1e12


def _finite(a) -> bool:
    """Whether every float of the sequence a is finite."""
    return all(map(math.isfinite, a))


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
    control_box,
    history: list | None = None,
) -> tuple[AffineModel, np.ndarray, float]:
    """Excite the system with uniform random inputs in
    [-input_scale, input_scale]^m (clamped into the control box), record
    velocities and extended regressors, and solve the least-squares normal
    equations for Theta = [A | B | c].

    The state is advanced (never reset) between samples; the caller handles
    any cell change. When `history` is given, the visited (x, u) pairs are
    appended to it, each a float tuple.

    All N inputs come from one draw, the same stream as one draw per sample.
    The oracle velocity recorded at x is the first RK4 stage of the step
    from x. The excitation stops with IdentificationError at the first
    state, stage or velocity that is not finite, before the field is
    evaluated there.
    """
    n, m = env.n, env.m
    cfg.validate(n, m)
    rng = np.random.default_rng(cfg.seed)
    x = tuple(np.asarray(x_init, dtype=float).tolist())
    T = cfg.time_step
    N = cfg.samples
    clamp = saturation(control_box)
    inputs = [clamp(u) for u in
              rng.uniform(-cfg.input_scale, cfg.input_scale, size=(N, m)).tolist()]
    if not (_finite(x) and all(map(_finite, inputs))):
        raise IdentificationError("the initial state or an input is not finite")
    oracle = cfg.velocity_mode is VelocityMode.ORACLE

    states, velocities = [], []
    # Overflow is caught by the finiteness checks, not reported as a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        for i, u in enumerate(inputs):

            def velocity(s):
                if not _finite(s):
                    raise IdentificationError(f"the excitation overflowed at sample {i}")
                return env.velocity(s, u)

            k1 = env.velocity(x, u)
            x_new = rk4_step(velocity, x, T, k1)
            v = k1 if oracle else tuple([(b - a) / T for a, b in zip(x, x_new)])
            if not (_finite(x_new) and _finite(v)):
                raise IdentificationError(f"the excitation overflowed at sample {i}")
            states.append(x)
            velocities.append(v)
            if history is not None:
                history.append((x, u))
            x = x_new

    # The regressor columns [x; u; 1] and the velocities, one per sample, in
    # C order: the memory order of the fit's products picks the BLAS kernel,
    # and with it the last bits of the model.
    states = np.array(states)
    X = np.empty((n + m + 1, N))
    X[:n], X[n:n + m], X[-1] = states.T, np.array(inputs).T, 1.0
    Xdot = np.array(velocities).T.copy()
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
    return model, np.array(x), residual_rms

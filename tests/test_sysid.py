import numpy as np
import pytest

from pwa_nav.dynamics import AffineField, AffineModel, TerrainField, linearize_at
from pwa_nav.sysid import (
    COND_LIMIT,
    IdentificationConfig,
    IdentificationError,
    VelocityMode,
    identify,
)
from test_dynamics import ArrayForm, bits

BOX = np.array([[-5.0, 5.0], [-5.0, 5.0]])


def random_affine(rng):
    return AffineField(
        rng.normal(scale=0.5, size=(2, 2)),
        rng.normal(scale=0.5, size=(2, 2)) + np.eye(2),
        rng.normal(size=2),
    )


def max_entry_error(model, A, B, c):
    return max(
        float(np.abs(model.A - A).max()),
        float(np.abs(model.B - B).max()),
        float(np.abs(model.c - c).max()),
    )


class TestExactRecovery:
    def test_affine_oracle_recovery(self):
        rng = np.random.default_rng(100)
        env = random_affine(rng)
        cfg = IdentificationConfig(samples=100, velocity_mode=VelocityMode.ORACLE, seed=1)
        model, _, residual = identify(env, rng.normal(size=2), cfg, control_box=BOX)
        assert max_entry_error(model, env.A, env.B, env.c) <= 1e-8
        assert residual <= 1e-10

    def test_recovery_for_any_seed_at_minimum_samples(self):
        rng = np.random.default_rng(101)
        env = random_affine(rng)
        for seed in range(10):
            cfg = IdentificationConfig(samples=5, velocity_mode=VelocityMode.ORACLE,
                                       seed=seed)
            model, _, _ = identify(env, np.array([0.3, -0.7]), cfg, control_box=BOX)
            assert max_entry_error(model, env.A, env.B, env.c) <= 1e-6


class TestTerrainRecovery:
    def test_center_cell_within_curvature_tolerance(self):
        env = TerrainField()
        center = np.array([0.5, 0.5])
        ref = linearize_at(env, center)
        cfg = IdentificationConfig(samples=100, time_step=1e-3, input_scale=0.1,
                                   velocity_mode=VelocityMode.ORACLE, seed=0)
        model, _, _ = identify(env, center, cfg, control_box=BOX)
        assert max_entry_error(model, ref.A, ref.B, ref.c) <= 0.1

    def test_velocity_prediction_error_inside_cell(self):
        # What the planner actually consumes: velocity predictions on the cell.
        env = TerrainField()
        center = np.array([0.5, 0.5])
        cfg = IdentificationConfig(samples=100, time_step=2e-4, input_scale=0.1,
                                   velocity_mode=VelocityMode.ORACLE, seed=0)
        model, _, _ = identify(env, center, cfg, control_box=BOX)
        rng = np.random.default_rng(9)
        worst = 0.0
        for _ in range(200):
            x = rng.uniform(0, 1, size=2)
            u = rng.uniform(-5, 5, size=2)
            err = np.linalg.norm(env.velocity(x, u) - model.velocity(x, u))
            worst = max(worst, err)
        assert worst <= 0.5


class TestVelocityModes:
    def test_finite_difference_close_to_oracle_on_affine_env(self):
        rng = np.random.default_rng(102)
        env = random_affine(rng)
        x0 = np.array([0.1, -0.2])
        kw = dict(samples=100, time_step=1e-4, input_scale=0.1, seed=3)
        m_fd, _, _ = identify(
            env, x0,
            IdentificationConfig(velocity_mode=VelocityMode.FINITE_DIFFERENCE, **kw),
            control_box=BOX,
        )
        m_or, _, _ = identify(
            env, x0,
            IdentificationConfig(velocity_mode=VelocityMode.ORACLE, **kw),
            control_box=BOX,
        )
        assert max_entry_error(m_fd, m_or.A, m_or.B, m_or.c) <= 1e-3


class TestMechanics:
    def test_determinism(self):
        env = TerrainField()
        cfg = IdentificationConfig(samples=50, seed=77)
        m1, x1, r1 = identify(env, np.array([1.0, 1.0]), cfg, control_box=BOX)
        m2, x2, r2 = identify(env, np.array([1.0, 1.0]), cfg, control_box=BOX)
        assert np.array_equal(m1.A, m2.A) and np.array_equal(m1.B, m2.B)
        assert np.array_equal(m1.c, m2.c) and np.array_equal(x1, x2)
        assert r1 == r2

    def test_state_advances_without_reset(self):
        env = TerrainField()
        cfg = IdentificationConfig(samples=100, time_step=1e-3, seed=5)
        x0 = np.array([0.0, 0.0])
        _, x_final, _ = identify(env, x0, cfg, control_box=BOX)
        moved = np.linalg.norm(x_final - x0)
        assert moved > 0
        # Bounded by samples * step * top speed along the run (~6.4 here).
        assert moved <= 100 * 1e-3 * 8.0

    def test_history_records_all_samples(self):
        env = TerrainField()
        cfg = IdentificationConfig(samples=20, seed=5)
        history = []
        identify(env, np.array([0.0, 0.0]), cfg, control_box=BOX, history=history)
        assert len(history) == 20
        for x, u in history:
            assert np.all(np.abs(u) <= 0.1 + 1e-12)

    def test_inputs_clamped_into_control_box(self):
        env = TerrainField()
        tight = np.array([[-0.02, 0.02], [-0.02, 0.02]])
        cfg = IdentificationConfig(samples=30, input_scale=0.1, seed=6)
        history = []
        identify(env, np.array([0.0, 0.0]), cfg, control_box=tight, history=history)
        for _, u in history:
            assert all(-0.02 - 1e-15 <= v <= 0.02 + 1e-15 for v in u)

    def test_too_few_samples_rejected(self):
        env = TerrainField()
        cfg = IdentificationConfig(samples=4)
        with pytest.raises(IdentificationError):
            identify(env, np.zeros(2), cfg, control_box=BOX)

    def test_center_is_mean_of_visited_states(self):
        env = TerrainField()
        cfg = IdentificationConfig(samples=25, seed=8)
        history = []
        model, _, _ = identify(env, np.array([0.5, 0.5]), cfg,
                               control_box=BOX, history=history)
        mean_state = np.mean([x for x, _ in history], axis=0)
        assert np.allclose(model.center, mean_state)


def reference_identify(env, x_init, cfg, control_box, history=None):
    """identify as it was before it batched its draws: one rng.uniform call
    and one np.clip per sample, and a fifth velocity evaluation for the
    oracle velocity."""
    n, m = env.n, env.m
    rng = np.random.default_rng(cfg.seed)
    x = np.asarray(x_init, dtype=float).copy()
    T = cfg.time_step
    N = cfg.samples
    X = np.empty((n + m + 1, N))
    Xdot = np.empty((n, N))
    states = np.empty((N, n))
    for i in range(N):
        u = rng.uniform(-cfg.input_scale, cfg.input_scale, size=m)
        box = np.asarray(control_box, dtype=float)
        u = np.clip(u, box[:, 0], box[:, 1])
        k1 = env.velocity(x, u)
        k2 = env.velocity(x + 0.5 * T * k1, u)
        k3 = env.velocity(x + 0.5 * T * k2, u)
        k4 = env.velocity(x + T * k3, u)
        x_new = x + (T / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
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
    gram = X @ X.T
    cond = np.linalg.cond(gram)
    if cond > COND_LIMIT:
        gram = gram + 1e-8 * np.trace(gram) / (n + m + 1) * np.eye(n + m + 1)
        theta = np.linalg.solve(gram, X @ Xdot.T).T
    else:
        theta = np.linalg.lstsq(X.T, Xdot.T, rcond=None)[0].T
    residual = Xdot - theta @ X
    model = AffineModel(A=theta[:, :n], B=theta[:, n:n + m], c=theta[:, -1],
                        center=states.mean(axis=0))
    return model, x, float(np.sqrt(np.mean(residual**2)))


class TestMatchesReference:
    """One draw for all inputs and the first RK4 stage as the oracle
    velocity leave every output of identify bit-identical."""

    @pytest.mark.parametrize("mode", list(VelocityMode))
    @pytest.mark.parametrize("box", [None, "wide", "tight"])
    @pytest.mark.parametrize("kind", ["terrain", "affine-m1", "affine-m3"])
    def test_bit_identical(self, kind, box, mode):
        rng = np.random.default_rng([7, len(kind), len(box or ""), len(mode.value)])
        if kind == "terrain":
            env = TerrainField()
        else:
            m = int(kind[-1])
            env = AffineField(rng.normal(scale=0.5, size=(2, 2)),
                              rng.normal(size=(2, m)), rng.normal(size=2))
        # Every call takes a finite box; with None it is far wider than any
        # input, with "wide" it holds them all too, and "tight" clamps.
        bounds = {None: [-1e6, 1e6], "wide": [-5.0, 5.0], "tight": [-0.03, 0.05]}[box]
        control_box = np.tile(bounds, (env.m, 1))
        for seed in range(4):
            cfg = IdentificationConfig(samples=40 + 10 * seed, velocity_mode=mode, seed=seed)
            x0 = rng.uniform(-3.0, 3.0, size=2)
            got_history, want_history = [], []
            got = identify(env, x0, cfg, control_box=control_box, history=got_history)
            want = reference_identify(ArrayForm(env), x0, cfg, control_box, want_history)
            for field in ("A", "B", "c", "center"):
                assert bits(getattr(got[0], field)) == bits(getattr(want[0], field)), field
            assert bits(got[1]) == bits(want[1])
            assert bits(got[2]) == bits(want[2])
            assert len(got_history) == len(want_history) == cfg.samples
            for part in range(2):
                assert (bits([h[part] for h in got_history])
                        == bits([h[part] for h in want_history]))

    @pytest.mark.parametrize("mode", list(VelocityMode))
    def test_bit_identical_on_the_ridge_path(self, mode):
        # The bundled scenario's burst (N = 100, T = 2e-4) barely moves the
        # state, so its Gram matrix is ill-conditioned and the fit takes the
        # ridge path, whose product X @ Xdot.T depends on the arrays'
        # memory order.
        env = TerrainField()
        fits = 0
        for seed in range(4):
            cfg = IdentificationConfig(samples=100, time_step=2e-4, velocity_mode=mode,
                                       seed=seed)
            x0 = np.array([0.5 + seed, 8.5])
            got = identify(env, x0, cfg, control_box=BOX)
            want = reference_identify(ArrayForm(env), x0, cfg, BOX)
            for field in ("A", "B", "c", "center"):
                assert bits(getattr(got[0], field)) == bits(getattr(want[0], field)), field
            assert bits(got[1]) == bits(want[1]) and bits(got[2]) == bits(want[2])
            history = []
            identify(env, x0, cfg, control_box=BOX, history=history)
            X = np.array([[*x, *u, 1.0] for x, u in history]).T
            fits += np.linalg.cond(X @ X.T) > COND_LIMIT
        assert fits >= 2


class FiniteOnly:
    """A field that fails the test if evaluated at a state that is not
    finite."""

    def __init__(self, env):
        self.env, self.n, self.m = env, env.n, env.m
        self.calls = 0

    def velocity(self, x, u):
        assert np.all(np.isfinite(x)), x
        self.calls += 1
        return self.env.velocity(x, u)


class TestOverflow:
    """An excitation that overflows stops at the first state, stage or
    velocity that is not finite, with IdentificationError and no
    RuntimeWarning (an error under this suite's filterwarnings)."""

    @pytest.mark.parametrize("mode", list(VelocityMode))
    @pytest.mark.parametrize("kind", ["terrain", "affine"])
    def test_huge_time_step(self, kind, mode):
        env = TerrainField() if kind == "terrain" else AffineField(
            [[2.0, 0.0], [0.0, 1.0]], np.eye(2), [1.0, 1.0])
        env = FiniteOnly(env)
        cfg = IdentificationConfig(samples=100, time_step=1e10, velocity_mode=mode)
        history = []
        with pytest.raises(IdentificationError, match="overflowed"):
            identify(env, np.array([1.0, 1.0]), cfg, control_box=BOX, history=history)
        # The states recorded before it are finite, and it stopped early.
        assert 0 < len(history) < cfg.samples
        assert all(np.all(np.isfinite(x)) for x, _ in history)
        assert env.calls <= 4 * (len(history) + 1)

    def test_initial_state_not_finite(self):
        env = FiniteOnly(TerrainField())
        cfg = IdentificationConfig(samples=10)
        with pytest.raises(IdentificationError, match="initial state"):
            identify(env, np.array([np.inf, 0.0]), cfg, control_box=BOX)
        assert env.calls == 0

    def test_input_not_finite(self):
        env = FiniteOnly(TerrainField())
        cfg = IdentificationConfig(samples=10)
        box = np.array([[-1.0, 1.0], [np.nan, np.nan]])
        with pytest.raises(IdentificationError, match="an input"):
            identify(env, np.zeros(2), cfg, control_box=box)
        assert env.calls == 0

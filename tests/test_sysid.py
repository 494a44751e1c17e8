import numpy as np
import pytest

from pwa_nav.dynamics import AffineField, TerrainField, linearize_at
from pwa_nav.sysid import (
    IdentificationConfig,
    IdentificationError,
    VelocityMode,
    identify,
)

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
            assert np.all(u >= -0.02 - 1e-15) and np.all(u <= 0.02 + 1e-15)

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

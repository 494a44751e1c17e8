from dataclasses import dataclass

import numpy as np
import pytest

from pwa_nav.dynamics import (
    AffineField,
    ExitOutcome,
    TerrainField,
    linearize_at,
    rk4_step,
    simulate_closed_loop,
)
from pwa_nav.geometry import Polytope


@dataclass
class ConstantLaw:
    """Fixed input u, whatever the state."""

    u: np.ndarray

    def input(self, x):
        return self.u


class TestTerrainModel:
    def test_drift_at_origin(self):
        env = TerrainField()
        assert np.allclose(env.drift((0.0, 0.0)), [-4.5, -4.5])

    def test_control_matrix_at_origin(self):
        env = TerrainField()
        assert np.allclose(env.control_matrix((0.0, 0.0)), np.eye(2))

    def test_control_matrix_at_10_10(self):
        env = TerrainField()
        assert np.allclose(
            env.control_matrix((10.0, 10.0)), [[1.2, 0.2], [-0.2, 0.8]]
        )

    def test_declared_lipschitz_constants(self):
        env = TerrainField()
        assert env.L_df == 0.03 and env.L_g == 0.03

    def test_lipschitz_constants_hold_empirically(self):
        env = TerrainField()
        rng = np.random.default_rng(0)
        pts = rng.uniform(-10, 10, size=(500, 2, 2))
        for x1, x2 in pts:
            d = np.linalg.norm(x2 - x1)
            dA = np.linalg.norm(env.jacobian_drift(x2) - env.jacobian_drift(x1), ord=2)
            dB = np.linalg.norm(
                env.control_matrix(x2) - env.control_matrix(x1), ord=2
            )
            assert dA <= env.L_df * d + 1e-12
            assert dB <= env.L_g * d + 1e-12


class TestLinearizeAt:
    def test_terrain_at_origin(self):
        model = linearize_at(TerrainField(), (0.0, 0.0))
        assert np.allclose(model.A, [[-0.05, 0.10], [-0.06, 0.02]])
        assert np.allclose(model.B, np.eye(2))
        assert np.allclose(model.c, [-4.5, -4.5])

    def test_constant_field(self):
        field = AffineField(np.zeros((2, 2)), [[2.0, 0.0], [0.0, 3.0]], [1.0, -1.0])
        model = linearize_at(field, (4.0, -2.0))
        assert np.allclose(model.A, 0.0)
        assert np.allclose(model.B, [[2.0, 0.0], [0.0, 3.0]])
        assert np.allclose(model.c, [1.0, -1.0])

    def test_affine_field_is_its_own_linearization(self):
        rng = np.random.default_rng(2)
        A = rng.normal(size=(2, 2))
        B = rng.normal(size=(2, 2))
        c = rng.normal(size=2)
        field = AffineField(A, B, c)
        model = linearize_at(field, rng.normal(size=2))
        assert np.allclose(model.A, A) and np.allclose(model.B, B)
        assert np.allclose(model.c, c)


class TestRK4:
    def test_affine_flow_order(self):
        # Halving the step must shrink the endpoint error by >= 2^4.
        rng = np.random.default_rng(3)
        for _ in range(20):
            A = rng.normal(scale=0.5, size=(2, 2))
            c = rng.normal(size=2)
            x0 = rng.normal(size=2)

            def vel(x):
                return A @ x + c

            def integrate(step, t_end=1.0):
                x = x0.copy()
                for _ in range(int(round(t_end / step))):
                    x = rk4_step(vel, x, step)
                return x

            # Exact endpoint via matrix exponential of the homogenized system.
            M = np.zeros((3, 3))
            M[:2, :2] = A
            M[:2, 2] = c
            from scipy.linalg import expm

            exact = (expm(M) @ np.append(x0, 1.0))[:2]
            err_h = np.linalg.norm(integrate(0.02) - exact)
            err_h2 = np.linalg.norm(integrate(0.01) - exact)
            if err_h > 1e-13:  # below that, roundoff dominates
                assert err_h / max(err_h2, 1e-16) >= 2**4 * 0.8


class TestSimulateClosedLoop:
    def test_unit_speed_straight_line(self):
        field = AffineField(np.zeros((2, 2)), np.eye(2), np.zeros(2))
        cell = Polytope.box([0.0, 0.0], [1.0, 1.0])
        rec = simulate_closed_loop(
            field, ConstantLaw(np.array([1.0, 0.0])), cell, (0.0, 0.5)
        )
        assert rec.outcome is ExitOutcome.EXITED_FACET
        assert rec.exit_time == pytest.approx(1.0, abs=1e-6)
        assert np.allclose(rec.exit_state, [1.0, 0.5], atol=1e-6)
        assert np.allclose(cell.normals[rec.exit_facet], [1.0, 0.0])

    def test_stationary_point_times_out(self):
        field = AffineField(np.zeros((2, 2)), np.eye(2), np.zeros(2))
        cell = Polytope.box([0.0, 0.0], [1.0, 1.0])
        rec = simulate_closed_loop(
            field, ConstantLaw(np.zeros(2)), cell, (0.5, 0.5), t_max=0.25
        )
        assert rec.outcome is ExitOutcome.TIMEOUT
        assert rec.exit_time == pytest.approx(0.25)

    def test_terrain_drift_exit(self):
        env = TerrainField()
        cell = Polytope.box([0.0, 0.0], [1.0, 1.0])
        rec = simulate_closed_loop(env, ConstantLaw(np.zeros(2)), cell, (0.5, 0.5))
        assert rec.outcome is ExitOutcome.EXITED_FACET
        # Drift ~ (-4.5, -4.5): exits left or bottom after ~0.5/4.5 seconds.
        n = cell.normals[rec.exit_facet]
        assert np.allclose(n, [-1.0, 0.0]) or np.allclose(n, [0.0, -1.0])
        assert rec.exit_time == pytest.approx(0.5 / 4.5, rel=0.05)

    def test_exit_state_on_facet_with_outward_velocity(self):
        env = TerrainField()
        cell = Polytope.box([0.0, 0.0], [1.0, 1.0])
        law = ConstantLaw(np.array([0.3, -0.2]))
        rec = simulate_closed_loop(env, law, cell, (0.5, 0.5))
        n = cell.normals[rec.exit_facet]
        b = cell.offsets[rec.exit_facet]
        assert abs(float(n @ rec.exit_state) - b) <= 1e-7
        u = np.clip(law.input(rec.exit_state), -5, 5)
        assert float(n @ env.velocity(rec.exit_state, u)) > 0

    def test_input_saturation(self):
        field = AffineField(np.zeros((2, 2)), np.eye(2), np.zeros(2))
        cell = Polytope.box([0.0, 0.0], [1.0, 1.0])
        box = np.array([[-0.5, 0.5], [-0.5, 0.5]])
        rec = simulate_closed_loop(
            field, ConstantLaw(np.array([3.0, 0.0])), cell, (0.0, 0.5),
            control_box=box,
        )
        for _, _, u in rec.samples:
            assert np.all(u >= box[:, 0]) and np.all(u <= box[:, 1])
        # Saturated speed 0.5 crosses the unit cell in ~2 s.
        assert rec.exit_time == pytest.approx(2.0, abs=1e-5)

    def test_x0_outside_cell_rejected(self):
        field = AffineField(np.zeros((2, 2)), np.eye(2), np.zeros(2))
        cell = Polytope.box([0.0, 0.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            simulate_closed_loop(field, ConstantLaw(np.zeros(2)), cell, (2.0, 0.5))

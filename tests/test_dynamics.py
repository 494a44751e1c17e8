from dataclasses import dataclass

import numpy as np
import pytest

from pwa_nav.dynamics import (
    AffineField,
    ExitOutcome,
    ExitRecord,
    TerrainField,
    linearize_at,
    rk4_step,
    saturation,
    simulate_closed_loop,
)
from pwa_nav.geometry import Polytope
from pwa_nav.reach import PiecewiseInterpolationLaw


@dataclass
class ConstantLaw:
    """Fixed input u, whatever the state."""

    u: np.ndarray

    def input(self, x):
        return self.u


def bits(a):
    """Shape and bytes of a as a float array: equal only when bit-identical,
    signed zeros and NaN payloads included."""
    a = np.asarray(a, dtype=float)
    return a.shape, a.tobytes()


class TestTerrainModel:
    @staticmethod
    def numpy_scalar_drift(x):
        x = np.asarray(x, dtype=float)
        return np.array([
            -0.5 * np.sin(0.1 * x[0] - 0.2 * x[1]) - 4.5,
            -0.2 * np.sin(0.3 * x[0] - 0.1 * x[1]) - 4.5,
        ])

    @staticmethod
    def numpy_scalar_control_matrix(x):
        x = np.asarray(x, dtype=float)
        return np.array([
            [1.0 + 0.02 * x[0], 0.02 * x[1]],
            [-0.02 * x[0], 1.0 - 0.02 * x[1]],
        ])

    def test_python_float_formulas_match_numpy_scalars(self):
        # drift and control_matrix compute on Python floats and math.sin;
        # the NumPy-scalar formulas they replaced are the reference.
        env = TerrainField()
        rng = np.random.default_rng(40)
        states = list(rng.uniform(-1e3, 1e3, size=(4000, 2)))
        states += list(rng.uniform(-1.0, 1.0, size=(1000, 2)))
        states += [np.array([a, b]) for a in (0.0, -0.0, 1.0, -1e3)
                   for b in (0.0, -0.0, 1e3, -2.5)]
        for x in states:
            assert bits(env.drift(x)) == bits(self.numpy_scalar_drift(x)), x
            assert bits(env.control_matrix(x)) == bits(self.numpy_scalar_control_matrix(x)), x

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


class TestSaturation:
    def test_matches_clip(self):
        rng = np.random.default_rng(41)
        box = np.array([[-0.5, 0.5], [0.0, 2.0], [-0.0, 0.0]])
        u = rng.uniform(-3.0, 3.0, size=(200, 3))
        u[:20] = rng.choice([0.0, -0.0, 0.5, -0.5, 2.0, np.nan], size=(20, 3))
        clamp = saturation(box)
        assert bits(clamp(u)) == bits(np.clip(u, box[:, 0], box[:, 1]))
        for row in u:
            assert bits(clamp(row)) == bits(np.clip(row, box[:, 0], box[:, 1]))

    def test_no_box_is_float_array(self):
        assert bits(saturation(None)([1, -2])) == bits([1.0, -2.0])


def reference_rk4_step(velocity, x, dt):
    k1 = velocity(x)
    k2 = velocity(x + 0.5 * dt * k1)
    k3 = velocity(x + 0.5 * dt * k2)
    k4 = velocity(x + dt * k3)
    return x + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


def reference_simulate_closed_loop(field, law, cell, x0, step, t_max, control_box=None):
    """simulate_closed_loop as it was before it reused evaluations: the law
    and the field evaluated afresh for every stage, trial step and sample,
    np.clip saturation and the halfspace form of the exit test."""
    def saturate(u):
        if control_box is None:
            return np.asarray(u, dtype=float)
        box = np.asarray(control_box, dtype=float)
        return np.clip(u, box[:, 0], box[:, 1])

    def violation(x):
        return float(np.max(cell.normals @ x - cell.offsets))

    def closed_loop(x):
        return field.velocity(x, saturate(law.input(x)))

    x0 = np.asarray(x0, dtype=float)
    samples = [(0.0, x0.copy(), saturate(law.input(x0)))]
    t, x = 0.0, x0.copy()
    while t < t_max - 1e-15:
        dt = min(step, t_max - t)
        x_new = reference_rk4_step(closed_loop, x, dt)
        if violation(x_new) > 1e-9:
            lo_dt, hi_dt = 0.0, dt
            x_hi = x_new
            while hi_dt - lo_dt > 1e-10:
                mid = 0.5 * (lo_dt + hi_dt)
                x_mid = reference_rk4_step(closed_loop, x, mid)
                if violation(x_mid) > 1e-9:
                    hi_dt, x_hi = mid, x_mid
                else:
                    lo_dt = mid
            facet = int(np.argmax(cell.normals @ x_hi - cell.offsets))
            samples.append((t + hi_dt, x_hi.copy(), saturate(law.input(x_hi))))
            return ExitRecord(x_hi, t + hi_dt, facet, ExitOutcome.EXITED_FACET, samples)
        t += dt
        x = x_new
        samples.append((t, x.copy(), saturate(law.input(x))))
    return ExitRecord(x, t, None, ExitOutcome.TIMEOUT, samples)


def assert_same_record(got, want):
    assert got.outcome is want.outcome
    assert got.exit_facet == want.exit_facet
    assert bits(got.exit_time) == bits(want.exit_time)
    assert bits(got.exit_state) == bits(want.exit_state)
    assert len(got.samples) == len(want.samples)
    for part in range(3):
        assert bits([s[part] for s in got.samples]) == bits([s[part] for s in want.samples])


class TestTransitMatchesReference:
    """simulate_closed_loop evaluates the law and the field once per state
    and reuses the first RK4 stage in the exit bisection; every sample, the
    exit state, time and facet stay bit-identical to the reference."""

    @staticmethod
    def field(kind, rng):
        if kind == "terrain":
            return TerrainField()
        n, m = {"affine-m1": (2, 1), "affine-m2": (2, 2), "affine-m3": (3, 3)}[kind]
        return AffineField(rng.normal(scale=0.5, size=(n, n)), rng.normal(size=(n, m)),
                           rng.normal(scale=2.0, size=n))

    @pytest.mark.parametrize("boxed", [False, True])
    @pytest.mark.parametrize("kind", ["terrain", "affine-m1", "affine-m2", "affine-m3"])
    def test_bit_identical(self, kind, boxed):
        rng = np.random.default_rng([42, len(kind), boxed])
        outcomes, bisected = set(), 0
        for trial in range(8):
            field = self.field(kind, rng)
            n, m = field.n, field.m
            low = rng.uniform(-5.0, 5.0, size=n)
            cell = Polytope.box(low, low + rng.uniform(0.3, 1.5, size=n))
            witnesses = rng.uniform(-3.0, 3.0, size=(cell.n_vertices, m))
            box = np.tile([-1.0, 1.0], (m, 1)) if boxed else None
            x0 = rng.uniform(cell.low, cell.high)
            if trial in (2, 6):  # from the center, for too short to leave
                x0 = 0.5 * (cell.low + cell.high)
            elif trial % 2:  # start on a facet, at a vertex on trial 7
                axes = range(n) if trial == 7 else [int(rng.integers(n))]
                for d in axes:
                    x0[d] = cell.low[d] if rng.random() < 0.5 else cell.high[d]
            step = 1e-3 if trial < 4 else 3.7e-3
            t_max = 0.01 if trial in (2, 6) else 0.6
            law = PiecewiseInterpolationLaw(cell, witnesses)
            got = simulate_closed_loop(field, law, cell, x0, step=step, t_max=t_max,
                                       control_box=box)
            law = PiecewiseInterpolationLaw(cell, witnesses)
            want = reference_simulate_closed_loop(field, law, cell, x0, step, t_max, box)
            assert_same_record(got, want)
            outcomes.add(got.outcome)
            bisected += got.outcome is ExitOutcome.EXITED_FACET
        assert ExitOutcome.TIMEOUT in outcomes and bisected >= 2


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

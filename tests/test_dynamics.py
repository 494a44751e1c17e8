from dataclasses import dataclass

import numpy as np
import pytest

from pwa_nav.dynamics import (
    AffineField,
    ControlAffineField,
    ExitOutcome,
    ExitRecord,
    TerrainField,
    linearize_at,
    rk4_step,
    saturation,
    simulate_closed_loop,
)
from pwa_nav.geometry import Polytope, find_containing_simplex
from pwa_nav.reach import PiecewiseInterpolationLaw


@dataclass
class ConstantLaw:
    """Fixed input u, a float tuple, whatever the state."""

    u: tuple

    def input(self, x):
        return self.u


class ConstantDrift(ControlAffineField):
    """x' = f, a constant velocity that no input moves."""

    n = m = 2

    def __init__(self, f):
        self.f = f

    def drift(self, x):
        return np.array(self.f)

    def control_matrix(self, x):
        return np.zeros((2, 2))

    def velocity(self, x, u):
        return self.f


class ArrayForm:
    """A field's velocity as it was computed on arrays, before transits and
    bursts moved to floats: drift(x) + control_matrix(x) @ u, an array. The
    references integrate with it."""

    def __init__(self, field):
        self.field, self.n, self.m = field, field.n, field.m

    def velocity(self, x, u):
        return self.field.drift(x) + self.field.control_matrix(x) @ np.asarray(u, dtype=float)


class ArrayLaw:
    """PiecewiseInterpolationLaw.input as it was computed on arrays:
    F @ x + g on the simplex find_containing_simplex picks."""

    def __init__(self, law):
        self.law = law

    def input(self, x):
        x = np.asarray(x, dtype=float)
        F, g = self.law.laws[find_containing_simplex(self.law.cell, self.law.simplices, x)]
        return F @ x + np.asarray(g)


# Wide enough that none of this file's laws saturates against it.
BOX = np.array([[-5.0, 5.0], [-5.0, 5.0]])


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
                return tuple((A @ np.array(x) + c).tolist())

            def integrate(step, t_end=1.0):
                x = tuple(x0.tolist())
                for _ in range(int(round(t_end / step))):
                    x = rk4_step(vel, x, step, vel(x))
                return np.array(x)

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
        for row in u:
            got = clamp(row.tolist())
            assert type(got) is tuple and all(type(v) is float for v in got)
            assert bits(got) == bits(np.clip(row, box[:, 0], box[:, 1]))

    @pytest.mark.parametrize("row", [[-0.0, 0.0], [0.0, 0.0], [-0.0, -0.0], [0.0, -0.0],
                                     [-1.0, -0.0], [0.0, 1.0], [np.nan, 0.0], [-0.0, np.nan]])
    def test_signed_zeros_and_nan_match_clip(self, row):
        # Each value against each zero bound: the float comparisons must
        # pick the same zero as np.clip, whose sign the bits show.
        values = [0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0, np.inf, -np.inf, np.nan]
        box = np.array([row, [-0.0, 0.0]])
        clamp = saturation(box)
        for a in values:
            for b in values:
                want = np.clip(np.array([a, b]), box[:, 0], box[:, 1])
                assert bits(clamp((a, b))) == bits(want), (a, b)


def reference_rk4_step(velocity, x, dt):
    k1 = velocity(x)
    k2 = velocity(x + 0.5 * dt * k1)
    k3 = velocity(x + 0.5 * dt * k2)
    k4 = velocity(x + dt * k3)
    return x + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


def reference_simulate_closed_loop(field, law, cell, x0, step, t_max, control_box):
    """simulate_closed_loop as it was before it reused evaluations: the law
    and the field evaluated afresh for every stage, trial step and sample,
    np.clip saturation and the halfspace form of the exit test."""
    def saturate(u):
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

    @pytest.mark.parametrize("saturating", [False, True])
    @pytest.mark.parametrize("kind", ["terrain", "affine-m1", "affine-m2", "affine-m3"])
    def test_bit_identical(self, kind, saturating):
        rng = np.random.default_rng([42, len(kind), saturating])
        outcomes, bisected = set(), 0
        for trial in range(8):
            field = self.field(kind, rng)
            n, m = field.n, field.m
            low = rng.uniform(-5.0, 5.0, size=n)
            cell = Polytope.box(low, low + rng.uniform(0.3, 1.5, size=n))
            witnesses = rng.uniform(-3.0, 3.0, size=(cell.n_vertices, m))
            # The witnesses lie in [-3, 3], so a [-5, 5] box never clamps.
            box = np.tile([-1.0, 1.0] if saturating else [-5.0, 5.0], (m, 1))
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
            want = reference_simulate_closed_loop(ArrayForm(field), ArrayLaw(law), cell, x0,
                                                  step, t_max, box)
            assert_same_record(got, want)
            outcomes.add(got.outcome)
            bisected += got.outcome is ExitOutcome.EXITED_FACET
        assert ExitOutcome.TIMEOUT in outcomes and bisected >= 2

    @pytest.mark.parametrize("kind", ["terrain", "affine-m2", "affine-m3"])
    def test_law_on_diagonal_facets_and_vertices(self, kind):
        # Where simplices meet, the float law must pick the simplex and add
        # g exactly as the array form does.
        rng = np.random.default_rng([43, len(kind)])
        for _ in range(10):
            field = self.field(kind, rng)
            low = rng.uniform(-5.0, 5.0, size=field.n)
            cell = Polytope.box(low, low + rng.uniform(0.3, 1.5, size=field.n))
            law = PiecewiseInterpolationLaw(
                cell, rng.uniform(-3.0, 3.0, size=(cell.n_vertices, field.m)))
            width = cell.high - cell.low
            points = [cell.low + t * width for t in np.linspace(0.0, 1.0, 9)]
            points += list(cell.vertices)
            for d in range(field.n):
                for side in (cell.low, cell.high):
                    x = rng.uniform(cell.low, cell.high)
                    x[d] = side[d]
                    points.append(x)
            for x in points:
                assert bits(law.input(tuple(x.tolist()))) == bits(ArrayLaw(law).input(x)), x

    @pytest.mark.parametrize("kind", ["terrain", "affine-m2", "affine-m3"])
    def test_transit_from_the_diagonal(self, kind):
        rng = np.random.default_rng([44, len(kind)])
        for _ in range(4):
            field = self.field(kind, rng)
            n, m = field.n, field.m
            low = rng.uniform(-5.0, 5.0, size=n)
            cell = Polytope.box(low, low + rng.uniform(0.3, 1.5, size=n))
            law = PiecewiseInterpolationLaw(cell, rng.uniform(-3.0, 3.0, size=(cell.n_vertices, m)))
            x0 = cell.low + rng.uniform(0.1, 0.9) * (cell.high - cell.low)
            box = np.tile([-5.0, 5.0], (m, 1))
            got = simulate_closed_loop(field, law, cell, x0, t_max=0.6, control_box=box)
            want = reference_simulate_closed_loop(ArrayForm(field), ArrayLaw(law), cell, x0,
                                                  1e-3, 0.6, box)
            assert_same_record(got, want)


class TestNonFiniteTransit:
    """The exit test and the integration on floats keep the array form's
    answers where floats stop being finite."""

    CELL = Polytope.box([0.0, 0.0], [1.0, 1.0])

    @pytest.mark.parametrize("x", [(np.nan, 5.0), (5.0, np.nan), (np.nan, -5.0),
                                   (-5.0, np.nan), (np.nan, 0.5), (np.nan, np.nan)])
    def test_nan_state_has_nan_violation(self, x):
        # Python's max() of [nan, 4.0] is nan but of [4.0, nan] is 4.0; the
        # violation must be NaN, as np.max makes it, whatever the order.
        want = float(np.max(self.CELL.normals @ np.array(x) - self.CELL.offsets))
        assert np.isnan(want) and np.isnan(self.CELL.violation(x))
        assert not self.CELL.violation(x) > 1e-9
        assert not self.CELL.contains(x)

    def test_nan_state_is_not_exited(self):
        # x2 reaches the high facet at t = 0.5, but x1 is NaN from the first
        # step on, so the state never counts as outside: the transit runs to
        # t_max, as the array form's np.max made it.
        field = ConstantDrift((np.nan, 1.0))
        law = ConstantLaw((0.0, 0.0))
        got = simulate_closed_loop(field, law, self.CELL, (0.5, 0.5), t_max=0.7,
                                   control_box=BOX)
        assert got.outcome is ExitOutcome.TIMEOUT
        assert np.isnan(got.exit_state[0]) and got.exit_state[1] > 1.0
        with np.errstate(invalid="ignore"):
            want = reference_simulate_closed_loop(ArrayForm(field), law, self.CELL, (0.5, 0.5),
                                                  1e-3, 0.7, BOX)
        assert_same_record(got, want)

    def test_overflow_runs_to_t_max_without_warning(self):
        # The second stage overflows to inf and the third to NaN (1e200 * inf
        # + 0 * inf). Floats overflow silently and the products run under
        # np.errstate, so no RuntimeWarning (an error in this suite) is
        # raised; the NaN state is never outside the cell, so the transit
        # times out at t_max with the reference's record.
        field = AffineField(1e200 * np.eye(2), np.eye(2), np.zeros(2))
        law = ConstantLaw((0.0, 0.0))
        got = simulate_closed_loop(field, law, self.CELL, (0.5, 0.5), t_max=0.005,
                                   control_box=BOX)
        assert got.outcome is ExitOutcome.TIMEOUT and got.exit_facet is None
        assert got.exit_time == pytest.approx(0.005) and len(got.samples) == 6
        assert np.all(np.isnan(got.exit_state))
        with np.errstate(over="ignore", invalid="ignore"):
            want = reference_simulate_closed_loop(ArrayForm(field), law, self.CELL, (0.5, 0.5),
                                                  1e-3, 0.005, BOX)
        assert_same_record(got, want)


class TestSimulateClosedLoop:
    def test_unit_speed_straight_line(self):
        field = AffineField(np.zeros((2, 2)), np.eye(2), np.zeros(2))
        cell = Polytope.box([0.0, 0.0], [1.0, 1.0])
        rec = simulate_closed_loop(
            field, ConstantLaw((1.0, 0.0)), cell, (0.0, 0.5), control_box=BOX
        )
        assert rec.outcome is ExitOutcome.EXITED_FACET
        assert rec.exit_time == pytest.approx(1.0, abs=1e-6)
        assert np.allclose(rec.exit_state, [1.0, 0.5], atol=1e-6)
        assert np.allclose(cell.normals[rec.exit_facet], [1.0, 0.0])

    def test_stationary_point_times_out(self):
        field = AffineField(np.zeros((2, 2)), np.eye(2), np.zeros(2))
        cell = Polytope.box([0.0, 0.0], [1.0, 1.0])
        rec = simulate_closed_loop(
            field, ConstantLaw((0.0, 0.0)), cell, (0.5, 0.5), t_max=0.25, control_box=BOX
        )
        assert rec.outcome is ExitOutcome.TIMEOUT
        assert rec.exit_time == pytest.approx(0.25)

    def test_terrain_drift_exit(self):
        env = TerrainField()
        cell = Polytope.box([0.0, 0.0], [1.0, 1.0])
        rec = simulate_closed_loop(env, ConstantLaw((0.0, 0.0)), cell, (0.5, 0.5),
                                   control_box=BOX)
        assert rec.outcome is ExitOutcome.EXITED_FACET
        # Drift ~ (-4.5, -4.5): exits left or bottom after ~0.5/4.5 seconds.
        n = cell.normals[rec.exit_facet]
        assert np.allclose(n, [-1.0, 0.0]) or np.allclose(n, [0.0, -1.0])
        assert rec.exit_time == pytest.approx(0.5 / 4.5, rel=0.05)

    def test_exit_state_on_facet_with_outward_velocity(self):
        env = TerrainField()
        cell = Polytope.box([0.0, 0.0], [1.0, 1.0])
        law = ConstantLaw((0.3, -0.2))
        rec = simulate_closed_loop(env, law, cell, (0.5, 0.5), control_box=BOX)
        n = cell.normals[rec.exit_facet]
        b = cell.offsets[rec.exit_facet]
        assert abs(float(n @ rec.exit_state) - b) <= 1e-7
        u = np.clip(law.input(rec.exit_state), BOX[:, 0], BOX[:, 1])
        assert float(n @ env.velocity(rec.exit_state, u)) > 0

    def test_input_saturation(self):
        field = AffineField(np.zeros((2, 2)), np.eye(2), np.zeros(2))
        cell = Polytope.box([0.0, 0.0], [1.0, 1.0])
        box = np.array([[-0.5, 0.5], [-0.5, 0.5]])
        rec = simulate_closed_loop(
            field, ConstantLaw((3.0, 0.0)), cell, (0.0, 0.5),
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
            simulate_closed_loop(field, ConstantLaw((0.0, 0.0)), cell, (2.0, 0.5),
                                 control_box=BOX)

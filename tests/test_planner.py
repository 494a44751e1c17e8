import numpy as np
import pytest

from pwa_nav.dynamics import AffineField, TerrainField
from pwa_nav.geometry import GridPartition
from pwa_nav.graph import WeightMode
from pwa_nav.planner import (
    MAX_TRANSIT_STEPS,
    SIM_STEP,
    MissionConfig,
    MissionConfigError,
    MissionStatus,
    run_mission,
)
from pwa_nav.scenario import Scenario
from pwa_nav.sysid import IdentificationConfig, VelocityMode

BOX = np.array([[-5.0, 5.0], [-5.0, 5.0]])


def make_scenario(field, bounds, grid, initial, target_cell, seed=11, gamma=10.0):
    partition = GridPartition(bounds, grid)
    return Scenario(
        field=field,
        partition=partition,
        control_box=BOX,
        L_df=max(field.L_df, 1e-9),
        L_g=max(field.L_g, 1e-9),
        gamma=gamma,
        sysid=IdentificationConfig(samples=20, time_step=1e-3, input_scale=0.1,
                                   velocity_mode=VelocityMode.ORACLE, seed=seed),
        initial_state=np.asarray(initial, dtype=float),
        target_cell=target_cell,
        weight_mode=WeightMode.CONSTANT,
    )


def integrator_scenario(**kw):
    field = AffineField(np.zeros((2, 2)), np.eye(2), np.zeros(2), 1e-6, 1e-6)
    return make_scenario(field, [[0, 2], [0, 2]], (2, 2),
                         initial=[0.5, 0.5], target_cell=3, **kw)


class TestMissionOutcomes:
    def test_target_equals_initial(self):
        sc = integrator_scenario()
        sc.target_cell = 0
        log = run_mission(MissionConfig(sc))
        assert log.status is MissionStatus.REACHED_TARGET
        assert log.records == []
        assert len(log.trajectory) == 1

    def test_single_integrator_reaches_target(self):
        sc = integrator_scenario()
        log = run_mission(MissionConfig(sc))
        assert log.status is MissionStatus.REACHED_TARGET
        assert sc.partition.locate(log.trajectory[-1][1]) == 3

    def test_no_actuation_gets_stuck(self):
        field = AffineField(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros(2))
        sc = make_scenario(field, [[0, 2], [0, 2]], (2, 2),
                           initial=[0.5, 0.5], target_cell=3)
        log = run_mission(MissionConfig(sc))
        assert log.status is MissionStatus.STUCK
        assert log.records[-1].outcome == "no_path"

    def test_iteration_cap(self):
        # One iteration is never enough to identify and cross two cells.
        sc = integrator_scenario()
        log = run_mission(MissionConfig(sc, max_iterations=1))
        assert log.status is MissionStatus.ITERATION_CAP

    def test_terrain_mini_mission(self):
        sc = make_scenario(TerrainField(), [[-2, 2], [-2, 2]], (4, 4),
                           initial=[1.5, 1.5], target_cell=0, gamma=100.0)
        log = run_mission(MissionConfig(sc))
        assert log.status is MissionStatus.REACHED_TARGET
        final = log.trajectory[-1][1]
        assert sc.partition.locate(final) == 0


class TestSlowTransit:
    """A certified exit flow may be as small as TOL_STRICT, and the transit
    time bound grows as its inverse; the transit still ends, as a timeout,
    after MAX_TRANSIT_STEPS steps."""

    # B u = -0.0159 at the fixed input u = 0.72, found by fuzzing, and a
    # flow of 1.5 TOL_STRICT.
    @pytest.mark.parametrize("b", [-0.0221, -1.5e-7 / 0.72])
    def test_transit_is_capped(self, b):
        field = AffineField([[0.0]], [[b]], [0.0], 1e-6, 1e-6)
        sc = make_scenario(field, [[0.0, 2.0]], (2,), initial=[1.5], target_cell=0)
        sc.control_box = np.array([[0.72, 0.72]])
        log = run_mission(MissionConfig(sc, max_iterations=1))
        (record,) = log.records
        assert record.identified and record.outcome == "timeout"
        assert record.transit_time == pytest.approx(MAX_TRANSIT_STEPS * SIM_STEP)
        # The start, the identification burst and the transit's steps, with
        # one more step of at most rounding length to reach t_max.
        assert len(log.trajectory) <= 1 + sc.sysid.samples + MAX_TRANSIT_STEPS + 1


@pytest.fixture(scope="module")
def log():
    sc = make_scenario(TerrainField(), [[-2, 2], [-2, 2]], (4, 4),
                       initial=[1.5, 1.5], target_cell=0, gamma=100.0)
    return run_mission(MissionConfig(sc))


class TestMissionLogInvariants:
    def test_trajectory_time_strictly_increasing(self, log):
        times = [t for t, *_ in log.trajectory]
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_reached_target_final_sample_in_target(self, log):
        assert log.status is MissionStatus.REACHED_TARGET

    def test_no_cell_identified_twice(self, log):
        identified = [r.cell for r in log.records if r.identified]
        assert len(identified) == len(set(identified))

    def test_explored_matches_models(self, log):
        assert set(log.explored) == set(log.models)

    def test_transits_use_in_box_witnesses(self, log):
        for (src, dst), edge in log.graph.edges.items():
            if edge.witnesses is not None:
                for u in edge.witnesses:
                    assert np.all(u >= BOX[:, 0] - 1e-9)
                    assert np.all(u <= BOX[:, 1] + 1e-9)


class TestDeterminism:
    def test_identical_configs_identical_logs(self):
        sc1 = integrator_scenario(seed=99)
        sc2 = integrator_scenario(seed=99)
        log1 = run_mission(MissionConfig(sc1))
        log2 = run_mission(MissionConfig(sc2))
        assert log1.status is log2.status
        assert len(log1.trajectory) == len(log2.trajectory)
        for (t1, x1, u1, c1), (t2, x2, u2, c2) in zip(log1.trajectory, log2.trajectory):
            assert t1 == t2 and c1 == c2
            assert np.array_equal(x1, x2) and np.array_equal(u1, u2)

    def test_seed_changes_the_run(self):
        log1 = run_mission(MissionConfig(integrator_scenario(seed=1)))
        log2 = run_mission(MissionConfig(integrator_scenario(seed=2)))
        x1 = np.array([x for _, x, _, _ in log1.trajectory[:10]])
        x2 = np.array([x for _, x, _, _ in log2.trajectory[:10]])
        assert not np.array_equal(x1, x2)


class TestConfigValidation:
    def test_nonpositive_caps_rejected(self):
        sc = integrator_scenario()
        with pytest.raises(MissionConfigError):
            MissionConfig(sc, max_iterations=0)

    def test_initial_state_outside_domain_rejected(self):
        sc = integrator_scenario()
        sc.initial_state = np.array([99.0, 0.5])
        with pytest.raises(MissionConfigError):
            run_mission(MissionConfig(sc))

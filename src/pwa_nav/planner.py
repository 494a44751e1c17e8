"""Mission loop: identify the current cell, update the reachability graph,
search, synthesize a transit controller, execute, repeat.

Unintended cell entries are accepted (the state is re-located and the loop
continues); a transit that times out or exits the wrong facet
STUCK_RETRY_LIMIT times gets its edge overridden to Absent as an empirical,
uncertified exclusion. A transit times out after TRANSIT_TIMEOUT_FACTOR
times its closed-form transit-time bound, and after MAX_TRANSIT_STEPS
integration steps at the latest: the bound grows without limit as the
certified exit flow falls to TOL_STRICT. A transit whose exit state is not
finite (its state overflowed) ends the mission STUCK: no transit can start
from it.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .dynamics import ExitOutcome, simulate_closed_loop
from .geometry import OutOfDomainError
from .graph import build_reach_graph, override_absent, shortest_path, update_graph
# Unused here; the benchmark tracer (perfbench/tracer.py) wraps this binding.
from .reach import decide_exit_facet  # noqa: F401
from .reach import PiecewiseInterpolationLaw, t0_upper_bound
from .sysid import identify

log = logging.getLogger(__name__)

SIM_STEP = 1e-3
STUCK_RETRY_LIMIT = 3
TRANSIT_TIMEOUT_FACTOR = 3.0
# Ten times the longest transit (977 steps) of the bundled mission and the
# benchmark's window missions.
MAX_TRANSIT_STEPS = 10_000


class MissionStatus(Enum):
    REACHED_TARGET = "reached_target"
    STUCK = "stuck"
    ITERATION_CAP = "iteration_cap"


@dataclass
class IterationRecord:
    iteration: int
    cell: int
    identified: bool
    path: list[int] | None
    target_edge: tuple[int, int] | None
    outcome: str
    exit_facet: int | None
    intended_facet: int | None
    transit_time: float
    residual_rms: float | None = None


@dataclass
class MissionLog:
    status: MissionStatus
    records: list[IterationRecord]
    trajectory: list  # (t, x, u, cell_id), x and u float tuples
    graph: "object"
    models: dict  # cell id -> identified model, in the order of exploration
    target_cell: int
    initial_cell: int


def _append(records: list[IterationRecord], record: IterationRecord) -> None:
    """Append a record and log it as one key=value line at DEBUG level."""
    records.append(record)
    edge = "%d->%d" % record.target_edge if record.target_edge else None
    log.debug("iteration=%d cell=%d identified=%s edge=%s outcome=%s exit_facet=%s "
              "intended_facet=%s transit_time=%s residual=%s", record.iteration, record.cell,
              record.identified, edge, record.outcome, record.exit_facet,
              record.intended_facet, float(record.transit_time), record.residual_rms)


def _cell_seed(base_seed: int, cell: int, visit: int) -> int:
    ss = np.random.SeedSequence(entropy=int(base_seed) & (2**64 - 1),
                                spawn_key=(cell, visit))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def run_mission(scenario, max_iterations: int = 400, seed: int | None = None) -> MissionLog:
    """Run the mission of a scenario, as parse_scenario accepts it, for at
    most max_iterations (at least 1) iterations; seed, if given, replaces
    the scenario's sysid seed. IdentificationError if a cell's samples
    cannot be fitted."""
    partition = scenario.partition
    env = scenario.field
    box = scenario.control_box

    x = np.asarray(scenario.initial_state, dtype=float)
    current = initial_cell = partition.locate(x)
    target = scenario.target_cell

    base_seed = seed if seed is not None else scenario.sysid.seed
    graph = build_reach_graph(partition, scenario.gamma, scenario.weight_mode)
    models: dict = {}
    fail_counts: dict[tuple[int, int], int] = {}
    records: list[IterationRecord] = []
    trajectory = [(0.0, tuple(x.tolist()), (0.0,) * env.m, current)]
    t = 0.0
    status = MissionStatus.ITERATION_CAP

    for iteration in range(1, max_iterations + 1):
        if current == target:
            break
        identified_now = False
        residual = None
        if current not in models:
            id_cfg = replace(scenario.sysid, seed=_cell_seed(base_seed, current, len(models)))
            history: list = []
            model, x, residual = identify(env, x, id_cfg, control_box=box, history=history)
            models[current] = model
            identified_now = True
            for xs, us in history:
                t += id_cfg.time_step
                trajectory.append((t, xs, us, current))
            # The numerical environment has no wall at the domain boundary;
            # project excursions back onto the state-space box.
            x = np.clip(x, partition.bounds[:, 0], partition.bounds[:, 1])
            new_cell = partition.locate(x)
            if new_cell != current:
                _append(records, IterationRecord(
                    iteration, current, True, None, None, "drifted_during_identification",
                    None, None, 0.0, residual))
                current = new_cell
                continue

        update_graph(graph, partition, models, scenario.L_df, scenario.L_g, box)
        path = shortest_path(graph, current, target)
        if path is None:
            _append(records, IterationRecord(
                iteration, current, identified_now, None, None, "no_path",
                None, None, 0.0, residual))
            status = MissionStatus.STUCK
            break

        nxt = path[1]
        facet = partition.common_facet(current, nxt)
        # The current cell is identified, so update_graph made its out-edges
        # definitive, and shortest_path takes no Absent edge: this one Exists.
        edge = graph.edges[(current, nxt)]
        cell = partition.cell(current)
        law = PiecewiseInterpolationLaw(cell, edge.witnesses)
        bound = t0_upper_bound(cell, facet, models[current], edge.witnesses, x0=x)
        t_max = min(TRANSIT_TIMEOUT_FACTOR * max(bound, SIM_STEP), MAX_TRANSIT_STEPS * SIM_STEP)
        rec = simulate_closed_loop(env, law, cell, x, step=SIM_STEP,
                                   t_max=t_max, control_box=box)
        for ts, xs, us in rec.samples[1:]:
            trajectory.append((t + ts, xs, us, current))
        t += rec.exit_time
        x = rec.exit_state
        if not np.all(np.isfinite(x)):
            _append(records, IterationRecord(
                iteration, current, identified_now, path, (current, nxt), "non_finite_state",
                rec.exit_facet, facet, rec.exit_time, residual))
            status = MissionStatus.STUCK
            break

        if rec.outcome is ExitOutcome.TIMEOUT:
            outcome = "timeout"
            new_cell = current
        else:
            # Nudge across the facet so locate() picks the neighbor.
            probe = x + 1e-9 * cell.normals[rec.exit_facet]
            try:
                new_cell = partition.locate(probe)
            except OutOfDomainError:
                # The exit state lies beyond the domain by more than
                # FACET_TOL; project it back, as after identification.
                x = np.clip(x, partition.bounds[:, 0], partition.bounds[:, 1])
                new_cell = partition.locate(x)
                outcome = "left_domain"
            else:
                outcome = "exited"

        wrong = rec.outcome is ExitOutcome.TIMEOUT or new_cell != nxt
        if wrong:
            key = (current, facet)
            fail_counts[key] = fail_counts.get(key, 0) + 1
            if fail_counts[key] >= STUCK_RETRY_LIMIT:
                override_absent(graph, current, nxt)
                outcome += "_overridden"

        _append(records, IterationRecord(
            iteration, current, identified_now, path, (current, nxt), outcome,
            rec.exit_facet, facet, rec.exit_time, residual))
        current = new_cell

    if current == target:
        status = MissionStatus.REACHED_TARGET
    return MissionLog(status, records, trajectory, graph, models, target, initial_cell)

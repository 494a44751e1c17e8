"""End-to-end acceptance suite: one test per shipped guarantee, each printing
a single PASS/FAIL line with its measured figures."""

import filecmp
import itertools
import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from pwa_nav.cli import main
from pwa_nav.dynamics import AffineField, AffineModel, linearize_at, terrain_model
from pwa_nav.feasibility import TOL_STRICT, LinearConstraintSystem, decide_feasibility
from pwa_nav.geometry import Polytope, build_grid_partition
from pwa_nav.graph import EdgeRecord, ReachGraph, ReachStatus, shortest_path
from pwa_nav.reach import (
    ModelDeviationBounds,
    PiecewiseInterpolationLaw,
    decide_exit_facet,
    deviation_bounds,
    predict_exit_facet,
    t0_upper_bound,
)
from pwa_nav.dynamics import simulate_closed_loop
from pwa_nav.sysid import IdentificationConfig, VelocityMode, identify

BOX = np.array([[-5.0, 5.0], [-5.0, 5.0]])
UNIT_SQUARE = Polytope.box([0.0, 0.0], [1.0, 1.0])
SCENARIO = str(Path(__file__).parents[1] / "scenarios" / "terrain.json")


def report(name, ok, detail):
    marker = "PASS" if ok else "FAIL"
    # Bypass pytest's capture so the verdict line shows without -s.
    print(f"ACCEPTANCE {name}: {marker} ({detail})", file=sys.__stdout__)
    assert ok, f"{name}: {detail}"


def random_model(rng, scale=1.0):
    return AffineModel(
        rng.normal(scale=scale, size=(2, 2)),
        rng.normal(scale=scale, size=(2, 2)),
        rng.normal(scale=scale, size=2),
        np.zeros(2),
    )


def test_01_sysid_exactness():
    # 50 exactly affine environments, OracleVelocity, N = 100:
    # max entry error <= 1e-8, total runtime < 1 s.
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    worst = 0.0
    for trial in range(50):
        env = AffineField(
            rng.normal(scale=0.5, size=(2, 2)),
            rng.normal(scale=0.5, size=(2, 2)) + np.eye(2),
            rng.normal(size=2),
        )
        cfg = IdentificationConfig(samples=100, velocity_mode=VelocityMode.ORACLE,
                                   seed=trial)
        model, _, _ = identify(env, rng.normal(size=2), cfg, control_box=BOX)
        err = max(np.abs(model.A - env.A).max(), np.abs(model.B - env.B).max(),
                  np.abs(model.c - env.c).max())
        worst = max(worst, err)
    elapsed = time.perf_counter() - start
    report("1 sysid-exactness",
           worst <= 1e-8 and elapsed < 1.0,
           f"max entry error {worst:.2e} (tol 1e-8), {elapsed:.2f}s < 1s")


def test_02_deviation_bound_validity():
    # 200 random terrain center pairs in [-10,10]^2: linearization differences
    # within (eps_A, eps_B, eps_c) with <= 1e-9 slack; 0 failures; < 1 s.
    env = terrain_model()
    rng = np.random.default_rng(1002)
    start = time.perf_counter()
    failures = 0
    for _ in range(200):
        x1 = rng.uniform(-10, 10, size=2)
        x2 = rng.uniform(-10, 10, size=2)
        m1 = linearize_at(env, x1)
        m2 = linearize_at(env, x2)
        b = deviation_bounds(m1, x1, x2, env.L_df, env.L_g)
        ok = (
            np.linalg.norm(m2.A - m1.A, ord=2) <= b.eps_A + 1e-9
            and np.linalg.norm(m2.B - m1.B, ord=2) <= b.eps_B + 1e-9
            and np.linalg.norm(m2.c - m1.c) <= b.eps_c + 1e-9
        )
        failures += not ok
    elapsed = time.perf_counter() - start
    report("2 deviation-bound-validity",
           failures == 0 and elapsed < 1.0,
           f"{failures}/200 violations (tol 1e-9 slack), {elapsed:.2f}s < 1s")


def test_03_prediction_soundness():
    # 500 randomized trials: predict=Exists must imply definitive Exists on
    # any perturbation within the bounds; predict=Absent likewise; < 30 s.
    rng = np.random.default_rng(1003)
    start = time.perf_counter()
    violations = 0
    decided = 0
    for _ in range(500):
        model = random_model(rng)
        eps = rng.uniform(0.01, 0.5, size=3)
        bounds = ModelDeviationBounds(*eps)
        dA = rng.normal(size=(2, 2))
        dA *= rng.uniform(0, eps[0]) / max(np.linalg.norm(dA, ord=2), 1e-12)
        dB = rng.normal(size=(2, 2))
        dB *= rng.uniform(0, eps[1]) / max(np.linalg.norm(dB, ord=2), 1e-12)
        dc = rng.normal(size=2)
        dc *= rng.uniform(0, eps[2]) / max(np.linalg.norm(dc), 1e-12)
        perturbed = AffineModel(model.A + dA, model.B + dB, model.c + dc,
                                model.center)
        facet = int(rng.integers(0, 4))
        pred = predict_exit_facet(UNIT_SQUARE, facet, model, bounds, BOX).status
        if pred is ReachStatus.UNCERTAIN:
            continue
        decided += 1
        true = decide_exit_facet(UNIT_SQUARE, facet, perturbed, BOX).status
        violations += pred is not true
    elapsed = time.perf_counter() - start
    report("3 prediction-soundness",
           violations == 0 and elapsed < 30.0,
           f"{violations}/500 violations ({decided} decided predictions), "
           f"{elapsed:.1f}s < 30s")


def test_04_zero_bound_collapse():
    # 200 random models x 4 facets: zero-bound prediction equals the
    # definitive decision with no Uncertain outputs; < 5 s.
    rng = np.random.default_rng(1004)
    zero = ModelDeviationBounds(0.0, 0.0, 0.0)
    start = time.perf_counter()
    mismatches = 0
    uncertain = 0
    for _ in range(200):
        model = random_model(rng)
        for facet in range(4):
            pred = predict_exit_facet(UNIT_SQUARE, facet, model, zero, BOX).status
            dec = decide_exit_facet(UNIT_SQUARE, facet, model, BOX).status
            uncertain += pred is ReachStatus.UNCERTAIN
            mismatches += pred is not dec
    elapsed = time.perf_counter() - start
    report("4 zero-bound-collapse",
           mismatches == 0 and uncertain == 0 and elapsed < 5.0,
           f"{mismatches}/800 mismatches, {uncertain} Uncertain, "
           f"{elapsed:.1f}s < 5s")


def test_05_feasibility_brute_force():
    # 200 random systems (m = 2, <= 12 rows): verdict matches grid sampling
    # at step 1e-3 (grid-feasible => solver-feasible; solver-infeasible => no
    # grid point clears 2*tol_strict); < 30 s.
    rng = np.random.default_rng(1005)
    box = np.array([[-0.5, 0.5], [-0.5, 0.5]])
    grid = np.arange(-0.5, 0.5 + 5e-4, 1e-3)
    U1, U2 = np.meshgrid(grid, grid, indexing="ij")
    start = time.perf_counter()
    disagreements = 0
    for _ in range(200):
        A, b, strict = [], [], []
        for _ in range(int(rng.integers(1, 13))):
            A.append(rng.uniform(-1, 1, size=2))
            b.append(rng.uniform(-0.8, 0.8))
            strict.append(rng.random() < 0.5)
        sys = LinearConstraintSystem(A, b, strict, box)
        res = decide_feasibility(sys)
        rows = list(zip(sys.A, sys.b, sys.strict))

        def grid_hit(slack):
            ok = np.ones_like(U1, dtype=bool)
            for a, rhs, is_strict in rows:
                val = a[0] * U1 + a[1] * U2
                if is_strict:
                    ok &= val > rhs + slack
                else:
                    ok &= val <= rhs
            return bool(ok.any())

        if res.feasible:
            u = res.witness
            sat = all(
                (u @ a - rhs > TOL_STRICT - 1e-9) if is_strict
                else (u @ a <= rhs + 1e-9)
                for a, rhs, is_strict in rows
            )
            disagreements += not sat
        else:
            disagreements += grid_hit(TOL_STRICT)
    elapsed = time.perf_counter() - start
    report("5 feasibility-brute-force",
           disagreements == 0 and elapsed < 30.0,
           f"{disagreements}/200 disagreements (grid step 1e-3), "
           f"{elapsed:.1f}s < 30s")


def test_06_controller_transit_guarantee():
    # 100 definitive-reachable cases: closed-loop simulation under the
    # identified affine dynamics exits the intended facet with positive
    # normal velocity within T0 + 1e-3; < 30 s.
    rng = np.random.default_rng(1006)
    start = time.perf_counter()
    failures = 0
    cases = 0
    while cases < 100:
        model = random_model(rng)
        facet = int(rng.integers(0, 4))
        dec = decide_exit_facet(UNIT_SQUARE, facet, model, BOX)
        if dec.status is not ReachStatus.EXISTS:
            continue
        x0 = rng.uniform(0.0, 1.0, size=2)
        bound = t0_upper_bound(UNIT_SQUARE, facet, model, dec.witnesses, x0=x0)
        if bound > 50.0:  # keep the simulation budget bounded
            continue
        cases += 1
        law = PiecewiseInterpolationLaw(UNIT_SQUARE, dec.witnesses)
        field = AffineField.from_model(model)
        rec = simulate_closed_loop(field, law, UNIT_SQUARE, x0,
                                   t_max=bound + 1e-2, control_box=BOX)
        n = UNIT_SQUARE.normals[facet] if rec.exit_facet is None \
            else UNIT_SQUARE.normals[rec.exit_facet]
        u_exit = np.clip(law.input(rec.exit_state), BOX[:, 0], BOX[:, 1])
        outward = float(n @ field.velocity(rec.exit_state, u_exit))
        ok = (rec.exit_facet == facet
              and rec.exit_time <= bound + 1e-3
              and outward > 0.0)
        failures += not ok
    elapsed = time.perf_counter() - start
    report("6 controller-transit-guarantee",
           failures == 0 and elapsed < 30.0,
           f"{failures}/100 failures (deadline T0 + 1e-3), {elapsed:.1f}s < 30s")


def test_07_dijkstra_oracle():
    # 200 random tri-state graphs with <= 8 nodes: path cost equals the
    # exhaustive-enumeration minimum; < 5 s.
    rng = np.random.default_rng(1007)
    statuses = [ReachStatus.EXISTS, ReachStatus.UNCERTAIN, ReachStatus.ABSENT]
    start = time.perf_counter()
    disagreements = 0
    for _ in range(200):
        n = int(rng.integers(2, 9))
        edges = {}
        for s, d in itertools.permutations(range(n), 2):
            if rng.random() < 0.4:
                edges[(s, d)] = EdgeRecord(statuses[rng.integers(0, 3)],
                                           float(rng.uniform(0.1, 5.0)))
        graph = ReachGraph(list(range(n)), edges, gamma=1.0)

        adj = {}
        for (s, d), e in edges.items():
            if e.status is not ReachStatus.ABSENT:
                adj.setdefault(s, []).append((d, e.weight))
        best = [np.inf]

        def walk(node, seen, cost):
            if cost >= best[0]:
                return
            if node == n - 1:
                best[0] = cost
                return
            for nxt, w in adj.get(node, []):
                if nxt not in seen:
                    walk(nxt, seen | {nxt}, cost + w)

        walk(0, {0}, 0.0)
        path = shortest_path(graph, 0, n - 1)
        if path is None:
            disagreements += np.isfinite(best[0])
        else:
            cost = sum(edges[(a, b)].weight for a, b in zip(path, path[1:]))
            disagreements += abs(cost - best[0]) > 1e-9
    elapsed = time.perf_counter() - start
    report("7 dijkstra-oracle",
           disagreements == 0 and elapsed < 5.0,
           f"{disagreements}/200 disagreements, {elapsed:.1f}s < 5s")


@pytest.fixture(scope="module")
def terrain_runs(tmp_path_factory):
    """Two identical CLI runs of the bundled terrain scenario."""
    out1 = tmp_path_factory.mktemp("run1")
    out2 = tmp_path_factory.mktemp("run2")
    start = time.perf_counter()
    rc1 = main(["plan", "--scenario", SCENARIO, "--out", str(out1)])
    elapsed = time.perf_counter() - start
    rc2 = main(["plan", "--scenario", SCENARIO, "--out", str(out2)])
    return rc1, rc2, out1, out2, elapsed


def test_08_end_to_end_terrain_mission(terrain_runs):
    # Bundled terrain scenario (20x20 grid over [-10,10]^2, P_u = [-5,5]^2,
    # L_df = L_g = 0.03, gamma = 100, N = 100, fixed seed): exit 0 within
    # 400 iterations and < 120 s; final graph holds all three edge statuses;
    # trajectory runs from the initial cell to the target cell.
    rc1, _, out1, _, elapsed = terrain_runs
    mission = json.load(open(out1 / "mission.json"))
    graph = json.load(open(out1 / "graph_final.json"))
    statuses = {e["status"] for e in graph["edges"]}
    rows = (out1 / "trajectory.csv").read_text().strip().split("\n")[1:]
    first_cell = int(rows[0].rsplit(",", 1)[1])
    final_state = [float(v) for v in rows[-1].split(",")[1:3]]
    # The final sample lies on the entry facet of the target cell, so test
    # membership in the closed cell rather than the tie-breaking cell lookup.
    scenario = json.load(open(SCENARIO))
    partition = build_grid_partition(scenario["state_bounds"], scenario["grid"])
    in_target = partition.cell(mission["target_cell"]).contains(final_state, tol=1e-9)
    ok = (
        rc1 == 0
        and mission["status"] == "reached_target"
        and mission["iterations"] <= 400
        and elapsed < 120.0
        and statuses == {"exists", "absent", "uncertain"}
        and first_cell == mission["initial_cell"]
        and in_target
    )
    report("8 end-to-end-terrain-mission", ok,
           f"exit {rc1}, {mission['iterations']} iterations, {elapsed:.0f}s "
           f"< 120s, statuses {sorted(statuses)}, start cell {first_cell}, "
           f"final state in target cell {mission['target_cell']}: {in_target}")


def test_09_determinism(terrain_runs):
    # A second run with the same seed must produce byte-identical
    # trajectory.csv and graph_final.json.
    rc1, rc2, out1, out2, _ = terrain_runs
    same_traj = filecmp.cmp(out1 / "trajectory.csv", out2 / "trajectory.csv",
                            shallow=False)
    same_graph = filecmp.cmp(out1 / "graph_final.json", out2 / "graph_final.json",
                             shallow=False)
    report("9 determinism",
           rc1 == rc2 == 0 and same_traj and same_graph,
           f"trajectory byte-identical: {same_traj}, "
           f"graph byte-identical: {same_graph}")

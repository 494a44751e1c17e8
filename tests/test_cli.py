import copy
import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import pwa_nav
from pwa_nav.cli import main
from pwa_nav.graph import ReachStatus
from pwa_nav.scenario import ScenarioError, parse_scenario

BUNDLED = Path(__file__).parents[1] / "scenarios" / "terrain.json"

INTEGRATOR_SCENARIO = {
    "dynamics": {
        "type": "affine",
        "A": [[0.0, 0.0], [0.0, 0.0]],
        "B": [[1.0, 0.0], [0.0, 1.0]],
        "c": [0.0, 0.0],
    },
    "state_bounds": [[0.0, 2.0], [0.0, 2.0]],
    "grid": [2, 2],
    "control_box": [[-5.0, 5.0], [-5.0, 5.0]],
    "lipschitz": {"L_df": 1e-6, "L_g": 1e-6},
    "gamma": 10.0,
    "sysid": {"N": 20, "T": 0.001, "input_scale": 0.1,
              "velocity_mode": "oracle", "seed": 7},
    "initial_state": [0.5, 0.5],
    "target": [1.5, 1.5],
    "weight_mode": "constant",
}


def write_scenario(tmp_path, data, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


class TestScenarioParsing:
    def test_valid_scenario(self):
        sc = parse_scenario(copy.deepcopy(INTEGRATOR_SCENARIO))
        assert sc.partition.n_cells == 4
        assert sc.target_cell == 3

    def test_target_as_cell_id(self):
        data = copy.deepcopy(INTEGRATOR_SCENARIO)
        data["target"] = 2
        assert parse_scenario(data).target_cell == 2

    def test_unknown_top_level_key_rejected(self):
        data = copy.deepcopy(INTEGRATOR_SCENARIO)
        data["extra"] = 1
        with pytest.raises(ScenarioError, match="unknown keys"):
            parse_scenario(data)

    def test_missing_key_rejected(self):
        data = copy.deepcopy(INTEGRATOR_SCENARIO)
        del data["gamma"]
        with pytest.raises(ScenarioError, match="missing keys"):
            parse_scenario(data)

    def test_out_of_domain_initial_state_names_field(self):
        data = copy.deepcopy(INTEGRATOR_SCENARIO)
        data["initial_state"] = [11.0, 0.0]
        with pytest.raises(ScenarioError, match="initial_state"):
            parse_scenario(data)

    def test_bad_velocity_mode(self):
        data = copy.deepcopy(INTEGRATOR_SCENARIO)
        data["sysid"]["velocity_mode"] = "psychic"
        with pytest.raises(ScenarioError, match="velocity_mode"):
            parse_scenario(data)

    def test_bad_weight_mode(self):
        data = copy.deepcopy(INTEGRATOR_SCENARIO)
        data["weight_mode"] = "quadratic"
        with pytest.raises(ScenarioError, match="weight_mode"):
            parse_scenario(data)

    def test_terrain_block_takes_no_parameters(self):
        data = copy.deepcopy(INTEGRATOR_SCENARIO)
        data["dynamics"] = {"type": "terrain", "bumpiness": 3}
        with pytest.raises(ScenarioError, match="terrain"):
            parse_scenario(data)

    def test_invalid_json_reports_line(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{\n "dynamics": \n}')
        rc = main(["plan", "--scenario", str(path), "--out", str(tmp_path)])
        assert rc == 1
        assert "line" in capsys.readouterr().err


@pytest.fixture(scope="module")
def plan_out(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("plan")
    scenario = write_scenario(tmp, INTEGRATOR_SCENARIO)
    out = tmp / "out"
    rc = main(["plan", "--scenario", scenario, "--out", str(out)])
    return rc, out


class TestCmdPlan:
    def test_exit_zero_and_artifacts_present(self, plan_out):
        rc, out = plan_out
        assert rc == 0
        for name in ("trajectory.csv", "graph_final.json", "mission.json",
                     "trajectory.svg", "graph.svg"):
            assert (out / name).exists()

    def test_trajectory_csv_shape(self, plan_out):
        _, out = plan_out
        lines = (out / "trajectory.csv").read_text().strip().split("\n")
        assert lines[0] == "t,x1,x2,u1,u2,cell_id"
        times = [float(line.split(",")[0]) for line in lines[1:]]
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_graph_json_round_trip(self, plan_out):
        _, out = plan_out
        path = str(out / "graph_final.json")
        data = json.load(open(path))
        assert {n["id"] for n in data["nodes"]} == {0, 1, 2, 3}
        for e in data["edges"]:
            ReachStatus(e["status"])  # raises on an unknown status
            assert isinstance(e["weight"], float)
            assert isinstance(e["definitive"], bool)

    def test_mission_json_status(self, plan_out):
        _, out = plan_out
        mission = json.load(open(out / "mission.json"))
        assert mission["status"] == "reached_target"
        assert mission["target_cell"] == 3

    def test_svgs_are_valid_xml(self, plan_out):
        _, out = plan_out
        for name in ("trajectory.svg", "graph.svg"):
            root = ET.parse(out / name).getroot()
            assert root.tag.endswith("svg")
            rects = [el for el in root.iter() if el.tag.endswith("rect")]
            assert len(rects) == 4  # one per cell
        traj = ET.parse(out / "trajectory.svg").getroot()
        paths = [el for el in traj.iter() if el.tag.endswith("path")]
        assert len(paths) == 1

    def test_target_equals_initial(self, tmp_path):
        data = copy.deepcopy(INTEGRATOR_SCENARIO)
        data["target"] = data["initial_state"]
        scenario = write_scenario(tmp_path, data)
        rc = main(["plan", "--scenario", scenario, "--out", str(tmp_path / "o")])
        assert rc == 0
        lines = (tmp_path / "o" / "trajectory.csv").read_text().strip().split("\n")
        assert len(lines) == 2  # header + initial sample

    def test_malformed_scenario_exits_one(self, tmp_path, capsys):
        data = copy.deepcopy(INTEGRATOR_SCENARIO)
        data["initial_state"] = [11.0, 0.0]
        scenario = write_scenario(tmp_path, data)
        rc = main(["plan", "--scenario", scenario, "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "initial_state" in capsys.readouterr().err

    def test_stuck_exits_two(self, tmp_path):
        data = copy.deepcopy(INTEGRATOR_SCENARIO)
        data["dynamics"]["B"] = [[0.0, 0.0], [0.0, 0.0]]
        scenario = write_scenario(tmp_path, data)
        rc = main(["plan", "--scenario", scenario, "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_iteration_cap_exits_three(self, tmp_path):
        scenario = write_scenario(tmp_path, INTEGRATOR_SCENARIO)
        rc = main(["plan", "--scenario", scenario, "--out", str(tmp_path / "o"),
                   "--max-iters", "1"])
        assert rc == 3

    def test_zero_max_iters_exits_one(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path, INTEGRATOR_SCENARIO)
        rc = main(["plan", "--scenario", scenario, "--out", str(tmp_path / "o"),
                   "--max-iters", "0"])
        assert rc == 1
        assert "--max-iters" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_samples_below_identifiability_exits_four(self, tmp_path):
        # N = 3 passes the schema but lies below the n + m + 1 = 5 samples
        # a least-squares fit needs; run as a process to see any traceback.
        data = copy.deepcopy(INTEGRATOR_SCENARIO)
        data["sysid"]["N"] = 3
        scenario = write_scenario(tmp_path, data)
        proc = run_cli("plan", "--scenario", scenario, "--out", str(tmp_path / "o"))
        assert proc.returncode == 4
        assert "identification failed" in proc.stderr
        assert "Traceback" not in proc.stderr


class TestCmdTruthGraph:
    def test_single_integrator_all_exists(self, tmp_path):
        scenario = write_scenario(tmp_path, INTEGRATOR_SCENARIO)
        rc = main(["truth-graph", "--scenario", scenario, "--out", str(tmp_path)])
        assert rc == 0
        data = json.load(open(tmp_path / "graph_truth.json"))
        assert len(data["nodes"]) == 4
        assert all(e["status"] == "exists" and e["definitive"] for e in data["edges"])
        assert (tmp_path / "truth.svg").exists()

    def test_no_actuation_all_absent(self, tmp_path):
        data = copy.deepcopy(INTEGRATOR_SCENARIO)
        data["dynamics"]["B"] = [[0.0, 0.0], [0.0, 0.0]]
        scenario = write_scenario(tmp_path, data)
        rc = main(["truth-graph", "--scenario", scenario, "--out", str(tmp_path)])
        assert rc == 0
        truth = json.load(open(tmp_path / "graph_truth.json"))
        assert all(e["status"] == "absent" for e in truth["edges"])


ONE_D_SCENARIO = {
    "dynamics": {"type": "affine", "A": [[0.0]], "B": [[1.0]], "c": [0.0]},
    "state_bounds": [[0.0, 3.0]],
    "grid": [3],
    "control_box": [[-1.0, 1.0]],
    "lipschitz": {"L_df": 1e-6, "L_g": 1e-6},
    "gamma": 10.0,
    "sysid": {"N": 10, "T": 0.001, "input_scale": 0.1,
              "velocity_mode": "oracle", "seed": 3},
    "initial_state": [0.5],
    "target": [2.5],
    "weight_mode": "constant",
}


def run_cli(*args, **environ):
    """The CLI in a fresh process, as a user runs it, with RuntimeWarnings
    as errors (as pyproject.toml makes them in-process) and the environment
    variables environ set over that."""
    env = {**os.environ, "PYTHONPATH": str(Path(pwa_nav.__file__).parents[1]),
           "PYTHONWARNINGS": "error::RuntimeWarning", **environ}
    return subprocess.run([sys.executable, "-m", "pwa_nav.cli", *args],
                          env=env, capture_output=True, text=True, timeout=120)


class TestOneDimensional:
    """A 1-D scenario runs end to end: every artifact, drawn as one row."""

    @pytest.mark.parametrize("command, artifacts", [
        ("plan", ("trajectory.csv", "graph_final.json", "mission.json",
                  "trajectory.svg", "graph.svg")),
        ("truth-graph", ("graph_truth.json", "truth.svg")),
    ])
    def test_runs_and_writes_artifacts(self, tmp_path, command, artifacts):
        scenario = write_scenario(tmp_path, ONE_D_SCENARIO)
        out = tmp_path / "o"
        proc = run_cli(command, "--scenario", scenario, "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
        for name in artifacts:
            assert (out / name).exists(), name
        svg = [name for name in artifacts if name.endswith(".svg")]
        for name in svg:
            rects = [el for el in ET.parse(out / name).getroot().iter()
                     if el.tag.endswith("rect")]
            assert len(rects) == 3
            assert len({el.get("y") for el in rects}) == 1  # one row
            assert all(float(el.get("height")) > 0 for el in rects)


class TestDebugTrace:
    """Under PWA_NAV_LOG=debug, `plan` logs one key=value line per
    mission.json record, in order, and writes the same artifacts."""

    @staticmethod
    def line(record):
        edge = record["target_edge"]
        return (f"iteration={record['iteration']} cell={record['cell']} "
                f"identified={record['identified']} "
                f"edge={f'{edge[0]}->{edge[1]}' if edge else None} "
                f"outcome={record['outcome']} exit_facet={record['exit_facet']} "
                f"intended_facet={record['intended_facet']} "
                f"transit_time={record['transit_time']} residual={record['residual_rms']}")

    def test_one_line_per_record(self, tmp_path, monkeypatch):
        monkeypatch.delenv("PWA_NAV_LOG", raising=False)
        scenario = write_scenario(tmp_path, ONE_D_SCENARIO)
        quiet = run_cli("plan", "--scenario", scenario, "--out", str(tmp_path / "quiet"))
        debug = run_cli("plan", "--scenario", scenario, "--out", str(tmp_path / "debug"),
                        PWA_NAV_LOG="debug")
        assert quiet.returncode == debug.returncode == 0, debug.stderr
        assert "iteration=" not in quiet.stderr
        records = json.loads((tmp_path / "debug" / "mission.json").read_text())["records"]
        prefix = "DEBUG pwa_nav.planner: "
        lines = [line[len(prefix):] for line in debug.stderr.splitlines()
                 if line.startswith(prefix)]
        assert len(records) >= 2
        assert lines == [self.line(record) for record in records]
        for name in ("trajectory.csv", "graph_final.json", "mission.json",
                     "trajectory.svg", "graph.svg"):
            assert ((tmp_path / "quiet" / name).read_bytes()
                    == (tmp_path / "debug" / name).read_bytes()), name


class TestMalformedNumbers:
    """A numeric field that holds no number, a ragged list or a non-finite
    value, and a block that is no JSON object, are scenario errors naming
    the field, with no traceback."""

    @pytest.mark.parametrize("path, value, field", [
        (("state_bounds", 0, 1), "two", "state_bounds"),
        (("control_box", 1, 0), "low", "control_box"),
        (("initial_state", 0), "half", "initial_state"),
        (("lipschitz", "L_df"), "small", "lipschitz.L_df"),
        (("gamma",), "ten", "gamma"),
        (("sysid", "N"), "twenty", "sysid.N"),
        (("control_box", 1), [-5.0], "control_box"),
        (("state_bounds", 1, 1), float("inf"), "state_bounds"),
        (("initial_state", 1), float("nan"), "initial_state"),
        (("control_box", 0, 1), float("inf"), "control_box"),
        (("lipschitz", "L_df"), float("inf"), "lipschitz.L_df"),
        (("gamma",), float("inf"), "gamma"),
        (("dynamics", "A"), 5.0, "dynamics.A"),
        (("dynamics", "c"), [float("inf"), 0.0], "dynamics.c"),
        (("lipschitz",), 5, "lipschitz"),
        (("grid", 0), True, "grid"),
        (("target",), True, "target"),
    ])
    def test_plan_exits_one(self, tmp_path, path, value, field):
        data = copy.deepcopy(INTEGRATOR_SCENARIO)
        parent = data
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        scenario = write_scenario(tmp_path, data)
        proc = run_cli("plan", "--scenario", scenario, "--out", str(tmp_path / "o"))
        assert proc.returncode == 1, proc.stderr
        assert f"scenario error: field '{field}'" in proc.stderr
        assert "Traceback" not in proc.stderr


class TestOverflowingScales:
    """Scales so large that the excitation or the domain's distances
    overflow end in the documented exit codes, with no traceback."""

    @staticmethod
    def run_bundled(tmp_path, changes):
        """`plan` on the bundled scenario with the value at each key path
        replaced."""
        data = json.loads(BUNDLED.read_text())
        for (*parents, key), value in changes.items():
            block = data
            for parent in parents:
                block = block[parent]
            block[key] = value
        scenario = write_scenario(tmp_path, data)
        return run_cli("plan", "--scenario", scenario, "--out", str(tmp_path / "o"),
                       "--max-iters", "2")

    @pytest.mark.parametrize("changes", [
        # The time step makes the terrain's RK4 steps overflow.
        {("sysid", "T"): 1e10},
        # Finite states whose squares overflow the regressor Gram matrix, in
        # a domain whose diagonal is short enough to square.
        {("state_bounds",): [[1e154, 1.1e154], [1e154, 1.1e154]],
         ("initial_state",): [1.01e154, 1.01e154], ("target",): [1e154, 1e154]},
    ])
    def test_identification_overflow_exits_four(self, tmp_path, changes):
        proc = self.run_bundled(tmp_path, changes)
        assert proc.returncode == 4, proc.stderr
        assert "identification failed" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_input_scale_beyond_float_range_exits_one(self, tmp_path):
        proc = self.run_bundled(tmp_path, {("sysid", "input_scale"): 1e308})
        assert proc.returncode == 1, proc.stderr
        assert "scenario error: field 'sysid.input_scale'" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("half_width", [6e153, 1e300])
    def test_state_bounds_with_overflowing_diagonal_exit_one(self, tmp_path, half_width):
        # The squared diagonal, 2 (2 half_width)^2, exceeds the largest float.
        proc = self.run_bundled(tmp_path, {("state_bounds",): [[-half_width, half_width]] * 2})
        assert proc.returncode == 1, proc.stderr
        assert "scenario error: field 'state_bounds'" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_state_bounds_with_finite_squared_diagonal_run(self, tmp_path):
        # Squared diagonal 1.77e308, just below the largest float.
        proc = self.run_bundled(tmp_path, {("state_bounds",): [[-4.7e153, 4.7e153]] * 2})
        # Reached, stuck or capped: the scenario is accepted and runs.
        assert proc.returncode in (0, 2, 3), proc.stderr
        assert "Warning" not in proc.stderr
        assert "Traceback" not in proc.stderr


class TestCmdSysidCheck:
    def test_affine_recovery_exact(self, tmp_path):
        scenario = write_scenario(tmp_path, INTEGRATOR_SCENARIO)
        rc = main(["sysid-check", "--scenario", scenario, "--out", str(tmp_path),
                   "--cell", "0"])
        assert rc == 0
        report = json.load(open(tmp_path / "sysid_report.json"))
        assert report["max_entry_error"] <= 1e-8

    def test_samples_below_identifiability_exits_four(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path, INTEGRATOR_SCENARIO)
        rc = main(["sysid-check", "--scenario", scenario, "--out", str(tmp_path),
                   "--cell", "0", "--samples", "3"])
        assert rc == 4

    def test_invalid_cell_exits_one(self, tmp_path):
        scenario = write_scenario(tmp_path, INTEGRATOR_SCENARIO)
        rc = main(["sysid-check", "--scenario", scenario, "--out", str(tmp_path),
                   "--cell", "99"])
        assert rc == 1


def test_setup_imports_no_scipy(tmp_path):
    # SciPy serves only HiGHS, for slack LPs with four or more inputs, and
    # numpy.ma, which np.unique, np.setdiff1d and np.isin import on first
    # use, costs some 15 ms: neither the program's import and scenario load
    # nor a short mission may pay for them.
    path = write_scenario(tmp_path, INTEGRATOR_SCENARIO)
    setup = f"from pwa_nav.scenario import load_scenario\nload_scenario({path!r})\n"
    plan = (f"pwa_nav.cli.main(['plan', '--scenario', {path!r},"
            f" '--out', {str(tmp_path / 'o')!r}, '--max-iters', '3'])\n")
    env = dict(os.environ, PYTHONPATH=str(Path(pwa_nav.__file__).parents[1]))
    for case in (setup, plan):
        code = ("import sys, pwa_nav.cli\n" + case
                + "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'"
                  " or m == 'numpy.ma' or m.startswith('numpy.ma.')))\n")
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"

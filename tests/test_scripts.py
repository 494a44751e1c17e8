"""The analysis scripts under scripts/ run as a user runs them, on the bundled
2-D scenario and on a 1-D integrator, and exit cleanly."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pwa_nav

ROOT = Path(__file__).resolve().parents[1]
BUNDLED = ROOT / "scenarios" / "terrain.json"

ONE_D = {
    "dynamics": {"type": "affine", "A": [[0.0]], "B": [[1.0]], "c": [0.0]},
    "state_bounds": [[0.0, 4.0]],
    "grid": [4],
    "control_box": [[-1.0, 1.0]],
    "lipschitz": {"L_df": 0.03, "L_g": 0.03},
    "gamma": 100,
    "sysid": {"N": 20, "T": 0.001, "input_scale": 0.1,
              "velocity_mode": "oracle", "seed": 1},
    "initial_state": [0.5],
    "target": [3.5],
    "weight_mode": "constant",
}

# Small settings: each script runs in well under a second per scenario.
SCRIPTS = {
    "run_terrain_mission.py": ["--max-iters", "3"],
    "sysid_sweep.py": ["--samples", "10", "--time-steps", "1e-3", "--seeds", "1"],
    "prediction_accuracy.py": ["--hops", "1"],
}


def run_script(name: str, scenario: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(Path(pwa_nav.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), "--scenario", str(scenario),
         *SCRIPTS[name]],
        env=env, capture_output=True, text=True, timeout=120)


@pytest.fixture(scope="module")
def one_d(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("scenario") / "one_d.json"
    path.write_text(json.dumps(ONE_D))
    return path


@pytest.mark.parametrize("name", sorted(SCRIPTS))
def test_bundled_scenario(name):
    proc = run_script(name, BUNDLED)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    if name == "prediction_accuracy.py":
        assert proc.stdout.strip() == (
            "hops=1: 477/1520 edges decided (462 exists, 15 absent, "
            "1043 uncertain), unsound: 0")


@pytest.mark.parametrize("name", sorted(SCRIPTS))
def test_one_dimensional_scenario(name, one_d):
    proc = run_script(name, one_d)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    if name == "run_terrain_mission.py":
        # One coordinate for a 1-D state.
        assert "final state: (1.0000)," in proc.stdout

"""Scenario fuzzing: any scenario the schema accepts runs to a documented exit
code. Affine fields with one to three states and inputs, random state and
control boxes, targets given as a cell id or as a state, both velocity and
weight modes, and identification bursts sometimes too short to fit a model
(N < n + m + 1). `plan` and `truth-graph` run in-process, so an exception or
a floating-point warning (an error under the test configuration) fails."""

import json
import math
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pwa_nav.cli import main

DOCUMENTED_EXIT_CODES = {0, 1, 2, 3, 4}

coefficient = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)
fraction = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def matrix(rows: int, cols: int):
    return st.lists(st.lists(coefficient, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


@st.composite
def scenarios(draw) -> dict:
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 3))
    lows = draw(st.lists(st.floats(-5.0, 5.0), min_size=n, max_size=n))
    widths = draw(st.lists(st.floats(0.5, 5.0), min_size=n, max_size=n))
    bounds = [[lo, lo + w] for lo, w in zip(lows, widths)]
    grid = draw(st.lists(st.integers(1, 2 if n == 3 else 4), min_size=n, max_size=n))
    control_box = [[lo, lo + w] for lo, w in draw(st.lists(
        st.tuples(st.floats(-3.0, 1.0), st.floats(0.0, 4.0)), min_size=m, max_size=m))]

    def state():
        return [lo + draw(fraction) * (hi - lo) for lo, hi in bounds]

    target = draw(st.integers(0, math.prod(grid) - 1)) if draw(st.booleans()) else state()
    return {
        "dynamics": {"type": "affine", "A": draw(matrix(n, n)), "B": draw(matrix(n, m)),
                     "c": draw(st.lists(coefficient, min_size=n, max_size=n))},
        "state_bounds": bounds,
        "grid": grid,
        "control_box": control_box,
        "lipschitz": {"L_df": draw(st.floats(1e-6, 0.1)), "L_g": draw(st.floats(1e-6, 0.1))},
        # Down to 1e-12, where Uncertain edges weigh less than the search's
        # tie tolerance.
        "gamma": draw(st.floats(1e-12, 100.0)),
        "sysid": {"N": draw(st.integers(1, 2 * (n + m + 1))), "T": 0.001,
                  "input_scale": 0.1,
                  "velocity_mode": draw(st.sampled_from(["oracle", "finite_difference"])),
                  "seed": draw(st.integers(0, 2**31))},
        "initial_state": state(),
        "target": target,
        "weight_mode": draw(st.sampled_from(["constant", "t0_bound"])),
    }


@given(scenarios())
@settings(max_examples=120, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
def test_plan_and_truth_graph_exit_documented(scenario):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.json"
        path.write_text(json.dumps(scenario))
        out = str(Path(tmp) / "out")
        assert main(["plan", "--scenario", str(path), "--out", out,
                     "--max-iters", "5"]) in DOCUMENTED_EXIT_CODES
        assert main(["truth-graph", "--scenario", str(path), "--out", out]) \
            in DOCUMENTED_EXIT_CODES

"""One benchmark repetition in a fresh process.

    python3 perfbench/worker.py RESULT.json SCENARIO.json [--trace ID] [--spans PATH] -- CLI ARGS...

Times set-up (import ``pwa_nav`` and load the scenario), then runs
``pwa_nav.cli.main`` on the CLI arguments with hooks installed from outside
(timestamp-only, or full spans with ``--trace``), and writes the figures of
this repetition to RESULT.json. ``pwa_nav`` must be importable (the runner
puts the checkout's ``src`` on ``PYTHONPATH``).
"""

import json
import resource
import sys
import time


def main(argv) -> int:
    sep = argv.index("--")
    opts, cli_args = argv[:sep], argv[sep + 1:]
    result_path, scenario_path = opts[0], opts[1]
    trace_id = opts[opts.index("--trace") + 1] if "--trace" in opts else None
    spans_path = opts[opts.index("--spans") + 1] if "--spans" in opts else None

    start = time.perf_counter()
    import pwa_nav.cli
    from pwa_nav.scenario import load_scenario

    load_scenario(scenario_path)
    setup_s = time.perf_counter() - start

    from tracer import StepClock, Tracer

    if trace_id is None:
        hooks = StepClock()
    else:
        hooks = Tracer(trace_id)
    hooks.install()

    start = time.perf_counter()
    code = pwa_nav.cli.main(cli_args)
    solve_s = time.perf_counter() - start

    result = {
        "exit_code": code,
        "setup_s": setup_s,
        "solve_s": solve_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if trace_id is None:
        result["steps"] = hooks.steps
        result["decisions"] = hooks.decisions
    else:
        layers = hooks.layer_metrics()
        result["layers"] = layers
        result["decisions"] = (layers["reach.predict_exit_facet.calls"]
                               + layers["reach.decide_exit_facet.calls"])
        if spans_path:
            hooks.write_spans(spans_path)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""pwa-nav benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --reference

Runs one workload through the public CLI (``pwa_nav.cli.main``), one fresh
process per repetition, for at least ``--seconds`` seconds, checks every
output, prints a report and, as the last line of standard output, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0``
reports the end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` runs a
separate traced run and reports its per-layer metrics. ``--reference``
traces the bundled full-size terrain mission and truth graph once at the
reference seed and compares their counts with ``reference.json``.

The program is taken from ``src/`` of the checkout this file sits in.
Scratch files go to ``.perfbench_tmp/`` and results to ``.perfbench_out/``
there. Exit code 2 means the checkout holds no runnable program.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE_SEED = 20250823
HELD_OUT_SEED = 7
DEADLINE_S = 170.0  # a run must end within 180 s
LAST_START_S = 120.0  # no repetition starts after this

WORKLOADS = {
    # A window of the bundled terrain scenario: same dynamics, Lipschitz
    # bounds, sysid burst, gamma and 1x1 cells. A full-size mission (about a
    # minute) cannot repeat inside one run. Predictor-bound: small graph,
    # many borderline vertex systems, so HiGHS linprog and row construction
    # dominate.
    "terrain_mission": {"kind": "mission", "panel": 8,
                        "scenario": {"state_bounds": [[0, 6], [0, 6]], "grid": [6, 6],
                                     "initial_state": [4.5, 4.5], "target": [1.5, 1.5]}},
    # Definitive decisions only (balance_witnesses_batch); independent of
    # the seed; the no-change control for predictor and graph changes.
    "truth_graph": {"kind": "truth"},
}

NOTE = ("one process, one thread: no layer queues work behind another, so there is "
        "no waiting metric")
SMALL_LAYERS = ("sysid.identify", "dynamics.simulate_closed_loop",
                "geometry.find_containing_simplex")


def fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def child_env() -> dict:
    env = dict(os.environ)
    # Workers import the package from cached bytecode, as an installed
    # program does; the environment probe compiles it first.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def environment_info() -> dict | None:
    """Versions as the workers see them; also compiles the package once."""
    probe = ("import json, sys, numpy, scipy, pwa_nav.cli; print(json.dumps({"
             "'python': sys.version.split()[0], 'numpy': numpy.__version__, "
             "'scipy': scipy.__version__}))")
    proc = subprocess.run([sys.executable, "-c", probe], env=child_env(),
                          capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        print(proc.stderr[-2000:], file=sys.stderr)
        return None
    info = json.loads(proc.stdout.strip().splitlines()[-1])
    info["nproc"] = os.cpu_count()
    info["loadavg_at_start"] = list(os.getloadavg())
    return info


def mission_seeds(seed: int, k: int) -> list[int]:
    """The run's sysid seeds: the given one first, then k-1 derived ones."""
    rng = random.Random(seed)
    return [seed] + [rng.randrange(1, 2**31) for _ in range(k - 1)]


def target_box(scenario: dict) -> list[tuple[float, float]]:
    box = []
    for (lo, hi), cells, t in zip(scenario["state_bounds"], scenario["grid"],
                                  scenario["target"]):
        width = (hi - lo) / cells
        i = min(int((t - lo) // width), cells - 1)
        box.append((lo + i * width, lo + (i + 1) * width))
    return box


def final_state(csv_path: Path, n: int) -> list[float]:
    with open(csv_path, encoding="utf-8") as fh:
        last = fh.read().rstrip("\n").rsplit("\n", 1)[-1]
    return [float(v) for v in last.split(",")[1:1 + n]]


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def edge_statuses(graph_path: Path) -> list[tuple[int, int, str]]:
    with open(graph_path, encoding="utf-8") as fh:
        edges = json.load(fh)["edges"]
    return sorted((e["src"], e["dst"], e["status"]) for e in edges)


def status_digest(statuses) -> str:
    text = "".join(f"{s},{d},{st}\n" for s, d, st in statuses)
    return hashlib.sha256(text.encode()).hexdigest()


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, as
    (percentile, value); the median when that percentile would lie below
    it, that is with fewer than 20 samples."""
    s = sorted(samples)
    n = len(s)
    if n < 20:
        return 50.0, statistics.median(s)
    return 100.0 * (n - 10) / n, s[n - 11]


class Run:
    """One benchmark run of one workload: repetitions, checks, figures."""

    def __init__(self, name: str, seed: int, seconds: float, trace: bool, tmp: Path, out: Path):
        self.name, self.seed, self.seconds, self.trace = name, seed, seconds, trace
        self.spec = WORKLOADS[name]
        self.tmp, self.out = tmp, out
        self.started = time.perf_counter()
        self.reps: list[dict] = []
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self._last_digest: dict = {}
        self._spans_written = False
        if self.spec["kind"] == "mission":
            scenario = json.loads((ROOT / "scenarios" / "terrain.json").read_text())
            scenario.update(self.spec["scenario"])
            self.scenario = scenario
            self.scenario_path = tmp / f"{name}.json"
            self.scenario_path.write_text(json.dumps(scenario, indent=1) + "\n")
        else:
            self.scenario_path = ROOT / "scenarios" / "terrain.json"
            self.reference = json.loads((HERE / "reference.json").read_text())["truth_graph"]

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def schedule(self) -> tuple[list[tuple[int | None, bool]], int]:
        """The cycle of (sysid seed, traced) repetitions and the least number
        of repetitions. Missions cycle through the seed panel and run at
        least one seed twice, so determinism is checked; a traced run pairs
        an untraced and a traced run of the given seed."""
        seed = None if self.spec["kind"] == "truth" else self.seed
        if self.trace:
            return [(seed, False), (seed, True)], 4
        if self.spec["kind"] == "truth":
            return [(None, False)], 2
        seeds = mission_seeds(self.seed, self.spec["panel"])
        return [(s, False) for s in seeds], len(seeds) + 1

    def execute(self) -> None:
        cycle, least = self.schedule()
        i = 0
        while i < least or (self.elapsed() < self.seconds and self.elapsed() < LAST_START_S):
            if not self.repetition(*cycle[i % len(cycle)]):
                return
            i += 1

    def repetition(self, sysid_seed, traced: bool) -> bool:
        i = len(self.reps)
        out_dir = self.tmp / f"rep{i}"
        result_path = self.tmp / f"rep{i}.json"
        if self.spec["kind"] == "mission":
            cli = ["plan", "--scenario", str(self.scenario_path), "--out", str(out_dir),
                   "--seed", str(sysid_seed)]
            units = 1
        else:
            cli = ["truth-graph", "--scenario", str(self.scenario_path), "--out", str(out_dir)]
            units = len(self.reference["statuses"])
        cmd = [sys.executable, str(HERE / "worker.py"), str(result_path), str(self.scenario_path)]
        if traced:
            cmd += ["--trace", f"{self.name}/seed{self.seed}/rep{i}"]
            if not self._spans_written:
                cmd += ["--spans", str(self.out / f"{self.name}-seed{self.seed}-spans.jsonl")]
                self._spans_written = True
        cmd += ["--", *cli]
        self.attempted += units
        try:
            proc = subprocess.run(cmd, env=child_env(), capture_output=True, text=True,
                                  timeout=max(1.0, DEADLINE_S - self.elapsed()))
        except subprocess.TimeoutExpired:
            self.failed += units
            self.problems.append(f"rep {i}: timed out")
            return False
        if proc.returncode != 0 or not result_path.exists():
            self.failed += units
            self.problems.append(f"rep {i}: worker exited {proc.returncode}: "
                                 f"{proc.stderr.strip()[-500:]}")
            shutil.rmtree(out_dir, ignore_errors=True)
            return True
        rep = json.loads(result_path.read_text())
        rep.update(seed=sysid_seed, traced=traced)
        bad = self.check(rep, out_dir)
        if bad:
            self.failed += min(bad, units)
        self.reps.append(rep)
        shutil.rmtree(out_dir, ignore_errors=True)
        return True

    def check(self, rep: dict, out_dir: Path) -> int:
        """Number of failed operations in one repetition."""
        i = len(self.reps)
        if self.spec["kind"] == "truth":
            # The sweep is one planning step of 1,520 decisions.
            rep.update(steps=[rep["solve_s"]], decisions=0)
            if rep["exit_code"] != 0:
                self.problems.append(f"rep {i}: truth-graph exited {rep['exit_code']}")
                return len(self.reference["statuses"])
            got = edge_statuses(out_dir / "graph_truth.json")
            want = self.reference["statuses"]
            wrong = sum(1 for g, w in zip(got, want) if list(g) != w)
            wrong += abs(len(got) - len(want))
            rep["decisions"] = len(got)
            if wrong or status_digest(got) != self.reference["sha256"]:
                self.problems.append(f"rep {i}: {wrong} edge statuses differ from the reference")
                return max(wrong, 1)
            return 0
        if rep["exit_code"] != 0:
            self.problems.append(f"rep {i}: plan exited {rep['exit_code']}")
            return 1
        traj = out_dir / "trajectory.csv"
        box = target_box(self.scenario)
        x = final_state(traj, len(box))
        tol = 1e-6
        if not all(lo - tol <= v <= hi + tol for v, (lo, hi) in zip(x, box)):
            self.problems.append(f"rep {i}: final state {x} outside the target cell {box}")
            return 1
        digests = (digest(traj), digest(out_dir / "graph_final.json"))
        previous = self._last_digest.get(rep["seed"])
        self._last_digest[rep["seed"]] = digests
        if previous is not None and previous != digests:
            self.problems.append(f"rep {i}: artifacts differ from the previous run of seed "
                                 f"{rep['seed']}")
            return 1
        return 0

    # -- figures ---------------------------------------------------------

    def end_to_end(self) -> tuple[dict, dict]:
        reps = self.reps
        steps = [s for r in reps for s in r["steps"]]
        pct, tail_value = tail(steps)
        metrics = {
            "setup_s": statistics.median(r["setup_s"] for r in reps),
            "solve_s": statistics.median(r["solve_s"] for r in reps),
            "step_p50_s": statistics.median(steps),
            "step_tail_s": tail_value,
            "decisions_per_s": statistics.median(r["decisions"] / r["solve_s"] for r in reps),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        }
        notes = {"step_p50_s": f"n={len(steps)}",
                 "step_tail_s": f"p{pct:.1f}, n={len(steps)}"}
        for key in ("setup_s", "solve_s", "decisions_per_s", "peak_rss_mb"):
            notes[key] = f"median of {len(reps)}"
        return metrics, notes

    def per_layer(self) -> tuple[dict, dict]:
        traced = [r for r in self.reps if r["traced"]]
        plain = [r for r in self.reps if not r["traced"]]
        metrics = {}
        for key, first in traced[0]["layers"].items():
            values = [r["layers"][key] for r in traced]
            if key.endswith("self_s"):
                metrics[key] = statistics.median(values)
                continue
            if any(v != first for v in values):
                self.problems.append(f"count {key} differs between traced repetitions: {values}")
            metrics[key] = first
        metrics["trace.overhead_s"] = (statistics.median(r["solve_s"] for r in traced)
                                       - statistics.median(r["solve_s"] for r in plain))
        metrics["trace.overhead_decisions_per_s"] = (
            statistics.median(r["decisions"] / r["solve_s"] for r in traced)
            - statistics.median(r["decisions"] / r["solve_s"] for r in plain))
        notes = {k: f"median of {len(traced)}" for k in metrics if k.endswith("self_s")}
        return metrics, notes


def report(run: Run, info: dict, declared: list[dict], values: dict, notes: dict) -> dict:
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    share = run.failed / run.attempted if run.attempted else 1.0
    print(f"# pwa-nav benchmark  workload={run.name}  seed={run.seed}  trace={int(run.trace)}  "
          f"repetitions={len(run.reps)}  wall={run.elapsed():.1f}s")
    print("# environment  " + "  ".join(f"{k}={v}" for k, v in info.items()))
    if run.spec["kind"] == "mission":
        seeds = sorted({r["seed"] for r in run.reps})
        print(f"# sysid seeds {seeds}  (reference seed {REFERENCE_SEED}, held-out seed "
              f"{HELD_OUT_SEED})")
    for m in declared:
        name = m["name"]
        note = notes.get(name, "")
        print(f"{run.name:16s} {name:42s} {values[name]:14.6g} {m['unit']:6s} {note}")
    print(f"{run.name:16s} {'failed_share':42s} {share:14.6g} {'ratio':6s} "
          f"{run.failed}/{run.attempted}")
    print(f"# note: {NOTE}")
    if run.trace and run.spec["kind"] == "mission":
        solve = statistics.median(r["solve_s"] for r in run.reps if r["traced"])
        shares = ", ".join(f"{name} {values[name + '.self_s'] / solve:.1%}"
                           for name in SMALL_LAYERS)
        print(f"# note: self time as a share of the traced solve_s: {shares}; shares this "
              "small lie within the run-to-run spread of the timed metrics, so these "
              "layers' counts serve attribution and regression checks only")
    for problem in run.problems:
        print(f"# FAILED: {problem}")
    return metrics


def benchmark(args) -> int:
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        return fail(f"cannot read BENCHMARK.json: {exc}")
    if not (ROOT / "src" / "pwa_nav" / "cli.py").is_file() or \
            not (ROOT / "scenarios" / "terrain.json").is_file():
        return fail(f"no pwa_nav program (src/pwa_nav, scenarios/) under {ROOT}")
    info = environment_info()
    if info is None:
        return fail("pwa_nav does not import")
    tmp_root = ROOT / ".perfbench_tmp"
    out = ROOT / ".perfbench_out"
    tmp_root.mkdir(exist_ok=True)
    out.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=tmp_root))
    try:
        run = Run(args.workload, args.seed, args.seconds, bool(args.trace), tmp, out)
        run.execute()
        if not run.reps or (run.trace and not any(r["traced"] for r in run.reps)):
            for problem in run.problems:
                print(f"# FAILED: {problem}")
            return fail("no repetition completed")
        if run.trace:
            values, notes = run.per_layer()
            declared = spec["per_layer"]
        else:
            values, notes = run.end_to_end()
            declared = spec["end_to_end"]
        metrics = report(run, info, declared, values, notes)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    result = {"correct": run.failed == 0 and not run.problems,
              "attempted": run.attempted, "failed": run.failed, "metrics": metrics}
    (out / f"{run.name}-seed{run.seed}-trace{int(run.trace)}.json").write_text(json.dumps(
        {"environment": info, "result": result, "problems": run.problems,
         "repetitions": [{k: v for k, v in r.items() if k not in ("steps", "layers")}
                         for r in run.reps]}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


def reference_check() -> int:
    """Trace the bundled full-size mission and truth graph at the reference
    seed once and compare their counts with reference.json."""
    if not (ROOT / "src" / "pwa_nav" / "cli.py").is_file():
        return fail(f"no pwa_nav program under {ROOT}")
    want = json.loads((HERE / "reference.json").read_text())["full_size_counts"]
    bundled = str(ROOT / "scenarios" / "terrain.json")
    tmp_root = ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=tmp_root))
    ok = True
    try:
        for name, cli in (("terrain_mission", ["plan", "--seed", str(REFERENCE_SEED)]),
                          ("truth_graph", ["truth-graph"])):
            result = tmp / f"{name}.json"
            cmd = [sys.executable, str(HERE / "worker.py"), str(result), bundled,
                   "--trace", f"{name}/reference", "--", *cli, "--scenario", bundled,
                   "--out", str(tmp / name)]
            subprocess.run(cmd, env=child_env(), check=True, timeout=900)
            got = json.loads(result.read_text())["layers"]
            for key, value in want[name].items():
                same = got[key] == value
                ok &= same
                print(f"{name:16s} {key:42s} {got[key]:>10} {value:>10} "
                      f"{'ok' if same else 'MISMATCH'}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference", action="store_true",
                        help="check the hooks' counts on the full-size reference runs")
    args = parser.parse_args(argv)
    os.environ["OMP_NUM_THREADS"] = "1"
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    if args.reference:
        return reference_check()
    if args.workload is None:
        parser.error("--workload is required")
    return benchmark(args)


if __name__ == "__main__":
    sys.exit(main())

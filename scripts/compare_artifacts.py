#!/usr/bin/env python3
"""Check that another checkout of pwa-nav writes the same artifact bytes as
this one.

    python3 scripts/compare_artifacts.py OTHER_CHECKOUT

Runs, with each checkout's own src/ on PYTHONPATH, `plan` on the benchmark's
terrain_mission window at the seeds mission_seeds(REFERENCE_SEED, 8) and at
HELD_OUT_SEED (both from perfbench/run.py), `plan` on the bundled scenario,
`truth-graph` on it, `plan --max-iters 10` on it with an 80 x 80 grid, the
grid-scaling point where graph writing costs the most, `plan --max-iters 30`
on the affine scenario with four control inputs (scenarios/affine_m4.json),
where the most pattern systems reach the LP kernel, and `plan --max-iters
40` on the 10 x 10 x 10 affine scenario (scenarios/affine3d.json), whose
vertex systems have three rows, and `plan` on the bundled terrain with the
one-sided control box [[1e-10, 5], [-5, 5]] (scenarios/onesided.json), some
of whose sign patterns' orthants miss the box. Both checkouts get the same scenario files,
taken from this one. Prints, per output file and per exit code, whether the
two checkouts wrote the same bytes. Exits 0 when every file is identical, 1
otherwise.
"""

import argparse
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_perfbench():
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def runs(scratch: Path) -> dict[str, list[str]]:
    """CLI arguments, less --out, of every compared run, by run name."""
    bench = load_perfbench()
    bundled = ROOT / "scenarios" / "terrain.json"
    window = json.loads(bundled.read_text())
    window.update(bench.WORKLOADS["terrain_mission"]["scenario"])
    window_path = scratch / "window.json"
    window_path.write_text(json.dumps(window, indent=1) + "\n")
    seeds = bench.mission_seeds(bench.REFERENCE_SEED, 8) + [bench.HELD_OUT_SEED]
    out = {f"window-seed{s}": ["plan", "--scenario", str(window_path), "--seed", str(s)]
           for s in seeds}
    fine = json.loads(bundled.read_text())
    fine["grid"] = [80, 80]
    fine_path = scratch / "grid80.json"
    fine_path.write_text(json.dumps(fine, indent=1) + "\n")
    out["bundled"] = ["plan", "--scenario", str(bundled)]
    out["truth-graph"] = ["truth-graph", "--scenario", str(bundled)]
    out["grid80"] = ["plan", "--scenario", str(fine_path), "--max-iters", "10"]
    m4_path = ROOT / "scenarios" / "affine_m4.json"
    out["m4"] = ["plan", "--scenario", str(m4_path), "--max-iters", "30"]
    out["affine3d"] = ["plan", "--scenario", str(ROOT / "scenarios" / "affine3d.json"),
                       "--max-iters", "40"]
    out["onesided"] = ["plan", "--scenario", str(ROOT / "scenarios" / "onesided.json")]
    return out


def run_all(checkout: Path, plan: dict[str, list[str]], out_root: Path) -> None:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    for name, args in plan.items():
        out = out_root / name
        cmd = [sys.executable, "-c",
               "import sys; from pwa_nav.cli import main; sys.exit(main(sys.argv[1:]))",
               *args, "--out", str(out)]
        code = subprocess.run(cmd, env=env, capture_output=True, text=True).returncode
        (out_root / f"{name}.exit").write_text(f"{code}\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("other", type=Path, help="root of the other checkout")
    args = parser.parse_args()
    other = args.other.resolve()
    if not (other / "src" / "pwa_nav").is_dir():
        parser.error(f"{other} holds no src/pwa_nav")

    with tempfile.TemporaryDirectory() as tmp:
        scratch = Path(tmp)
        plan = runs(scratch)
        here_out, other_out = scratch / "here", scratch / "other"
        run_all(ROOT, plan, here_out)
        run_all(other, plan, other_out)
        same = compared = 0
        for name in plan:
            files = sorted({p.relative_to(here_out) for p in here_out.glob(f"{name}/*")}
                           | {p.relative_to(other_out) for p in other_out.glob(f"{name}/*")}
                           | {Path(f"{name}.exit")})
            for rel in files:
                a, b = here_out / rel, other_out / rel
                identical = a.is_file() and b.is_file() and a.read_bytes() == b.read_bytes()
                compared += 1
                same += identical
                print(f"{str(rel):44s} {'identical' if identical else 'DIFFERS'}")
        print(f"{same} of {compared} files byte-identical")
    return 0 if same == compared else 1


if __name__ == "__main__":
    sys.exit(main())

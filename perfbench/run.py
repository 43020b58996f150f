#!/usr/bin/env python3
"""Build the simulator benchmark and run one of its workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --test

Run from the repository root. The first form builds perfbench/ (a CMake
project over the simulator sources in src/) into .bench_build/perfbench,
runs the workload and prints the benchmark's report. Its last line is one
JSON object with the keys correct, attempted, failed and metrics: for a
workload BENCHMARK.json tracks, its end_to_end metrics with --trace 0 and
its per_layer ones with --trace 1; for another workload, every metric
that workload reports. A traced run also writes its spans, as Chrome
trace-event JSON, to .bench_build/perfbench/spans-WORKLOAD-seedN.json.
--test builds the benchmark's own tests and runs them.

The exit code is 0 when every experiment passed its checks. A failed
build or a report that does not match BENCHMARK.json exits non-zero
without a result line.
"""

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
JOBS = "4"


def build(target):
    """Configure and build into BUILD; False when either step fails."""
    gen = []
    if not (BUILD / "CMakeCache.txt").exists() and shutil.which("ninja"):
        gen = ["-G", "Ninja"]
    steps = [["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo", *gen],
             ["cmake", "--build", str(BUILD), "-j", JOBS]
             + (["--target", target] if target else [])]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed", file=sys.stderr)
            return False
    return True


def manifest():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--test", action="store_true",
                    help="build and run the benchmark's tests")
    args = ap.parse_args()

    if args.test:
        if not build(None):
            return 1
        return subprocess.run(["ctest", "--test-dir", str(BUILD),
                               "--output-on-failure"]).returncode
    if not args.workload:
        ap.error("--workload is required")
    if args.seed is not None and args.seed < 0:
        ap.error("--seed must be a non-negative integer")

    spec = manifest()
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    tracked = any(w["name"] == args.workload for w in spec["workloads"])
    if not build("perfbench"):
        return 1
    cmd = [str(BUILD / "perfbench"), "--workload", args.workload,
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    if args.trace:
        seed = "registry" if args.seed is None else args.seed
        cmd += ["--spans", str(BUILD / f"spans-{args.workload}-seed{seed}.json")]
    run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = run.stdout.splitlines()
    if run.returncode not in (0, 1) or not lines:
        print(run.stdout, end="")
        return run.returncode or 1
    print("\n".join(lines[:-1]))
    if not tracked:
        # Not in BENCHMARK.json: its own metrics, as it reports them.
        print(lines[-1])
        return run.returncode

    raw = json.loads(lines[-1])
    metrics = {}
    for m in wanted:
        got = raw["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            print(f"metric {m['name']} [{m['unit']}] missing from the "
                  f"report, or in another unit", file=sys.stderr)
            return 1
        metrics[m["name"]] = got
    print(json.dumps({"correct": raw["correct"],
                      "attempted": raw["attempted"],
                      "failed": raw["failed"],
                      "metrics": metrics}))
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())

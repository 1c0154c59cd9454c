#!/usr/bin/env python3
"""rdsim's benchmark: build the simulator and the perfbench driver, run one
workload, and print its metrics.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The first call configures and builds into $CARGO_TARGET_DIR (default
.bench_build) with CMake; later calls rebuild only what changed. The
driver's report goes to stdout; the last line is the JSON result
{"correct", "attempted", "failed", "metrics"}. With --trace 1 the traced
run's spans are also written to <build dir>/traces/ as Chrome Trace Event
JSON (open them in Perfetto). See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170  # Set-up of a built checkout is seconds at most.


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds the perfbench target; False on failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                                  stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            log(f"build step failed: {e}")
            return False
        if done.returncode != 0:
            log(f"build step failed ({done.returncode}): {' '.join(cmd)}")
            return False
    return True


def git_sha():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return done.stdout.strip() if done.returncode == 0 else "none"


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode, if it is there."""
    spec = ROOT / "BENCHMARK.json"
    if not spec.exists():
        return None
    key = "per_layer" if trace else "end_to_end"
    return [m["name"] for m in json.loads(spec.read_text())[key]]


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args()

    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not build(build_dir):
        return 1
    digests = json.loads((HERE / "digests.json").read_text())
    trace_dir = build_dir / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    cmd = [str(build_dir / "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--trace-dir", str(trace_dir),
           "--git-sha", git_sha()]
    if args.workload in digests:
        cmd += ["--expect-digest", digests[args.workload]]
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("the run did not finish in time")
        return 1
    sys.stderr.write(done.stderr)
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        log(f"perfbench exited with {done.returncode}")
        return 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stderr.write(done.stdout)
        log("the last line is not a JSON result")
        return 1
    names = expected_metrics(args.trace)
    if names is not None and list(result["metrics"]) != names:
        sys.stderr.write(done.stdout)
        log(f"metrics {list(result['metrics'])} do not match BENCHMARK.json "
            f"{names}")
        return 1
    sys.stdout.write(done.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Run one workload of the Recoil end-to-end benchmark.

    python3 perfbench/run.py --workload decode-classes|cold-stream \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run builds the library, the
recoil_served daemon and the benchmark driver from the checkout's sources
with CMake (Release) into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench); later runs rebuild incrementally. The driver's
stdout is passed through; its last line is the JSON result, whose metric
names are checked against BENCHMARK.json before it is printed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("decode-classes", "cold-stream")
DRIVER_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    """Configure (once) and build; all tool output goes to stderr."""
    cache = build_dir / "CMakeCache.txt"
    src = ROOT / "perfbench"
    if cache.exists() and f"CMAKE_HOME_DIRECTORY:INTERNAL={src}" not in cache.read_text():
        shutil.rmtree(build_dir)  # the checkout moved: start over
    if not cache.exists():
        build_dir.mkdir(parents=True, exist_ok=True)
        subprocess.run(["cmake", "-S", str(src), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown(no-git)"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown(no-git)"


def expected_names(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    for need in ("src/serve/server.cpp", "examples/recoil_served.cpp", "BENCHMARK.json"):
        if not (ROOT / need).is_file():
            fail(f"{need} not found under {ROOT}: run from a full checkout")

    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    build_dir = target / "perfbench"
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        fail(f"build failed: {e}")

    work = target / "perfbench-work" / f"{args.workload}-{os.getpid()}"
    trace_out = target / "perfbench-traces" / f"{args.workload}-seed{args.seed}.json"
    cmd = [str(build_dir / "recoil_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--daemon", str(build_dir / "recoil_served"),
           "--work", str(work), "--trace-out", str(trace_out),
           "--git-sha", git_sha()]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        shutil.rmtree(work, ignore_errors=True)
        sys.stdout.write(e.stdout.decode() if isinstance(e.stdout, bytes) else (e.stdout or ""))
        fail(f"driver exceeded {DRIVER_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.rstrip("\n").split("\n")
    body, last = lines[:-1], lines[-1] if lines else ""
    if body:
        print("\n".join(body))
    try:
        result = json.loads(last)
    except json.JSONDecodeError:
        print(last)
        fail(f"driver exited {proc.returncode} without a result")
    names = list(result.get("metrics", {}))
    if names != expected_names(bool(args.trace)):
        fail(f"metric names do not match BENCHMARK.json: {names}", 3)
    print(json.dumps(result))
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()

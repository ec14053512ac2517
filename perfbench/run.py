#!/usr/bin/env python3
"""Repository benchmark: builds the harness and runs one workload.

    python3 perfbench/run.py --workload query_mix --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The first run configures and builds the
library and the harness (Release) into $CARGO_TARGET_DIR, or .bench_build
when that is unset; later runs only rebuild what changed. The last line of
standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with every end-to-end metric of BENCHMARK.json under --trace 0 and every
per-layer metric under --trace 1. The full report (all metrics with units,
directions and sample counts, the output checks and the hardware/build
attribution) goes to .bench_out/<workload>-seed<N>-trace<T>.json, and a
traced run also writes a Chrome trace-event file next to it (open it in
Perfetto). Exits non-zero, without a result line, when the build or the run
fails, and with exit code 1 after the result line when an output check fails.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the harness; returns the binary path."""
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            # Leave no half-configured tree behind for the next attempt.
            shutil.rmtree(build_dir, ignore_errors=True)
            return None
    cmd = ["cmake", "--build", build_dir, "--target", "perfbench",
           "-j", str(os.cpu_count() or 1)]
    if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(build_dir, "perfbench")


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--tiny", action="store_true",
                    help="smoke-test size: a small city and short phases")
    args = ap.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        log(f"cannot read BENCHMARK.json: {e}")
        return 2
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log(f"unknown workload {args.workload}")
        return 2

    binary = build()
    if binary is None:
        log("build failed")
        return 1

    os.makedirs(OUT_DIR, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.tiny:
        stem += "-tiny"
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--commit", git_commit()]
    if args.tiny:
        cmd.append("--tiny")
    if args.trace == "1":
        cmd += ["--trace-out", os.path.join(OUT_DIR, stem + ".trace.json")]
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S}s")
        return 1
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        log(f"harness exited with {r.returncode}")
        return 1
    report = json.loads(lines[-1])

    key = "per_layer" if args.trace == "1" else "end_to_end"
    want = [m["name"] for m in spec[key]]
    got = report[key]
    if sorted(got) != sorted(want):
        log(f"{key} metrics differ from BENCHMARK.json: "
            f"missing {sorted(set(want) - set(got))}, "
            f"extra {sorted(set(got) - set(want))}")
        return 1
    for m in spec[key]:
        if got[m["name"]]["unit"] != m["unit"]:
            log(f"unit of {m['name']} is {got[m['name']]['unit']}, "
                f"BENCHMARK.json says {m['unit']}")
            return 1

    report["command"] = cmd
    with open(os.path.join(OUT_DIR, stem + ".json"), "w") as f:
        json.dump(report, f, indent=1)
    result = {
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {n: {"value": got[n]["value"], "unit": got[n]["unit"]}
                    for n in want},
    }
    print(json.dumps(result))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

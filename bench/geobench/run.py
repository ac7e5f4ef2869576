#!/usr/bin/env python3
"""Builds geobench from this checkout and runs one workload.

    python3 bench/geobench/run.py --workload pan --seed 1 --seconds 12 --trace 0

The build goes to .bench_build/geobench (cmake, Release); each run works in
a scratch directory under .bench_build that is removed afterwards. The
frozen per-workload values (points, connections, light and heavy rates)
come from spec.json next to this file. The binary's stdout is passed
through; its last line is the result JSON. Result files with an environment
stamp, and trace-<workload>.json from traced runs, collect in
.bench_build/results.

--smoke shrinks the survey to 100,000 points and set-up to one copy, for a
quick end-to-end check of the benchmark itself (see smoke.py).
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build", "geobench")
RESULTS = os.path.join(ROOT, ".bench_build", "results")
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configures on first use, then builds incrementally. False on error."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cfg = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cfg += ["-G", "Ninja"]
        steps.append(cfg)
    steps.append(["cmake", "--build", BUILD, "-j", "4"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout)
            log("geobench: build failed:", " ".join(cmd))
            return False
    return True


def commit_id():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()

    with open(os.path.join(HERE, "spec.json")) as f:
        spec = json.load(f)
    wl = spec["workloads"].get(args.workload)
    if wl is None:
        log("geobench: unknown workload", args.workload)
        return 2
    if not build():
        return 1

    points = wl["points"]
    setup_reps = spec["phases"]["setup_reps"]
    if args.smoke:
        points = points // 20
        setup_reps = 1
    work = os.path.join(ROOT, ".bench_build", "run-%d" % os.getpid())
    os.makedirs(RESULTS, exist_ok=True)
    cmd = [os.path.join(BUILD, "geobench"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--points", str(points),
           "--connections", str(wl["connections"]),
           "--light-qps", str(wl["light_qps"]),
           "--heavy-qps", str(wl["heavy_qps"]),
           "--setup-reps", str(setup_reps),
           "--work", work,
           "--out", RESULTS,
           "--commit", commit_id()]
    env = dict(os.environ, TMPDIR=work)
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        log("geobench: run exceeded %d s" % RUN_TIMEOUT_S)
        code = 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    log("geobench: %s finished in %.1f s" %
        (args.workload, time.monotonic() - started))
    return code


if __name__ == "__main__":
    sys.exit(main())

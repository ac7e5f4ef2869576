#!/usr/bin/env python3
"""Runs geobench over several seeds and collects the result files.

    python3 bench/geobench/series.py --out DIR --seeds 1-10
    python3 bench/geobench/series.py --out DIR --seeds 5,5,5 --sets a,b

Each run goes through run.py; its result file (environment stamp, end-to-end
and per-layer metrics) is copied to DIR/<set>/<workload>-<n>.json. With
several sets the runs interleave, and the order of the sets flips from one
seed to the next, so two sets of the same code see the same drift of the
machine. compare.py reads the set directories.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RESULTS = os.path.join(ROOT, ".bench_build", "results")


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def main():
    with open(os.path.join(HERE, "spec.json")) as f:
        workloads = list(json.load(f)["workloads"])
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--sets", default="a")
    ap.add_argument("--workloads", default=",".join(workloads))
    ap.add_argument("--seconds", default="12")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()

    sets = args.sets.split(",")
    failures = 0
    for n, seed in enumerate(parse_seeds(args.seeds)):
        order = sets if n % 2 == 0 else list(reversed(sets))
        for label in order:
            for workload in args.workloads.split(","):
                cmd = [sys.executable, os.path.join(HERE, "run.py"),
                       "--workload", workload, "--seed", str(seed),
                       "--seconds", args.seconds, "--trace", args.trace]
                proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
                lines = proc.stdout.strip().splitlines()
                ok = proc.returncode == 0 and lines and \
                    json.loads(lines[-1])["correct"]
                print("%s seed %d %s: %s" % (label, seed, workload,
                                             "ok" if ok else "FAILED"),
                      flush=True)
                failures += 0 if ok else 1
                src = os.path.join(RESULTS, "result-%s-s%d-t%s.json" %
                                   (workload, seed, args.trace))
                dst_dir = os.path.join(args.out, label)
                os.makedirs(dst_dir, exist_ok=True)
                if os.path.exists(src):
                    shutil.copy(src, os.path.join(
                        dst_dir, "%s-%02d.json" % (workload, n)))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

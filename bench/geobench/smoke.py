#!/usr/bin/env python3
"""Quick end-to-end check of geobench itself (about half a minute).

    python3 bench/geobench/smoke.py

Runs every workload of BENCHMARK.json once untraced and once traced on a
100,000-point survey (run.py --smoke, one-second measurement) and checks
that each run exits 0 with zero digest mismatches, that its last line
holds exactly the result keys, that every metric BENCHMARK.json names is
printed with its unit, and that the traced run's trace JSON parses.
"""
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RESULTS = os.path.join(ROOT, ".bench_build", "results")


def check_run(bench, workload, trace):
    """Returns a list of problems with one smoke run."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "1", "--seconds", "1", "--trace", str(trace),
           "--smoke"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return ["exit %d" % proc.returncode]
    problems = []
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append("result keys %s" % sorted(result))
    if not result.get("correct") or result.get("failed") != 0 or \
            result.get("attempted", 0) < 1:
        problems.append("correct=%s attempted=%s failed=%s" % (
            result.get("correct"), result.get("attempted"),
            result.get("failed")))
    expected = bench["per_layer" if trace else "end_to_end"]
    printed = {}
    for line in lines:
        parts = line.split()
        if len(parts) == 4 and parts[0] == "metric":
            printed[parts[1]] = parts[3]
    names = {m["name"] for m in expected}
    if set(result["metrics"]) != names:
        problems.append("metric set differs: %s" %
                        sorted(set(result["metrics"]) ^ names))
    for m in expected:
        got = result["metrics"].get(m["name"], {}).get("unit")
        if got != m["unit"] or printed.get(m["name"]) != m["unit"]:
            problems.append("%s: unit %s / printed %s, want %s" % (
                m["name"], got, printed.get(m["name"]), m["unit"]))
    if trace:
        path = os.path.join(RESULTS, "trace-%s.json" % workload)
        try:
            with open(path) as f:
                if not json.load(f)["traceEvents"]:
                    problems.append("trace has no events")
        except (OSError, ValueError, KeyError) as e:
            problems.append("trace %s: %s" % (path, e))
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "spec.json")) as f:
        spec = json.load(f)
    started = time.monotonic()
    failures = 0
    # The ledger in spec.json maps every per-layer metric exactly once.
    mapped = [m for row in spec["per_layer"] for m in row["metrics"]]
    named = [m["name"] for m in bench["per_layer"]]
    if sorted(mapped) != sorted(named):
        print("spec.json per_layer does not map BENCHMARK.json's metrics: %s"
              % sorted(set(mapped) ^ set(named)))
        failures += 1
    for w in bench["workloads"]:
        for trace in (0, 1):
            problems = check_run(bench, w["name"], trace)
            failures += bool(problems)
            print("%-10s trace=%d %s" % (w["name"], trace,
                                         "; ".join(problems) or "ok"),
                  flush=True)
    print("smoke: %s in %.1f s" % ("FAILED" if failures else "passed",
                                   time.monotonic() - started))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

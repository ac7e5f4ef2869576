#!/usr/bin/env python3
"""The geobench gate: compares two sets of result files.

    python3 bench/geobench/compare.py PARENT CHANGE [--per-layer]
    python3 bench/geobench/compare.py --spread RUNS

PARENT and CHANGE are directories of result-*.json files (as run.py writes
them to .bench_build/results, or as series.py collects them), taken in
alternating order. Runs pair up by workload in file-name order. For every
(workload, end-to-end metric of BENCHMARK.json) it prints each side's
median and quartiles, the change's win fraction over the pairs and a
verdict:

  regressed   the change's median is worse than the parent's by more than
              the metric's bound
  improved    the change wins at least 9/10 of the pairs and the medians
              differ by more than the parent's interquartile range
  unresolved  the spread of either side is wider than the bound and not
              every change run beats every parent run
  unchanged   otherwise

The share of failed operations gets its own row per workload and may not
rise at all. Exit status: 0 when nothing regressed and no failure share
rose, 1 otherwise, 2 when the two sets were taken on different set-ups
(environment stamps differ).
"""
import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))

# Environment-stamp fields that must agree before two sets compare.
STAMP_KEYS = ("nproc", "simd", "compiler", "points", "survey_seed",
              "connections", "light_qps", "heavy_qps", "seconds",
              "setup_reps", "rss_window")


def load_set(path):
    """{workload: [result, ...]} in run order, from a directory of result
    files (file-name order) or a JSON-lines file (line order)."""
    if os.path.isdir(path):
        results = []
        for name in sorted(glob.glob(os.path.join(path, "*.json"))):
            with open(name) as f:
                results.append(json.load(f))
    else:
        with open(path) as f:
            results = [json.loads(line) for line in f if line.strip()]
    runs = {}
    for result in results:
        runs.setdefault(result["workload"], []).append(result)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def better(a, b, direction):
    return a > b if direction == "higher" else a < b


def verdict(parent, change, direction, bound):
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if better(c, p, direction))
    worse = (pm - cm) if direction == "higher" else (cm - pm)
    if pm != 0 and worse / abs(pm) > bound:
        return "regressed", wins, len(pairs)
    if pairs and wins >= 0.9 * len(pairs) and abs(cm - pm) > (p3 - p1) \
            and better(cm, pm, direction):
        return "improved", wins, len(pairs)
    spread = max((p3 - p1) / abs(pm) if pm else 0.0,
                 (c3 - c1) / abs(cm) if cm else 0.0)
    all_better = all(better(c, p, direction) for c in change for p in parent)
    if spread > bound and not all_better:
        return "unresolved", wins, len(pairs)
    return "unchanged", wins, len(pairs)


def stamps_differ(parent, change):
    """Stamp keys on which any run differs from its workload's first."""
    diffs = set()
    for workload, runs in parent.items():
        ref = runs[0]["env"]
        for r in runs + change.get(workload, []):
            diffs.update(k for k in STAMP_KEYS if r["env"].get(k) != ref.get(k))
    return sorted(diffs)


def fmt(values):
    q1, m, q3 = quartiles(values)
    return "%.4g [%.4g, %.4g]" % (m, q1, q3)


def spread_report(bench, runs):
    """Per (workload, end-to-end metric): the interquartile range over the
    median of one set, against the metric's bound. True when every spread
    except set-up time's stays within its bound."""
    ok = True
    for workload in [w["name"] for w in bench["workloads"]]:
        for m in bench["end_to_end"]:
            values = [r["end_to_end"][m["name"]]["value"]
                      for r in runs.get(workload, [])]
            if not values:
                continue
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / abs(med) if med else 0.0
            within = spread <= m["bound"] or m["name"] == "setup_s"
            ok &= within
            print("%-10s %-14s n=%-3d median %-10.4g spread %.3f  bound %.2f%s"
                  % (workload, m["name"], len(values), med, spread,
                     m["bound"], "" if within else "  EXCEEDED"))
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change", nargs="?")
    ap.add_argument("--per-layer", action="store_true",
                    help="also print per-layer medians (no verdict)")
    ap.add_argument("--spread", action="store_true",
                    help="report the run-to-run spread of PARENT alone")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    if args.spread:
        return 0 if spread_report(bench, load_set(args.parent)) else 1
    if args.change is None:
        ap.error("CHANGE is required unless --spread is given")
    parent, change = load_set(args.parent), load_set(args.change)
    diffs = stamps_differ(parent, change)
    if diffs:
        print("environment stamps differ (%s): the sets are not comparable"
              % ", ".join(diffs))
        return 2

    rows = []
    bad = False
    for workload in [w["name"] for w in bench["workloads"]]:
        p_runs, c_runs = parent.get(workload, []), change.get(workload, [])
        if not p_runs or not c_runs:
            rows.append((workload, "(no runs)", "", "", "", "", "missing"))
            bad = True
            continue
        for m in bench["end_to_end"]:
            name = m["name"]
            pv = [r["end_to_end"][name]["value"] for r in p_runs]
            cv = [r["end_to_end"][name]["value"] for r in c_runs]
            v, wins, n = verdict(pv, cv, m["better"], m["bound"])
            bad |= v == "regressed"
            delta = 100.0 * (quartiles(cv)[1] / quartiles(pv)[1] - 1) \
                if quartiles(pv)[1] else 0.0
            rows.append((workload, name, fmt(pv), fmt(cv), "%+.1f%%" % delta,
                         "%d/%d" % (wins, n), v))
        p_fail = sum(r["failed"] for r in p_runs) / \
            max(1, sum(r["attempted"] for r in p_runs))
        c_fail = sum(r["failed"] for r in c_runs) / \
            max(1, sum(r["attempted"] for r in c_runs))
        rose = c_fail > p_fail
        bad |= rose
        rows.append((workload, "fail_frac", "%.4g" % p_fail, "%.4g" % c_fail,
                     "", "", "regressed" if rose else "unchanged"))
        if args.per_layer:
            names = [m["name"] for m in bench["per_layer"]] + \
                sorted(p_runs[0].get("workload_specific", {}))
            for name in names:
                pv = [r[k][name]["value"] for r in p_runs
                      for k in ("per_layer", "workload_specific")
                      if name in r.get(k, {})]
                cv = [r[k][name]["value"] for r in c_runs
                      for k in ("per_layer", "workload_specific")
                      if name in r.get(k, {})]
                if pv and cv:
                    rows.append((workload, name, fmt(pv), fmt(cv), "", "",
                                 "(per-layer)"))

    header = ("workload", "metric", "parent median [q1, q3]",
              "change median [q1, q3]", "delta", "wins", "verdict")
    widths = [max(len(str(r[i])) for r in rows + [header])
              for i in range(len(header))]
    for r in [header] + rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(r, widths)).rstrip())
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

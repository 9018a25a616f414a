#!/usr/bin/env python3
"""Compares recorded benchmark runs (see run.py --record).

    python3 perfbench/compare.py BASE NEW
        Per workload and metric: median and quartiles of each set, the
        change of the medians, and a verdict against the metric's bound in
        BENCHMARK.json. Where either set's run-to-run spread (interquartile
        range over median) is wider than the bound, the verdict is
        "unresolved" unless every NEW run beats every BASE run. Per-layer
        metrics (traced runs) are listed without a verdict; counts are
        shown as counts, never as speed-ups. Exits 1 on a regression.

    python3 perfbench/compare.py spread RUNS
        Run-to-run spread of one set against each metric's bound: "steady"
        below a third of the bound, "wide" above it, "TOO WIDE" beyond it.

BASE, NEW and RUNS are directories holding runs.jsonl, or .jsonl files.
Runs whose environment stamps differ are never compared: the tool names
the differing keys and exits 2.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def load_runs(path):
    if os.path.isdir(path):
        path = os.path.join(path, "runs.jsonl")
    runs = []
    with open(path) as f:
        for line in f:
            if line.strip():
                runs.append(json.loads(line))
    return runs


def stamp_differences(runs):
    """'workload: key' for every stamp key that differs across one
    workload's runs (workloads legitimately differ from each other, e.g.
    in thread-pool size)."""
    out = []
    for workload in sorted({r["workload"] for r in runs}):
        same = [r.get("env", {}) for r in runs if r["workload"] == workload]
        keys = set().union(*same)
        out += ["%s: %s" % (workload, k) for k in sorted(keys)
                if len({json.dumps(e.get(k), sort_keys=True)
                        for e in same}) > 1]
    return out


def summary(values):
    """(median, q1, q3, spread); spread = (q3 - q1) / median."""
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    spread = (q3 - q1) / abs(median) if median else float("inf")
    return median, q1, q3, spread


def group(runs, trace):
    """{workload: {metric: [values]}} over runs with the given trace flag."""
    out = {}
    for run in runs:
        if run.get("trace") != trace or not run.get("correct"):
            continue
        metrics = out.setdefault(run["workload"], {})
        for name, m in run["metrics"].items():
            metrics.setdefault(name, []).append(m["value"])
    return out


def fmt(v):
    return "%.6g" % v


def spread_mode(path):
    spec = load_spec()
    runs = load_runs(path)
    diff = stamp_differences(runs)
    if diff:
        print("environment stamps differ within the set: %s" % ", ".join(diff))
        return 2
    worst = 0
    by_workload = group(runs, 0)
    print("%-11s %-18s %4s %12s %12s %12s %8s %6s  %s" % (
        "workload", "metric", "runs", "median", "q1", "q3", "spread",
        "bound", "verdict"))
    for workload in sorted(by_workload):
        for m in spec["end_to_end"]:
            values = by_workload[workload].get(m["name"])
            if not values:
                continue
            median, q1, q3, spread = summary(values)
            bound = m["bound"]
            if spread <= bound / 3:
                verdict = "steady"
            elif spread <= bound:
                verdict = "wide"
                worst = max(worst, 1)
            else:
                verdict = "TOO WIDE"
                worst = 2
            if m["name"] == "setup_s":
                verdict += " (exempt)"
            print("%-11s %-18s %4d %12s %12s %12s %7.2f%% %5.0f%%  %s" % (
                workload, m["name"], len(values), fmt(median), fmt(q1),
                fmt(q3), 100 * spread, 100 * bound, verdict))
    return 0


def compare_mode(base_path, new_path):
    spec = load_spec()
    base_runs = load_runs(base_path)
    new_runs = load_runs(new_path)
    diff = stamp_differences(base_runs + new_runs)
    if diff:
        print("not compared: environment stamps differ in %s" % ", ".join(diff))
        return 2
    regression = False
    print("== end-to-end (untraced runs) ==")
    base, new = group(base_runs, 0), group(new_runs, 0)
    for workload in sorted(set(base) & set(new)):
        for m in spec["end_to_end"]:
            b = base[workload].get(m["name"])
            n = new[workload].get(m["name"])
            if not b or not n:
                continue
            bm, bq1, bq3, bs = summary(b)
            nm, nq1, nq3, ns = summary(n)
            change = (nm - bm) / abs(bm) if bm else 0.0
            lower = m["better"] == "lower"
            worse = change > 0 if lower else change < 0
            all_better = (max(n) < min(b)) if lower else (min(n) > max(b))
            if max(bs, ns) > m["bound"]:
                verdict = "better (every run)" if all_better else "unresolved"
            elif abs(change) > m["bound"]:
                verdict = "REGRESSION" if worse else "better"
                regression = regression or worse
            else:
                verdict = "within bound"
            print("%-11s %-18s base %s [%s, %s]  new %s [%s, %s]  %+6.2f%%  "
                  "(bound %.0f%%)  %s" % (
                      workload, m["name"], fmt(bm), fmt(bq1), fmt(bq3),
                      fmt(nm), fmt(nq1), fmt(nq3), 100 * change,
                      100 * m["bound"], verdict))
    print("== per-layer (traced runs; no bound, counts as counts) ==")
    base, new = group(base_runs, 1), group(new_runs, 1)
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for workload in sorted(set(base) & set(new)):
        for name in [m["name"] for m in spec["per_layer"]]:
            b = base[workload].get(name)
            n = new[workload].get(name)
            if not b or not n:
                continue
            bm, bq1, bq3, _ = summary(b)
            nm, nq1, nq3, _ = summary(n)
            if units[name] == "count":
                change = "%+g" % (nm - bm)
            else:
                change = ("%+6.2f%%" % (100 * (nm - bm) / abs(bm))) if bm else "n/a"
            print("%-11s %-30s base %s [%s, %s]  new %s [%s, %s]  %s %s" % (
                workload, name, fmt(bm), fmt(bq1), fmt(bq3), fmt(nm),
                fmt(nq1), fmt(nq3), change, units[name]))
    return 1 if regression else 0


def main(argv):
    if len(argv) == 3 and argv[1] == "spread":
        return spread_mode(argv[2])
    if len(argv) == 3:
        return compare_mode(argv[1], argv[2])
    sys.stderr.write(__doc__)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))

#!/usr/bin/env python3
"""Compares two benchmark result sets against the bounds in BENCHMARK.json.

    python3 benchmark/compare.py A.json B.json

A and B are sets written by `benchmark/run.py --seeds ... --out FILE`, A the
baseline (parent commit) and B the change. For each (workload, end-to-end
metric) it prints the medians over each set's untraced runs and one verdict:

  regressed   B's median is worse than A's by more than the metric's bound
  unresolved  a set's spread (interquartile range / median) is wider than the
              bound, and not every run of B beats every run of A (not applied
              to setup_s, which is judged on its medians)
  improved    B beats A by more than A's own spread and wins at least 9 of
              10 seed-paired runs
  unchanged   otherwise

The simulated outputs (the exact metrics and the run signature) of every
(workload, seed, pass) found in both sets are compared for equality. Exits
nonzero when any row is regressed or unresolved, or any output differs.
"""

import json
import statistics
import sys
from pathlib import Path

SPEC_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
# Judged on medians alone. Set-up is short, so on a shared host its spread
# across runs can exceed its bound; the bound is there to catch work moved
# into set-up, and that moves the median.
MEDIAN_ONLY = {"setup_s"}


def runs(result_set, workload):
    return {r["seed"]: r for r in result_set["records"]
            if r["workload"] == workload and not r["traced"] and r["correct"]}


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("inf")


def verdict(metric, a_runs, b_runs):
    name, bound = metric["name"], metric["bound"]
    higher = metric["better"] == "higher"
    a = [r["end_to_end"][name]["value"] for r in a_runs.values()]
    b = [r["end_to_end"][name]["value"] for r in b_runs.values()]
    if len(a) < 2 or len(b) < 2:
        return None, "unresolved"
    med_a, med_b = statistics.median(a), statistics.median(b)
    worse = (med_a - med_b) / med_a if higher else (med_b - med_a) / med_a
    better = (lambda x, y: x > y) if higher else (lambda x, y: x < y)
    spreads = (spread(a), spread(b))
    if max(spreads) > bound and name not in MEDIAN_ONLY:
        all_better = all(better(y, x) for x in a for y in b)
        return (med_a, med_b, worse, spreads), "improved" if all_better else "unresolved"
    if worse > bound:
        return (med_a, med_b, worse, spreads), "regressed"
    paired = [better(b_runs[s]["end_to_end"][name]["value"], a_runs[s]["end_to_end"][name]["value"])
              for s in a_runs if s in b_runs]
    if -worse > spreads[0] and paired and sum(paired) >= 0.9 * len(paired):
        return (med_a, med_b, worse, spreads), "improved"
    return (med_a, med_b, worse, spreads), "unchanged"


def exact_rows(a_set, b_set):
    index = {(r["workload"], r["seed"], r["traced"]): r for r in a_set["records"] if r["correct"]}
    same, differ = {}, {}
    for r in b_set["records"]:
        key = (r["workload"], r["seed"], r["traced"])
        if not r["correct"] or key not in index:
            continue
        other = index[key]
        match = other["exact"] == r["exact"] and other["signature"] == r["signature"]
        (same if match else differ).setdefault(r["workload"], []).append(r["seed"])
    return same, differ


def main(argv):
    if len(argv) != 3:
        sys.stderr.write(__doc__)
        return 2
    spec = json.loads(SPEC_PATH.read_text())
    a_set, b_set = (json.loads(Path(p).read_text()) for p in argv[1:])
    for key in ("seconds", "smoke"):
        if a_set.get(key) != b_set.get(key):
            print("warning: the sets differ in %s (%s vs %s)" % (key, a_set.get(key),
                                                                b_set.get(key)))
    print("A: %s  %s" % (argv[1], a_set.get("stamp", {}).get("git_sha", "?")))
    print("B: %s  %s\n" % (argv[2], b_set.get("stamp", {}).get("git_sha", "?")))
    print("%-16s %-20s %13s %13s %8s %8s %8s %6s  %s" %
          ("workload", "metric", "median A", "median B", "worse", "sprd A", "sprd B", "bound",
           "verdict"))
    bad = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        a_runs, b_runs = runs(a_set, workload), runs(b_set, workload)
        for metric in spec["end_to_end"]:
            numbers, word = verdict(metric, a_runs, b_runs)
            bad += word in ("regressed", "unresolved")
            if numbers is None:
                print("%-16s %-20s %13s %13s %8s %8s %8s %5.0f%%  %s" %
                      (workload, metric["name"], "-", "-", "-", "-", "-",
                       100 * metric["bound"], word))
                continue
            med_a, med_b, worse, (s_a, s_b) = numbers
            print("%-16s %-20s %13.4f %13.4f %7.2f%% %7.2f%% %7.2f%% %5.0f%%  %s" %
                  (workload, metric["name"], med_a, med_b, 100 * worse, 100 * s_a, 100 * s_b,
                   100 * metric["bound"], word))
    same, differ = exact_rows(a_set, b_set)
    print("\nsimulated outputs (exact metrics and signature), per workload:")
    for workload in [w["name"] for w in spec["workloads"]]:
        if workload in differ:
            bad += 1
            print("  %-16s DIFFER at seeds %s" % (workload, sorted(set(differ[workload]))))
        elif workload in same:
            print("  %-16s identical in %d runs" % (workload, len(same[workload])))
        else:
            print("  %-16s no runs in common" % workload)
    print("\n%s" % ("no regressed or unresolved row, outputs identical" if not bad else
                    "%d regressed, unresolved or differing rows" % bad))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

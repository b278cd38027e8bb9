#!/usr/bin/env python3
"""Paired A/B run of the benchmark: a parent commit against a change.

    python3 tools/bench_ab.py PARENT CHANGE [--workloads a,b,...] [--seeds 1-10]
                              [--seconds 15] [--workdir DIR]

Exports both commits with `git archive` into DIR (default: a new temporary
directory, outside the repository), and refuses to run when `benchmark/` or
`BENCHMARK.json` differ between them: the instrument must be the same on both
sides. Builds each side with its own `benchmark/run.py` into its own
CARGO_TARGET_DIR, then runs every (seed, workload) pair untraced, one run per
side, alternating which side goes first from one pair to the next.

Writes both result sets (DIR/parent.json and DIR/change.json, in the format of
`benchmark/run.py --out`), runs `benchmark/compare.py` on them and exits with
its status. Also writes BENCH_<change>.json at the repository root: per workload
and end-to-end metric, each side's median and quartiles, the pairs the change
won and compare.py's verdict. Commit that file as the change's ledger entry.
compare.py judges every workload of BENCHMARK.json, so with --workloads it
reports the others unresolved and exits nonzero.

Both commits must be committed: uncommitted edits are not exported.
"""

import argparse
import importlib.util
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True, stdout=subprocess.PIPE,
                          text=True).stdout.strip()


def load_module(path, name):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def export(sha, tree):
    tree.mkdir(parents=True)
    archive = subprocess.Popen(["git", "archive", sha], cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(tree)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        sys.exit("git archive %s failed" % sha)


def build(tree, target_dir, name):
    """Builds one side with its own benchmark/run.py; returns (module, binary)."""
    os.environ["CARGO_TARGET_DIR"] = str(target_dir)
    run = load_module(tree / "benchmark" / "run.py", name)
    print("building %s in %s" % (name, target_dir), flush=True)
    return run, run.build()


def quartiles(values):
    if len(values) < 2:
        return {"median": values[0] if values else None, "q1": None, "q3": None}
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3}


def ledger(spec, compare, sets, shas, seeds, seconds):
    """The BENCH_<change>.json entry: medians, quartiles, pairs won and verdicts."""
    workloads = {}
    for workload in sorted({r["workload"] for r in sets["parent"]["records"]}):
        a_runs = compare.runs(sets["parent"], workload)
        b_runs = compare.runs(sets["change"], workload)
        rows = {}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            higher = metric["better"] == "higher"
            sides = {}
            for side, side_runs in (("parent", a_runs), ("change", b_runs)):
                sides[side] = quartiles([r["end_to_end"][name]["value"]
                                         for r in side_runs.values()
                                         if name in r["end_to_end"]])
            pairs = [(a_runs[s]["end_to_end"][name]["value"],
                      b_runs[s]["end_to_end"][name]["value"])
                     for s in a_runs if s in b_runs]
            won = sum((b > a) if higher else (b < a) for a, b in pairs)
            rows[name] = dict(sides, pairs=len(pairs), pairs_won=won,
                              verdict=compare.verdict(metric, a_runs, b_runs)[1])
        workloads[workload] = rows
    same, differ = compare.exact_rows(sets["parent"], sets["change"])
    outputs = {w: ("differ at seeds %s" % sorted(set(differ[w])) if w in differ
                   else "identical in %d runs" % len(same.get(w, [])))
               for w in workloads}
    host = {k: v for k, v in sets["change"]["stamp"].items()
            if k not in ("git_sha", "git_dirty")}
    return {"parent": shas["parent"], "change": shas["change"], "seeds": seeds,
            "seconds": seconds, "host": host, "metrics": workloads,
            "simulated_outputs": outputs}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workloads", help="comma-separated (default: every workload)")
    parser.add_argument("--seeds", default="1-10", help="A-B or A,B,... (default 1-10)")
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--workdir", help="where to export and build (default: a new "
                                          "temporary directory)")
    args = parser.parse_args()

    shas = {"parent": git("rev-parse", "--verify", args.parent + "^{commit}"),
            "change": git("rev-parse", "--verify", args.change + "^{commit}")}
    instrument = subprocess.run(["git", "diff", "--quiet", shas["parent"], shas["change"],
                                 "--", "benchmark", "BENCHMARK.json"], cwd=ROOT)
    if instrument.returncode != 0:
        sys.stderr.write("refusing to run: benchmark/ or BENCHMARK.json differ between "
                         "%s and %s\n" % (args.parent, args.change))
        return 2

    workdir = Path(args.workdir) if args.workdir else Path(tempfile.mkdtemp(prefix="bench_ab-"))
    workdir = workdir.resolve()
    if workdir == ROOT or ROOT in workdir.parents:
        sys.stderr.write("refusing to run: --workdir must lie outside the repository\n")
        return 2
    sides = {}
    for side in ("parent", "change"):
        tree = workdir / side
        export(shas[side], tree)
        sides[side] = build(tree, workdir / ("build-" + side), "run_" + side)
    run, _ = sides["parent"]
    spec = json.loads((workdir / "parent" / "BENCHMARK.json").read_text())
    compare = load_module(workdir / "parent" / "benchmark" / "compare.py", "compare")

    names = [w["name"] for w in spec["workloads"]]
    workloads = args.workloads.split(",") if args.workloads else names
    unknown = [w for w in workloads if w not in names]
    if unknown:
        parser.error("unknown workload(s) %s (known: %s)" % (", ".join(unknown), ", ".join(names)))
    seeds = run.parse_seeds(args.seeds)

    records = {"parent": [], "change": []}
    started = time.time()
    pair = 0
    for seed in seeds:
        for workload in workloads:
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                module, binary = sides[side]
                record = module.run_one(binary, workload, seed, args.seconds, False)
                module.check_record(spec, record)
                records[side].append(record)
                value = record["end_to_end"].get("host_cycles_per_instr", {}).get("value")
                print("%-16s seed %-3d %-6s %s (%.0f s elapsed)"
                      % (workload, seed, side,
                         "%.3f cycles/instr" % value if record["correct"] and value
                         else "FAILED: " + "; ".join(record["failures"]),
                         time.time() - started), flush=True)
            pair += 1

    sets = {}
    for side in ("parent", "change"):
        os.environ["CARGO_TARGET_DIR"] = str(workdir / ("build-" + side))
        stamp = sides[side][0].stamp()
        stamp.update(git_sha=shas[side], git_dirty=False)
        sets[side] = {"stamp": stamp, "seconds": args.seconds, "smoke": False,
                      "records": records[side]}
        path = workdir / (side + ".json")
        lines = ",\n".join(json.dumps(r, sort_keys=True) for r in records[side])
        header = json.dumps({k: v for k, v in sets[side].items() if k != "records"},
                            sort_keys=True)
        path.write_text(header[:-1] + ', "records": [\n' + lines + "\n]}\n")
        print("wrote %s" % path)

    entry = ROOT / ("BENCH_%s.json" % git("rev-parse", "--short=7", shas["change"]))
    entry.write_text(json.dumps(ledger(spec, compare, sets, shas, seeds, args.seconds),
                                indent=1, sort_keys=True) + "\n")
    print("wrote %s\n" % entry, flush=True)
    return subprocess.run([sys.executable, str(workdir / "parent" / "benchmark" / "compare.py"),
                           str(workdir / "parent.json"), str(workdir / "change.json")]).returncode


if __name__ == "__main__":
    sys.exit(main())

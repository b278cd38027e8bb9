#!/usr/bin/env python3
"""The repository's benchmark: builds benchmark/ (Release) and runs its workloads.

One run (the form the metric contract in BENCHMARK.json is checked with):
    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1
  The last line of standard output is one JSON object with the keys correct,
  attempted, failed and metrics: every end_to_end metric of BENCHMARK.json
  with --trace 0, every per_layer metric with --trace 1.

The suite (the one command):
    python3 benchmark/run.py [--seed N] [--seconds S] [--smoke]
  Runs every workload untraced, then traced, prints every metric by name with
  its unit, checks that both passes computed bit-identical simulated outputs,
  and exits nonzero on any failed check. --smoke runs ~1/50 of the work:
  a quick correctness check, never numbers.

A result set (ledger entry) for compare.py:
    python3 benchmark/run.py --seeds 1-10 --out benchmark/results/NAME.json
  Runs every workload on every seed, both passes, and writes every record
  stamped with the commit, host and build.

Run from the repository root. Builds into $CARGO_TARGET_DIR (default
.bench_build); traced runs write Chrome trace-event JSON under its traces/.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
RUN_TIMEOUT_S = 170


def build_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return path if path.is_absolute() else ROOT / path


def build():
    """Configures (once) and builds the benchmark binary; returns its path."""
    out = build_dir() / "cmake"
    out.mkdir(parents=True, exist_ok=True)
    log_path = build_dir() / "build.log"
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not (out / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(ROOT / "benchmark"), "-B", str(out),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", str(out), "--target", "vfm_benchmark", "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                log.flush()
                sys.stderr.write(Path(log_path).read_text()[-4000:])
                sys.stderr.write("\nbenchmark build failed (log: %s)\n" % log_path)
                sys.exit(1)
    return out / "vfm_benchmark"


def run_one(binary, workload, seed, seconds, traced, smoke=False):
    """Runs one workload in its own process; returns its full JSON record."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--trace", "1" if traced else "0"]
    if traced:
        traces = build_dir() / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        trace = traces / ("%s-seed%d.json" % (workload, seed))
        cmd += ["--trace-out", os.path.relpath(trace)]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        return failed_record(workload, seed, traced, "timed out after %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, ValueError):
        return failed_record(workload, seed, traced,
                             "no result (exit code %d)" % proc.returncode)
    if proc.returncode != 0 and record.get("correct"):
        record["correct"] = False
        record["failures"].append("exit code %d" % proc.returncode)
    return record


def failed_record(workload, seed, traced, why):
    return {"workload": workload, "seed": seed, "traced": traced, "correct": False,
            "attempted": 1, "failed": 1, "failures": [why], "end_to_end": {},
            "per_layer": {}, "exact": {}, "signature": "", "samples": {}}


def check_record(spec, record):
    """Adds a failure for every contract metric missing, or an end-to-end one not positive."""
    section, names = (("per_layer", spec["per_layer"]) if record["traced"]
                      else ("end_to_end", spec["end_to_end"]))
    for metric in names:
        got = record[section].get(metric["name"])
        if got is None or got["value"] is None:
            record["failures"].append("missing metric " + metric["name"])
        elif section == "end_to_end" and not got["value"] > 0:
            record["failures"].append("metric %s is not positive" % metric["name"])
        elif got["unit"] != metric["unit"]:
            record["failures"].append("metric %s has unit %s" % (metric["name"], got["unit"]))
    if record["failures"] and record["correct"]:
        record["correct"] = False
        record["failed"] = max(record["failed"], 1)


def contract_line(spec, record):
    section, names = (("per_layer", spec["per_layer"]) if record["traced"]
                      else ("end_to_end", spec["end_to_end"]))
    metrics = {}
    for metric in names:
        got = record[section].get(metric["name"])
        if got is not None:
            metrics[metric["name"]] = {"value": got["value"], "unit": got["unit"]}
    return {"correct": bool(record["correct"]), "attempted": max(1, int(record["attempted"])),
            "failed": int(record["failed"]), "metrics": metrics}


def compare_passes(untraced, traced):
    """Failures where two runs of one (workload, seed) disagree on simulated outputs."""
    if not (untraced["correct"] and traced["correct"]):
        return []
    if untraced["signature"] != traced["signature"] or untraced["exact"] != traced["exact"]:
        return ["%s seed %d: traced and untraced passes computed different simulated outputs"
                % (untraced["workload"], untraced["seed"])]
    return []


def host_coverage(traced):
    layers = traced["per_layer"]
    return sum(layers[k]["value"] for k in
               ("world.host_share.os", "world.host_share.firmware", "core.host_share"))


def suite_checks(untraced, traced):
    failures = compare_passes(untraced, traced)
    # The traced pass must account for the monitored single-hart runs' host time.
    if traced["correct"] and traced["workload"].startswith("redis-"):
        coverage = host_coverage(traced)
        if coverage < 0.9:
            failures.append("%s: world + monitor host shares cover only %.1f%% of host time"
                            % (traced["workload"], 100 * coverage))
    return failures


def print_pass(spec, untraced, traced):
    w = untraced["workload"]
    print("\n== %s (seed %d) ==" % (w, untraced["seed"]))
    for rec in (untraced, traced):
        if not rec["correct"]:
            print("  %s pass FAILED: %s" % ("traced" if rec["traced"] else "untraced",
                                            "; ".join(rec["failures"])))
    samples = ", ".join("%s=%d" % kv for kv in untraced["samples"].items())
    bounded = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print("  end to end (untraced; %s):" % samples)
    for name, got in untraced["end_to_end"].items():
        bound = ("bound %g" % bounded[name]) if name in bounded else "unbounded"
        print("    %-28s %14.4f %-13s %s" % (name, got["value"], got["unit"], bound))
    print("  simulated outputs (exact): %s  signature %s"
          % (", ".join("%s=%.17g" % kv for kv in untraced["exact"].items()),
             untraced.get("signature", "")))
    print("  per layer (traced):")
    for m in spec["per_layer"]:
        got = traced["per_layer"].get(m["name"])
        if got and got["value"]:
            print("    %-34s %14.6g %s" % (m["name"], got["value"], got["unit"]))
    if traced["correct"] and untraced["correct"]:
        base = untraced["end_to_end"]["guest_mips"]["value"]
        traced_mips = traced["per_layer"]["trace.guest_mips"]["value"]
        print("  tracing overhead: %.1f%% across passes, %.1f%% within the traced run"
              % (100 * (1 - traced_mips / base),
                 100 * traced["per_layer"]["trace.overhead_share"]["value"]))
    if traced.get("trace_file"):
        print("  trace: %s" % traced["trace_file"])


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def stamp():
    """Where a result set was measured: commit, host and build."""
    def command(args):
        try:
            return subprocess.run(args, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL, text=True).stdout.strip()
        except OSError:
            return ""
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    cache = build_dir() / "cmake" / "CMakeCache.txt"
    compiler, build_type = "", ""
    if cache.exists():
        for line in cache.read_text().splitlines():
            if line.startswith("CMAKE_CXX_COMPILER:"):
                compiler = line.split("=", 1)[1]
            elif line.startswith("CMAKE_BUILD_TYPE:"):
                build_type = line.split("=", 1)[1]
    version = command([compiler, "--version"]).splitlines() if compiler else []
    return {"git_sha": command(["git", "rev-parse", "HEAD"]) or "unknown",
            "git_dirty": bool(command(["git", "status", "--porcelain"])),
            "nproc": os.cpu_count(), "cpu_model": cpu,
            "compiler": version[0] if version else compiler, "build_type": build_type,
            "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}


def spread_table(spec, records):
    """Median and quartile spread of each end-to-end metric over a set's untraced runs."""
    rows = []
    for workload in sorted({r["workload"] for r in records}):
        runs = [r for r in records if r["workload"] == workload and not r["traced"]]
        for m in spec["end_to_end"]:
            values = [r["end_to_end"][m["name"]]["value"] for r in runs
                      if r["correct"] and m["name"] in r["end_to_end"]]
            if len(values) < 2:
                continue
            q1, med, q3 = statistics.quantiles(values, n=4)
            rows.append((workload, m["name"], med, (q3 - q1) / med, m["bound"]))
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seeds", help="result-set mode: seeds as A-B or A,B,...")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", help="result-set mode: where to write the set")
    args = parser.parse_args()

    spec = json.loads(SPEC_PATH.read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if args.smoke and args.seconds is None:
        seconds = 0.05
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in workloads:
        parser.error("unknown workload %s (known: %s)" % (args.workload, ", ".join(workloads)))
    binary = build()

    if args.workload is not None:
        record = run_one(binary, args.workload, args.seed, seconds, bool(args.trace), args.smoke)
        check_record(spec, record)
        print(json.dumps(record, sort_keys=True))
        print(json.dumps(contract_line(spec, record)))
        return 0 if record["correct"] else 1

    seeds = parse_seeds(args.seeds) if args.seeds else [args.seed]
    records, failures = [], []
    started = time.time()
    for seed in seeds:
        for workload in workloads:
            pair = [run_one(binary, workload, seed, seconds, traced, args.smoke)
                    for traced in (False, True)]
            for rec in pair:
                check_record(spec, rec)
                failures += ["%s seed %d %s: %s" % (workload, seed,
                                                    "traced" if rec["traced"] else "untraced", f)
                             for f in rec["failures"]]
            failures += suite_checks(*pair)
            records += pair
            if args.seeds:
                print("%s seed %d: %s (%.0f s elapsed)"
                      % (workload, seed, "ok" if all(r["correct"] for r in pair) else "FAILED",
                         time.time() - started), flush=True)
            else:
                print_pass(spec, *pair)
    if args.seeds:
        print("\n%-16s %-22s %14s %9s %7s" % ("workload", "metric", "median", "spread", "bound"))
        for workload, name, med, spread, bound in spread_table(spec, records):
            print("%-16s %-22s %14.4f %8.2f%% %6.0f%%" % (workload, name, med, 100 * spread,
                                                         100 * bound))
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        # One record per line keeps a ledger entry small and diffable.
        header = json.dumps({"stamp": stamp(), "seconds": seconds, "smoke": args.smoke},
                            sort_keys=True)
        lines = ",\n".join(json.dumps(r, sort_keys=True) for r in records)
        out.write_text(header[:-1] + ', "records": [\n' + lines + "\n]}\n")
        print("wrote %s" % out)
    print("\n%d runs in %.0f s: %s" % (len(records), time.time() - started,
                                        "all checks passed" if not failures else
                                        "%d FAILED checks" % len(failures)))
    for f in failures:
        print("  FAILED: " + f)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

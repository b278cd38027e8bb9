#!/usr/bin/env python3
"""Mutant catalogue: every committed fault must still be caught by its test.

    python3 tools/mutants.py [--workdir DIR] [NAME ...]

Each tests/mutants/<name>.patch injects one fault that a named test must catch.
The text before its diff says what the fault is, where it comes from, and holds
one line

    Kill: <test binary> <gtest case>

naming the ctest binary and the case in it that must fail once the patch is in.

The script exports HEAD (committed files only) with `git archive` into DIR
(default: a temporary directory, removed on exit; a given DIR must lie outside
the repository and is kept) and configures one Release build there. It checks
that every named case passes on the unpatched tree, then takes one patch at a
time: applies it, rebuilds the binary (make rebuilds only what the patch
touches), runs the case and reverts the patch. A mutant is killed when its case
fails; it survives when the case passes or no longer exists. NAMEs pick patches
by file stem (default: every patch).

Exit status: 0 when every mutant is killed, 1 when one survives, a patch no
longer applies or a patched tree does not build, 2 on a usage or setup error.
"""

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CATALOGUE = ROOT / "tests" / "mutants"


def kill_line(patch):
    """The (binary, case) of the patch's Kill: line."""
    header = patch.read_text().split("\ndiff --git ", 1)[0]
    for line in header.splitlines():
        if line.startswith("Kill:"):
            fields = line.split()
            if len(fields) == 3:
                return fields[1], fields[2]
    sys.exit("%s: no 'Kill: <test binary> <gtest case>' line" % patch.name)


def export(tree):
    tree.mkdir(parents=True)
    archive = subprocess.Popen(["git", "archive", "HEAD"], cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(tree)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        sys.exit("git archive HEAD failed")


def quiet(cmd, cwd):
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True)


def build(tree, binary):
    result = quiet(["cmake", "--build", str(tree / "build"), "--target", binary,
                    "-j", str(os.cpu_count() or 2)], tree)
    if result.returncode != 0:
        sys.stdout.write(result.stdout[-4000:])
    return result.returncode == 0


def run_case(tree, binary, case):
    """'passed', 'failed', or 'missing' (the filter matched no test)."""
    result = quiet([str(tree / "build" / "tests" / binary), "--gtest_filter=" + case], tree)
    if "[==========] 1 test from" not in result.stdout:
        return "missing"
    return "passed" if result.returncode == 0 else "failed"


def apply(tree, patch, reverse=False):
    cmd = ["git", "apply"] + (["--reverse"] if reverse else []) + [str(patch)]
    check = quiet(cmd[:2] + ["--check"] + cmd[2:], tree)
    if check.returncode != 0:
        sys.stdout.write(check.stdout)
        return False
    return quiet(cmd, tree).returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("names", nargs="*", help="patch stems (default: every patch)")
    parser.add_argument("--workdir", help="where to export and build (default: a "
                                          "temporary directory, removed on exit)")
    args = parser.parse_args()

    patches = sorted(CATALOGUE.glob("*.patch"))
    if args.names:
        patches = [p for p in patches if p.stem in args.names]
        if len(patches) != len(set(args.names)):
            sys.stderr.write("unknown mutant among %s\n" % " ".join(args.names))
            return 2
    if not patches:
        sys.stderr.write("no mutants in %s\n" % CATALOGUE)
        return 2
    kills = {patch: kill_line(patch) for patch in patches}

    if not args.workdir:
        with tempfile.TemporaryDirectory(prefix="mutants-") as workdir:
            return mutate(Path(workdir), kills)
    workdir = Path(args.workdir).resolve()
    if workdir == ROOT or ROOT in workdir.parents:
        sys.stderr.write("refusing to run: --workdir must lie outside the repository\n")
        return 2
    return mutate(workdir, kills)


def mutate(workdir, kills):
    """Exports and builds HEAD under `workdir`, then runs every mutant in `kills`."""
    tree = workdir / "tree"
    export(tree)
    configure = quiet(["cmake", "-S", str(tree), "-B", str(tree / "build"),
                       "-DCMAKE_BUILD_TYPE=Release"], tree)
    if configure.returncode != 0:
        sys.stdout.write(configure.stdout)
        return 2

    # Every killing case must pass on the unpatched tree, or a failure would not
    # be the mutant's doing.
    for binary, case in sorted(set(kills.values())):
        if not build(tree, binary):
            sys.stderr.write("the unpatched tree does not build %s\n" % binary)
            return 2
        if run_case(tree, binary, case) == "failed":
            sys.stderr.write("%s %s fails on the unpatched tree\n" % (binary, case))
            return 2

    bad = 0
    for patch, (binary, case) in kills.items():
        if not apply(tree, patch):
            print("%-32s NO LONGER APPLIES" % patch.stem, flush=True)
            bad += 1
            continue
        if not build(tree, binary):
            verdict = "DOES NOT BUILD"
        else:
            verdict = {"failed": "killed by %s %s",
                       "passed": "SURVIVED %s %s",
                       "missing": "SURVIVED: %s has no case %s"}[
                           run_case(tree, binary, case)] % (binary, case)
        print("%-32s %s" % (patch.stem, verdict), flush=True)
        bad += not verdict.startswith("killed")
        if not apply(tree, patch, reverse=True):
            sys.stderr.write("could not revert %s\n" % patch.name)
            return 2
    print("%d of %d mutants killed" % (len(kills) - bad, len(kills)))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

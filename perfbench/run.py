#!/usr/bin/env python3
"""Builds and runs the end-to-end edit-and-rerun benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload census_edit --seed 1 --seconds 20 --trace 0

The first run configures and builds perfbench/ (the library sources plus
helix_bench.cc) into .bench_build/perfbench; later runs only rebuild what
changed. The benchmark binary then runs the workload for --seconds and
prints a human-readable report, one metadata JSON line and, as the last
line, the result object {"correct", "attempted", "failed", "metrics"}.
--trace 1 switches to the traced run, whose metrics are the per-layer
ones; it also writes a Chrome trace-event file under .bench_build/results.

Exit status is 0 only when every iteration ran and every output matched.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("census_edit", "ie_edit", "service_refresh")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    return 2


def run_checked(cmd, timeout):
    """Runs cmd with its output on stderr; returns True on exit code 0."""
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr)
    try:
        return proc.wait(timeout=timeout) == 0
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        return False


def build(root, build_dir):
    binary = os.path.join(build_dir, "helix_perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        if not run_checked(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                            "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S):
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    if not run_checked(["cmake", "--build", build_dir, "-j", jobs],
                       BUILD_TIMEOUT_S):
        return None
    return binary if os.path.isfile(binary) else None


def source_digest(root):
    """Content digest of src/ and perfbench/ (the checkout has no git)."""
    digest = hashlib.sha1()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def git_commit(root):
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "core", "session.h")):
        return fail("no library sources under ./src; run from the "
                    "repository root")
    bench_root = os.path.join(root, ".bench_build")
    binary = build(root, os.path.join(bench_root, "perfbench"))
    if binary is None:
        return fail("build failed")

    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    work_dir = os.path.join(bench_root, "work", "%s-%d" % (tag, os.getpid()))
    out_dir = os.path.join(bench_root, "results")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir, "--out-dir", out_dir,
           "--expected", os.path.join(BENCH_DIR, "expected_outputs.txt")]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return fail("benchmark exceeded %d s" % RUN_TIMEOUT_S)

    lines = stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        meta = json.loads(lines[-2])["meta"]
    except (ValueError, KeyError, IndexError):
        sys.stdout.write(stdout)
        return fail("benchmark printed no result (exit %d)" % proc.returncode)
    meta["commit"] = git_commit(root)
    meta["source_digest"] = source_digest(root)
    for line in lines[:-2]:
        print(line)
    print(json.dumps({"meta": meta}, sort_keys=True))
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, tag + ".json"), "w") as f:
        json.dump({"meta": meta, "result": result}, f, indent=1,
                  sort_keys=True)
    print(json.dumps(result))
    if proc.returncode != 0 or not result.get("correct"):
        print("perfbench: outputs incorrect or iterations failed",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

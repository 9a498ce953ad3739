#!/usr/bin/env python3
"""Receive-path benchmark: build, run one workload, check the result.

Run from the repository root:

    python3 rxbench/run.py --workload oltp|bulk|churn --seed N \\
        --seconds S --trace 0|1
    python3 rxbench/run.py --self-test

The first call configures and builds rxbench/ (which compiles ../src) into
.bench_build/rxbench with CMake, Release. --trace 0 runs the timed binary
and prints the end-to-end metrics; --trace 1 runs the traced binary and
prints the per-layer metrics, writing the frame spans to
.bench_build/spans-<workload>.tsv. The last line of stdout is the result
object {"correct", "attempted", "failed", "metrics"}; the line before it
holds the provenance (commit, compiler, flags, nproc, date, seed, sample
counts). The exit status is non-zero if any output check failed.

--self-test checks the benchmark itself: two runs of one seed give the
same frame-stream fingerprint and the same exact counts, another seed
gives another stream, and a frame with a corrupted checksum is reported
as failed.
"""

import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "rxbench")
WORKLOADS = ("oltp", "bulk", "churn")
RUN_TIMEOUT_S = 170


def log(msg):
    print("rxbench: " + msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds both binaries; build output to stderr."""
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=sys.stderr, check=True)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                       stdout=sys.stderr, check=True)


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def source_digest():
    """sha256 over src/: identifies the code when there is no git."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, files in os.walk(src):
        dirnames.sort()
        for name in sorted(files):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, ROOT).encode() + b"\0")
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def run_binary(workload, seed, seconds, trace, extra=()):
    """Runs one benchmark process; returns (exit code, stdout lines)."""
    exe = os.path.join(BUILD, "rxbench_traced" if trace else "rxbench")
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--commit", commit(), "--source-digest", source_digest()]
    if trace:
        cmd += ["--spans-out", os.path.join(ROOT, ".bench_build",
                                            "spans-%s.tsv" % workload)]
    cmd += list(extra)
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    return proc.returncode, proc.stdout.splitlines()


def parse_result(lines):
    """The last line as a result object, or None if it is not one."""
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None
    keys = {"correct", "attempted", "failed", "metrics"}
    return result if isinstance(result, dict) and set(result) == keys else None


def parse_provenance(lines):
    for line in lines:
        if line.startswith('{"provenance"'):
            return json.loads(line)["provenance"]
    return None


def self_test():
    failures = []

    def check(ok, what):
        print("%s  %s" % ("ok  " if ok else "FAIL", what), flush=True)
        if not ok:
            failures.append(what)

    frames = ["--frames", "20000"]
    for workload in WORKLOADS:
        runs = []
        for seed in (7, 7, 8):
            code, lines = run_binary(workload, seed, 5, True, frames)
            runs.append((code, parse_provenance(lines), parse_result(lines)))
        (c1, p1, r1), (c2, p2, r2), (_, p3, _) = runs
        check(c1 == 0 and c2 == 0 and r1 and r1["correct"] and r2 and
              r2["correct"], "%s: runs pass their output checks" % workload)
        check(p1 and p2 and p1["fingerprint_all"] == p2["fingerprint_all"],
              "%s: one seed, one frame stream (fingerprint)" % workload)
        check(p1 and p2 and p1["exact"] == p2["exact"],
              "%s: one seed, identical exact counts %s" %
              (workload, p1 and p1["exact"]))
        check(p1 and p3 and p1["fingerprint"] != p3["fingerprint"],
              "%s: another seed, another frame stream" % workload)

    code, lines = run_binary("bulk", 7, 5, False,
                             frames + ["--corrupt-frame", "1000"])
    result = parse_result(lines)
    check(code != 0 and result is not None and not result["correct"] and
          result["failed"] >= 1,
          "a corrupt-checksum frame is reported as failed (exit %d, %s)" %
          (code, result and {"failed": result["failed"]}))
    print("self-test: %s" % ("FAILED" if failures else "passed"))
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "tcp", "host.h")):
        log("no tcpdemux sources under %s; run from a full checkout" % ROOT)
        return 2
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        log("build failed: %s" % e)
        return 2
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")

    try:
        code, lines = run_binary(args.workload, args.seed, args.seconds,
                                 args.trace == 1)
    except subprocess.TimeoutExpired:
        log("benchmark did not finish within %d s" % RUN_TIMEOUT_S)
        return 3
    if parse_result(lines) is None:
        print("\n".join(lines), file=sys.stderr)
        log("benchmark printed no result (exit %d)" % code)
        return code or 3
    print("\n".join(lines), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())

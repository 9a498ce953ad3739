#!/usr/bin/env python3
"""Gate on the receive-path benchmark's exact counts (ci/check.sh stage 13).

Reads the stdout of traced rxbench runs (`rxbench_traced --workload W
--seed S --frames F --trace 1`) and compares each run's provenance `exact`
object — PCBs examined, cache hits, the replay's examined count,
transmitted segments, allocations — with the pin for its workload in
ci/rxbench_exact.json. A fixed seed and frame count give one frame
stream, so these counts move only when the program's behaviour does: a
change to chain order, caching, hashing or the TCP path. Such a change
re-records the pin on purpose; every other change must leave it alone.

Each run must also use the pin's seed and frame count and be traced, so
a count is never compared with one from another stream. Stdlib only.

Usage: check_rxbench_exact.py <rxbench_exact.json> <run stdout>...
"""
import json
import sys


def provenance(path):
    with open(path) as f:
        for line in f:
            if line.startswith('{"provenance"'):
                return json.loads(line)["provenance"]
    return None


def check_run(path, pin, failures):
    prov = provenance(path)
    if prov is None:
        failures.append("%s: no provenance line" % path)
        return
    workload = prov.get("workload")
    run = pin["run"]
    if workload not in pin["exact"]:
        failures.append("%s: no pin for workload %r" % (path, workload))
        return
    got = prov.get("exact", {})
    # A traced run looks up each of its --frames frames once.
    frames = got.get("lookups")
    if (prov.get("seed") != run["seed"] or frames != run["frames"] or
            prov.get("trace") != run["trace"]):
        failures.append(
            "%s: run is seed %s, %s frames, trace %s; the pin is seed %s, "
            "%s frames, trace %s" %
            (workload, prov.get("seed"), frames, prov.get("trace"),
             run["seed"], run["frames"], run["trace"]))
        return
    want = pin["exact"][workload]
    wrong = [key for key in sorted(set(want) | set(got))
             if got.get(key) != want.get(key)]
    for key in wrong:
        failures.append("%s: %s is %s, pinned %s" %
                        (workload, key, got.get(key), want.get(key)))
    if not wrong:
        print("ok    %s: %d exact counts match the pin" %
              (workload, len(want)))


def main():
    if len(sys.argv) < 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(sys.argv[1]) as f:
        pin = json.load(f)
    failures = []
    for path in sys.argv[2:]:
        check_run(path, pin, failures)
    for failure in failures:
        print("FAIL  " + failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

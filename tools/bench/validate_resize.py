#!/usr/bin/env python3
"""Gate on the bounded-relink resize claim (ci/check.sh stage 11).

Reads a wallclock_resize --json export and asserts, for every
(backend, users, thp) cell:

  1. bounded drain steps: the most entries any single drain step moved
     (`resize_work_max`, the exact max of the telemetry `resize_work`
     histogram) is at most `migrate_batch` (core::kMigrateBatch, exported
     beside it). The bench only grows its tables, so no drain is ever
     force-finished and every step is a bounded batch; a doubling drained
     in one sweep at the trigger reports the whole table here.
  2. p99 flatness: the growth-phase lookup p99 stays within
     P99_GROWTH_FACTOR of the cell's own steady-state p99 — the "latency
     stays flat through the doubling" acceptance criterion.
  3. growth happened: `resizes` is non-zero, so checks 1 and 2 measured a
     doubling and not a table that never grew.

Check 2's threshold is deliberately loose enough for a 1-core CI
container; the full-size (--sizes 2m) margins recorded in EXPERIMENTS.md
are far wider. Check 1 is exact. Stdlib only.

Usage: validate_resize.py <wallclock_resize.json>
"""
import json
import sys

P99_GROWTH_FACTOR = 3.0


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(sys.argv[1]) as f:
        records = [r for r in json.load(f)
                   if r.get("bench") == "wallclock_resize"]
    if not records:
        print("no wallclock_resize records in export", file=sys.stderr)
        return 1

    failures = []
    for r in sorted(records, key=lambda r: (r["name"], r["metrics"]["users"],
                                            r["metrics"]["thp_disabled"])):
        m = r["metrics"]
        label = (f"{r['name']} users={int(m['users'])} "
                 f"thp_disabled={int(m['thp_disabled'])}")

        resizes = int(m["resizes"])
        if resizes == 0:
            failures.append(f"{label}: no doubling ran (resizes == 0)")

        work_max = int(m["resize_work_max"])
        batch = int(m["migrate_batch"])
        if work_max > batch:
            failures.append(
                f"{label}: a drain step moved {work_max} entries, more than "
                f"the {batch}-entry batch bound")

        steady = m["steady_p99_ns"]
        growth = m["growth_lookup_p99_ns"]
        if steady > 0 and growth > P99_GROWTH_FACTOR * steady:
            failures.append(
                f"{label}: growth-phase lookup p99 {growth:.0f} ns exceeds "
                f"{P99_GROWTH_FACTOR}x steady-state p99 {steady:.0f} ns")

    for f_ in failures:
        print(f"FAIL: {f_}", file=sys.stderr)
    if not failures:
        print(f"validate_resize: {len(records)} cells OK "
              f"(drain step <= migrate_batch entries, "
              f"growth p99 <= {P99_GROWTH_FACTOR}x steady, "
              f"non-zero resizes)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Gate on the bounded-pause resize claim (ci/check.sh stage 12).

Reads a wallclock_resize --json export and asserts, for every
(backend, users, thp) cell that has both a baseline and an incremental
row:

  1. max-pause fraction: the incremental mode's worst single-operation
     pause is at most MAX_PAUSE_FRACTION of the stop-the-world baseline's
     worst pause. The incremental spike is the one-time doubled-array
     allocation (O(alloc)); the baseline additionally re-places every
     entry, so the ratio must stay well under 1 even on a noisy shared
     host (the bench already reports min-over-rounds maxima to shed
     scheduler jitter).
  2. p99 flatness: the incremental mode's growth-phase lookup p99 stays
     within P99_GROWTH_FACTOR of its own steady-state p99 — the
     "latency stays flat through the doubling" acceptance criterion.
  3. one ledger: both rows report the same non-zero `resizes` count.
     The two modes share one resize engine and differ only in when the
     outgoing table drains, so each doubling must count exactly once in
     either mode.

Both thresholds are deliberately loose enough for a 1-core CI container;
the full-size (--sizes 2m) margins recorded in EXPERIMENTS.md are far
wider. Stdlib only.

Usage: validate_resize.py <wallclock_resize.json>
"""
import json
import sys

MAX_PAUSE_FRACTION = 0.75
P99_GROWTH_FACTOR = 3.0
# Below this the baseline "spike" is itself timer-jitter-sized and the
# ratio is meaningless; a cell this small is a configuration error.
MIN_BASELINE_PAUSE_NS = 50_000.0


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

    cells = {}
    for r in records:
        m = r["metrics"]
        backend = r["name"].split("/")[0]
        key = (backend, int(m["users"]), int(m.get("thp_disabled", 0)))
        mode = "incremental" if m.get("incremental") else "baseline"
        cells.setdefault(key, {})[mode] = m

    failures = []
    checked = 0
    for key, modes in sorted(cells.items()):
        if "baseline" not in modes or "incremental" not in modes:
            failures.append(f"{key}: missing {'baseline' if 'baseline' not in modes else 'incremental'} row")
            continue
        base, incr = modes["baseline"], modes["incremental"]
        checked += 1
        label = f"{key[0]} users={key[1]} thp_disabled={key[2]}"

        base_resizes = int(base["resizes"])
        incr_resizes = int(incr["resizes"])
        if base_resizes == 0 or base_resizes != incr_resizes:
            failures.append(
                f"{label}: resizes differ or are zero (baseline "
                f"{base_resizes}, incremental {incr_resizes}) — each "
                f"doubling must count once in both modes")

        base_max = base["max_pause_ns"]
        incr_max = incr["max_pause_ns"]
        if base_max < MIN_BASELINE_PAUSE_NS:
            failures.append(
                f"{label}: baseline max pause {base_max:.0f} ns is below the "
                f"{MIN_BASELINE_PAUSE_NS:.0f} ns floor — cell too small to gate")
            continue
        ratio = incr_max / base_max
        if ratio > MAX_PAUSE_FRACTION:
            failures.append(
                f"{label}: incremental max pause {incr_max:.0f} ns is "
                f"{ratio:.2f}x the stop-the-world spike {base_max:.0f} ns "
                f"(limit {MAX_PAUSE_FRACTION})")

        steady = incr["steady_p99_ns"]
        growth = incr["growth_lookup_p99_ns"]
        if steady > 0 and growth > P99_GROWTH_FACTOR * steady:
            failures.append(
                f"{label}: incremental growth-phase lookup p99 {growth:.0f} ns "
                f"exceeds {P99_GROWTH_FACTOR}x steady-state p99 {steady:.0f} ns")

    for f_ in failures:
        print(f"FAIL: {f_}", file=sys.stderr)
    if not failures:
        print(f"validate_resize: {checked} cells OK "
              f"(max-pause fraction <= {MAX_PAUSE_FRACTION}, "
              f"growth p99 <= {P99_GROWTH_FACTOR}x steady, "
              f"equal non-zero resizes)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

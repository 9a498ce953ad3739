#!/usr/bin/env python3
"""Gate on the sharded receive path's claims (ci/check.sh stage 12).

Reads a wallclock_sharded --json export and asserts:

  1. Zero-miss invariants (hard, exact): the nic/churn row — a churn
     replay through a NIC whose indirection table was deliberately
     damaged — must report lost == 0 and duplicate_inserts == 0. Frames
     may be mis-steered and even dropped by the bounded handoff inbox,
     but no resident connection may vanish or double-insert. These are
     correctness counters, not timings, so no tolerance applies.
  2. Mis-steer telemetry sanity: the damaged table must actually
     mis-steer (missteer_rate strictly between 0 and 1), handoff depth
     must be positive, and peak occupancy skew >= 1 by construction.
  3. Head-to-head (loose): at the top thread count present, the sharded
     read path must not be slower than SLOWDOWN_FACTOR x the best
     shared-structure baseline (striped or RCU) at the same thread
     count. Sharding removes every atomic from the hot path, so it wins
     by a constant factor even when threads time-slice on a 1-core CI
     container; the factor-of-2 allowance absorbs scheduler noise, not
     an architectural regression.

Stdlib only.  Usage: validate_sharded.py <wallclock_sharded.json>
"""
import json
import sys

SLOWDOWN_FACTOR = 2.0


def fail(msg):
    print(f"validate_sharded: FAIL: {msg}", file=sys.stderr)
    return 1


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(sys.argv[1]) as f:
        records = [r for r in json.load(f)
                   if r.get("bench") == "wallclock_sharded"]
    if not records:
        return fail("no wallclock_sharded records in export")

    # --- 1 & 2: NIC telemetry row -----------------------------------
    nic = [r["metrics"] for r in records if r["name"] == "nic/churn"]
    if not nic:
        return fail("no nic/churn telemetry row")
    m = nic[0]
    if m["lost"] != 0:
        return fail(f"lost frames: {m['lost']} (want exactly 0)")
    if m["duplicate_inserts"] != 0:
        return fail(f"duplicate inserts: {m['duplicate_inserts']} "
                    "(want exactly 0)")
    if not 0.0 < m["missteer_rate"] < 1.0:
        return fail(f"missteer_rate {m['missteer_rate']} not in (0, 1); "
                    "the damaged-table scenario did not mis-steer")
    if m["max_handoff_depth"] <= 0:
        return fail("mis-steered run recorded no handoff depth")
    if m["peak_occ_skew"] < 1.0:
        return fail(f"peak_occ_skew {m['peak_occ_skew']} < 1")

    # --- 3: head-to-head at the top thread count --------------------
    def rows(prefix, writes):
        return [(int(r["metrics"]["threads"]), r["metrics"]["ns_per_op"])
                for r in records
                if r["name"].startswith(prefix)
                and int(r["metrics"]["writes_per_1024"]) == writes]

    for writes in (0, 64):
        sharded = dict(rows("sharded:", writes))
        striped = dict(rows("striped/", writes))
        rcu = dict(rows("rcu/", writes))
        if not (sharded and striped and rcu):
            return fail(f"missing scaling rows for writes={writes}")
        top = max(k for k in sharded if k in striped and k in rcu)
        best_shared = min(striped[top], rcu[top])
        if sharded[top] > SLOWDOWN_FACTOR * best_shared:
            return fail(
                f"writes={writes} threads={top}: sharded "
                f"{sharded[top]:.1f} ns/op vs best shared "
                f"{best_shared:.1f} ns/op exceeds {SLOWDOWN_FACTOR}x")
        print(f"validate_sharded: writes={writes} threads={top}: sharded "
              f"{sharded[top]:.1f} ns/op, striped {striped[top]:.1f}, "
              f"rcu {rcu[top]:.1f}")

    print(f"validate_sharded: OK "
          f"(missteer_rate={m['missteer_rate']:.4f}, "
          f"max_handoff_depth={int(m['max_handoff_depth'])}, "
          f"peak_occ_skew={m['peak_occ_skew']:.3f}, lost=0, dup=0)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

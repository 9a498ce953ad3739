#!/usr/bin/env bash
# Bench smoke: builds the wallclock suite, runs every binary in --smoke
# mode (minimum sizes, minimum reps — this checks "runs and emits sane
# records", not performance), and merges the per-binary JSON exports into
# one JSON array. Default output is BENCH_wallclock.json at the repo root;
# ci/check.sh overrides it into the build tree so smoke-sized numbers never
# clobber the checked-in full-size export.
#
# Usage: ci/bench_smoke.sh [jobs] [output.json]
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
JOBS="${1:-$(nproc)}"
OUT="${2:-$ROOT/BENCH_wallclock.json}"

BENCHES=(wallclock_hash wallclock_lookup wallclock_batch wallclock_parallel
         wallclock_attack)

cmake -B "$ROOT/build" -S "$ROOT" -DTCPDEMUX_WERROR=ON
cmake --build "$ROOT/build" -j "$JOBS" --target "${BENCHES[@]}"

TMPDIR_JSON="$(mktemp -d)"
trap 'rm -rf "$TMPDIR_JSON"' EXIT

for b in "${BENCHES[@]}"; do
  echo "== bench smoke: $b =="
  "$ROOT/build/bench/$b" --smoke --json "$TMPDIR_JSON/$b.json"
done

# --sizes suffix handling: "2k" must parse to a 2000-user row (the
# multi-million sweeps are spelled "--sizes 2m"; a regression here would
# silently bench the wrong population).
echo "== bench smoke: --sizes suffix parse =="
"$ROOT/build/bench/wallclock_lookup" --smoke --sizes 2k \
    --json "$TMPDIR_JSON/sizes_suffix.json"
python3 - "$TMPDIR_JSON/sizes_suffix.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    records = json.load(f)
users = {r["metrics"]["users"] for r in records
         if "users" in r.get("metrics", {})}
if users != {2000}:
    sys.exit(f"--sizes 2k parsed to populations {sorted(users)}, not 2000")
print("--sizes suffix parse OK")
EOF
rm -f "$TMPDIR_JSON/sizes_suffix.json"

# Each export is a JSON array; merge them into one array, then check the
# backend roster: every demuxer family the registry grew must show up in
# the merged export, or a bench spec list silently went stale.
python3 - "$OUT" "$TMPDIR_JSON"/*.json <<'EOF'
import json, sys
out, *parts = sys.argv[1:]
records = []
for p in parts:
    with open(p) as f:
        records.extend(json.load(f))
with open(out, "w") as f:
    json.dump(records, f, indent=1)
    f.write("\n")
print(f"merged {len(records)} records -> {out}")

families = {r["name"].split(":")[0] for r in records if "name" in r}
required = {"bsd", "dynamic", "sequent", "connection_id"}
missing = sorted(required - families)
if missing:
    sys.exit(f"bench export is missing backend families: {missing}")
hashes = {r["name"] for r in records if r.get("bench") == "wallclock_hash"}
if not any("crc32c" in h for h in hashes):
    sys.exit("wallclock_hash export has no crc32c row")
print(f"backend roster OK: {sorted(families)}")
EOF

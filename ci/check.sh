#!/usr/bin/env bash
# Staged correctness gate. Every stage is independently skippable so
# contributors without a sanitizer-capable toolchain can still run the
# tier-1 and lint stages.
#
#   stage 1  tier1   build + full ctest                 (SKIP_TIER1=1 skips)
#   stage 2  asan    ASan+UBSan rebuild, full ctest     (SKIP_ASAN=1 skips)
#   stage 3  tsan    TSan rebuild, `-L concurrency`     (SKIP_TSAN=1 skips)
#   stage 4  lint    repo lint ctest (`-L lint`)        (SKIP_LINT=1 skips)
#   stage 5  bench   wallclock suite --smoke + JSON     (SKIP_BENCH=1 skips)
#   stage 6  robust  `-L robustness` + fuzz soaks (alloc-
#                    failure, forced drain) + attack smoke (SKIP_ROBUSTNESS=1 skips)
#   stage 7  telem   telemetry replay smoke + schema    (SKIP_TELEMETRY=1 skips)
#   stage 8  scenario workload x demuxer matrix smoke   (SKIP_SCENARIO=1 skips)
#   stage 9  tsafety Clang -Wthread-safety build        (SKIP_THREAD_SAFETY=1 skips)
#   stage 10 tidy    clang-tidy over compile_commands   (SKIP_TIDY=1 skips)
#   stage 11 resize  wallclock_resize --smoke + bounded-drain
#                    assertion (validate_resize.py)     (SKIP_RESIZE=1 skips)
#   stage 12 sharded wallclock_sharded --smoke + zero-miss/scaling
#                    assertion (validate_sharded.py)    (SKIP_SHARDED=1 skips)
#   stage 13 rxbench receive-path benchmark --self-test + exact-count
#                    pin (check_rxbench_exact.py)       (SKIP_RXBENCH=1 skips)
#
# Stages 9 and 10 need LLVM tooling (clang++ / clang-tidy) and skip with a
# notice when it is not installed, so a GCC-only box still passes the gate.
#
# All builds use -DTCPDEMUX_WERROR=ON: a new warning fails the gate.
#
# Usage: ci/check.sh [jobs]      (default: nproc)
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
JOBS="${1:-$(nproc)}"

stage() { echo; echo "== stage $1: $2 =="; }
skipped() { echo; echo "== stage $1: skipped ($2=1) =="; }

if [[ "${SKIP_TIER1:-0}" != "1" ]]; then
  stage tier1 "build + full ctest"
  cmake -B "$ROOT/build" -S "$ROOT" -DTCPDEMUX_WERROR=ON
  cmake --build "$ROOT/build" -j "$JOBS"
  ctest --test-dir "$ROOT/build" --output-on-failure -j "$JOBS"
else
  skipped tier1 SKIP_TIER1
fi

if [[ "${SKIP_ASAN:-0}" != "1" ]]; then
  stage asan "rebuild under ASan+UBSan, full ctest (zero reports)"
  cmake -B "$ROOT/build-asan" -S "$ROOT" -DTCPDEMUX_WERROR=ON \
        -DTCPDEMUX_SANITIZE="address;undefined"
  cmake --build "$ROOT/build-asan" -j "$JOBS"
  ASAN_OPTIONS="detect_leaks=1 halt_on_error=1 ${ASAN_OPTIONS:-}" \
  UBSAN_OPTIONS="print_stacktrace=1 halt_on_error=1 ${UBSAN_OPTIONS:-}" \
    ctest --test-dir "$ROOT/build-asan" --output-on-failure -j "$JOBS"
else
  skipped asan SKIP_ASAN
fi

if [[ "${SKIP_TSAN:-0}" != "1" ]]; then
  stage tsan "rebuild under ThreadSanitizer, run -L concurrency"
  cmake -B "$ROOT/build-tsan" -S "$ROOT" -DTCPDEMUX_WERROR=ON \
        -DTCPDEMUX_SANITIZE=thread
  cmake --build "$ROOT/build-tsan" --target concurrency_tests -j "$JOBS"
  TSAN_OPTIONS="halt_on_error=1 abort_on_error=0 ${TSAN_OPTIONS:-}" \
    ctest --test-dir "$ROOT/build-tsan" -L concurrency --output-on-failure \
          -j "$JOBS"
else
  skipped tsan SKIP_TSAN
fi

if [[ "${SKIP_LINT:-0}" != "1" ]]; then
  stage lint "repo-specific lint (ctest -L lint) + findings export"
  if [[ ! -d "$ROOT/build" ]]; then
    cmake -B "$ROOT/build" -S "$ROOT" -DTCPDEMUX_WERROR=ON
  fi
  ctest --test-dir "$ROOT/build" -L lint --output-on-failure
  # Machine-readable export of the run that just gated (tcpdemux.lint.v1),
  # then validate the export itself so the schema stays a tested contract.
  python3 "$ROOT/tools/lint/check_lint.py" "$ROOT" \
      --json "$ROOT/build/lint_findings.json"
  python3 "$ROOT/tools/lint/validate_findings.py" \
      "$ROOT/build/lint_findings.json"
else
  skipped lint SKIP_LINT
fi

if [[ "${SKIP_BENCH:-0}" != "1" ]]; then
  stage bench "wallclock suite smoke run + merged JSON export"
  # Smoke output goes to the build tree: the checked-in BENCH_wallclock.json
  # holds full-size numbers and must not be clobbered by smoke-sized runs.
  "$ROOT/ci/bench_smoke.sh" "$JOBS" "$ROOT/build/BENCH_wallclock.smoke.json"
else
  skipped bench SKIP_BENCH
fi

if [[ "${SKIP_ROBUSTNESS:-0}" != "1" ]]; then
  stage robust "hostile-traffic suite (-L robustness) + attack bench smoke"
  if [[ ! -d "$ROOT/build" ]]; then
    cmake -B "$ROOT/build" -S "$ROOT" -DTCPDEMUX_WERROR=ON
  fi
  cmake --build "$ROOT/build" -j "$JOBS" \
        --target robustness_tests fuzz_ops_test wallclock_attack
  ctest --test-dir "$ROOT/build" -L robustness --output-on-failure -j "$JOBS"
  # Alloc-failure soak: every 13th allocation (PCB, growth table, seed
  # rotation table) refused across both differential fuzz pools, random
  # and adversarial; invariants must hold and no op may leak.
  TCPDEMUX_FUZZ_ALLOC_EVERY=13 \
    ctest --test-dir "$ROOT/build" -R 'Fuzz(Ops|Adversarial)' \
          --output-on-failure -j "$JOBS"
  # Drain soak: a forced migration step before every op of the growing
  # specs (dynamic, and sharded fleets of it), validated at each step, so
  # every drain phase of the two-table state is checked.
  TCPDEMUX_FUZZ_RESIZE_EVERY=1 \
    ctest --test-dir "$ROOT/build" \
          -R 'Fuzz(Ops|Adversarial).*dynamic' \
          --output-on-failure -j "$JOBS"
  "$ROOT/build/bench/wallclock_attack" --smoke
else
  skipped robust SKIP_ROBUSTNESS
fi

if [[ "${SKIP_TELEMETRY:-0}" != "1" ]]; then
  stage telem "telemetry replay smoke + JSON schema validation"
  if [[ ! -d "$ROOT/build" ]]; then
    cmake -B "$ROOT/build" -S "$ROOT" -DTCPDEMUX_WERROR=ON
  fi
  cmake --build "$ROOT/build" -j "$JOBS" --target telemetry_dump
  # Short TPC/A replay (200 users) with interval series + sampled latency;
  # the exported JSON must satisfy the tcpdemux.telemetry.v1 schema. The
  # sharded fleet exports its lookup counters from the parent's ledger and
  # its histograms from the parent's funnel, so the schema's
  # examined.count == counters.lookups check covers that path too.
  for spec in sequent:19:crc32 sharded:4:dynamic; do
    out="$ROOT/build/telemetry.smoke.${spec//:/_}.json"
    "$ROOT/build/examples/telemetry_dump" "$spec" 200 500 "$out" > /dev/null
    python3 "$ROOT/tools/telemetry/validate_schema.py" "$out"
  done
else
  skipped telem SKIP_TELEMETRY
fi

if [[ "${SKIP_SCENARIO:-0}" != "1" ]]; then
  stage scenario "workload x demuxer scenario matrix smoke + validation"
  if [[ ! -d "$ROOT/build" ]]; then
    cmake -B "$ROOT/build" -S "$ROOT" -DTCPDEMUX_WERROR=ON
  fi
  cmake --build "$ROOT/build" -j "$JOBS" --target wallclock_scenarios
  # One-rep slice of the full matrix (all 7 workload kinds, including a
  # self-synthesized pcap row, against every demuxer family). The validator
  # enforces a complete cross product with zero replay misses.
  "$ROOT/build/bench/wallclock_scenarios" --smoke \
      --json "$ROOT/build/scenario_matrix.smoke.json"
  python3 "$ROOT/tools/scenarios/validate_matrix.py" \
      "$ROOT/build/scenario_matrix.smoke.json"
else
  skipped scenario SKIP_SCENARIO
fi

if [[ "${SKIP_THREAD_SAFETY:-0}" != "1" ]]; then
  stage tsafety "Clang -Wthread-safety analysis + negative-compile harness"
  if command -v clang++ > /dev/null 2>&1; then
    # -Werror=thread-safety build of the whole tree, plus the configure-time
    # tests/static try_compile harness proving the annotations catch the
    # planted violations (and that the positive control stays clean).
    cmake -B "$ROOT/build-tsafety" -S "$ROOT" -DTCPDEMUX_WERROR=ON \
          -DCMAKE_CXX_COMPILER=clang++ -DTCPDEMUX_THREAD_SAFETY=ON
    cmake --build "$ROOT/build-tsafety" -j "$JOBS"
  else
    echo "clang++ not installed: thread-safety analysis needs Clang; skipping"
  fi
else
  skipped tsafety SKIP_THREAD_SAFETY
fi

if [[ "${SKIP_TIDY:-0}" != "1" ]]; then
  stage tidy "clang-tidy (checks from .clang-tidy) over src/"
  if command -v clang-tidy > /dev/null 2>&1; then
    cmake -B "$ROOT/build-tidy" -S "$ROOT" \
          -DCMAKE_EXPORT_COMPILE_COMMANDS=ON
    # Sources only: headers are covered through their includers via
    # HeaderFilterRegex in .clang-tidy.
    find "$ROOT/src" -name '*.cc' -print0 \
      | xargs -0 clang-tidy -p "$ROOT/build-tidy" --quiet --warnings-as-errors='*'
  else
    echo "clang-tidy not installed: skipping"
  fi
else
  skipped tidy SKIP_TIDY
fi

if [[ "${SKIP_RESIZE:-0}" != "1" ]]; then
  stage resize "resize pause smoke + bounded-drain assertion"
  if [[ ! -d "$ROOT/build" ]]; then
    cmake -B "$ROOT/build" -S "$ROOT" -DTCPDEMUX_WERROR=ON
  fi
  cmake --build "$ROOT/build" -j "$JOBS" --target wallclock_resize
  # Smoke-size growth sweep of the growing table (dynamic, 64k -> 128k);
  # the validator asserts no drain step moved more than kMigrateBatch
  # entries (core/sequent_hash.h), that lookup p99 stays flat through the
  # doubling, and that a doubling ran.
  "$ROOT/build/bench/wallclock_resize" --smoke \
      --json "$ROOT/build/wallclock_resize.smoke.json"
  python3 "$ROOT/tools/bench/validate_resize.py" \
      "$ROOT/build/wallclock_resize.smoke.json"
else
  skipped resize SKIP_RESIZE
fi

if [[ "${SKIP_SHARDED:-0}" != "1" ]]; then
  stage sharded "sharded receive path smoke + zero-miss/scaling assertion"
  if [[ ! -d "$ROOT/build" ]]; then
    cmake -B "$ROOT/build" -S "$ROOT" -DTCPDEMUX_WERROR=ON
  fi
  cmake --build "$ROOT/build" -j "$JOBS" --target wallclock_sharded
  # Per-core sharded fleet vs global-lock/striped/RCU head-to-head, plus
  # a churn replay through a deliberately damaged NIC indirection table;
  # the validator hard-asserts lost == 0 and duplicate_inserts == 0 under
  # mis-steering, and that sharding stays competitive with the best
  # shared-structure baseline at the top thread count.
  "$ROOT/build/bench/wallclock_sharded" --smoke \
      --json "$ROOT/build/wallclock_sharded.smoke.json"
  python3 "$ROOT/tools/bench/validate_sharded.py" \
      "$ROOT/build/wallclock_sharded.smoke.json"
else
  skipped sharded SKIP_SHARDED
fi

if [[ "${SKIP_RXBENCH:-0}" != "1" ]]; then
  stage rxbench "receive-path benchmark self-test + exact-count pin"
  # Builds rxbench (Release, from src/) into .bench_build and checks the
  # benchmark itself: one seed gives one frame stream and identical exact
  # counts (examined PCBs, transmitted segments, allocations), another seed
  # another stream, and a corrupted-checksum frame is reported as failed.
  (cd "$ROOT" && python3 rxbench/run.py --self-test)
  # Then pins the program's exact counts on a fixed oltp and bulk stream
  # against ci/rxbench_exact.json: a change to chain order, caching,
  # hashing or the TCP path moves them and must re-record the pin.
  for w in oltp bulk; do
    "$ROOT/.bench_build/rxbench/rxbench_traced" --workload "$w" --seed 1 \
        --frames 400000 --trace 1 > "$ROOT/.bench_build/exact-$w.out"
  done
  python3 "$ROOT/tools/bench/check_rxbench_exact.py" \
      "$ROOT/ci/rxbench_exact.json" \
      "$ROOT/.bench_build/exact-oltp.out" "$ROOT/.bench_build/exact-bulk.out"
else
  skipped rxbench SKIP_RXBENCH
fi

echo
echo "== ci/check.sh: all requested stages passed =="

// Wall-clock resize pauses: measures the per-operation latency
// distribution of the growing table *through* a doubling — the
// experiment behind the bounded-relink claim in DESIGN.md "Incremental
// resize & degradation ladder".
//
// Per cell (one spec):
//   1. populate  — insert N PCBs (untimed; any growth here is warmup);
//   2. steady    — time individual lookups against the settled table and
//                  take p50/p99 as the steady-state reference;
//   3. growth    — insert N more PCBs one at a time, each insert followed
//                  by a few lookups of already-present keys, timing every
//                  operation individually. This phase crosses the next
//                  doubling, whose drain rides along in O(batch) slices.
// Reported: steady p50/p99, growth-phase lookup p99, the maximum
// single-operation pause, and the most entries any one drain step moved
// (the telemetry `resize_work` histogram's exact max, beside
// core::kMigrateBatch). The growth phase runs `rounds` times on fresh
// tables and reports the minimum-over-rounds of the max pause, so a
// scheduler preemption on a shared host cannot masquerade as a resize
// spike (a real pause recurs every round; jitter does not).
//
//   wallclock_resize [--smoke] [--json <path>] [--sizes <n[,n...]>]
//
// --sizes sets the starting population N for each measured cell (k/m
// suffixes accepted: "--sizes 2m" measures the 2M -> 4M growth of the
// acceptance experiment). Default 2m; --smoke drops to 64k and one
// round.
//
// Hugepage axis: on Linux each population size runs twice, with
// transparent hugepages left at the system default and with THP disabled
// for the process (prctl PR_SET_THP_DISABLE) — the growth phase touches
// fresh arrays, so TLB fill cost is part of the resize story.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#if defined(__linux__)
#include <sys/prctl.h>
#endif

#include "bench_util.h"
#include "core/demux_registry.h"
#include "core/sequent_hash.h"
#include "report/telemetry.h"
#include "sim/address_space.h"

namespace {

using namespace tcpdemux;

#if !defined(PR_SET_THP_DISABLE)
#define PR_SET_THP_DISABLE 41
#endif

/// Sets the process-wide THP opt-out. Returns false when unsupported, in
/// which case the thp=off cells are skipped rather than mislabeled.
bool set_thp_disabled(bool disabled) {
#if defined(__linux__)
  return prctl(PR_SET_THP_DISABLE, disabled ? 1UL : 0UL, 0UL, 0UL, 0UL) == 0;
#else
  (void)disabled;
  return false;
#endif
}

double percentile(std::vector<std::uint32_t>& ns, double p) {
  if (ns.empty()) return 0.0;
  const std::size_t idx = std::min(
      ns.size() - 1, static_cast<std::size_t>(p * static_cast<double>(ns.size())));
  std::nth_element(ns.begin(), ns.begin() + static_cast<std::ptrdiff_t>(idx),
                   ns.end());
  return static_cast<double>(ns[idx]);
}

std::uint32_t elapsed_ns(std::chrono::steady_clock::time_point t0,
                         std::chrono::steady_clock::time_point t1) {
  const auto d =
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count();
  return d > 0xffffffffLL ? 0xffffffffu
                          : static_cast<std::uint32_t>(d < 0 ? 0 : d);
}

struct CellResult {
  double steady_p50 = 0.0;
  double steady_p99 = 0.0;
  double growth_lookup_p99 = 0.0;
  double max_pause = 0.0;  ///< min over rounds of the per-round max op
  std::uint64_t resizes = 0;
  std::uint64_t resize_work_max = 0;  ///< most entries one step moved
};

/// One measured cell. `spec` must parse; `n` is the starting population.
CellResult run_cell(const std::string& spec, std::uint32_t n,
                    const std::vector<net::FlowKey>& keys, int rounds) {
  using clock = std::chrono::steady_clock;
  constexpr std::size_t kLookupsPerInsert = 3;
  CellResult out;

  std::vector<std::uint32_t> steady;
  std::vector<std::uint32_t> growth_lookups;
  std::vector<std::uint32_t> pauses;
  for (int round = 0; round < rounds; ++round) {
    const auto config = core::parse_demux_spec(spec);
    if (!config) {
      std::fprintf(stderr, "bad spec %s\n", spec.c_str());
      std::exit(2);
    }
    const auto demuxer = core::make_demuxer(*config);
    demuxer->enable_telemetry_histograms(true);
    for (std::uint32_t i = 0; i < n; ++i) demuxer->insert(keys[i]);

    // Steady-state lookup latencies against the settled table (first
    // round only; the table state is identical every round).
    if (round == 0) {
      const std::size_t samples = std::min<std::size_t>(200000, n * 4);
      steady.reserve(samples);
      for (std::size_t i = 0; i < samples; ++i) {
        const net::FlowKey& k = keys[(i * 2654435761u) % n];
        const auto t0 = clock::now();
        bench::do_not_optimize(demuxer->lookup(k).pcb);
        const auto t1 = clock::now();
        steady.push_back(elapsed_ns(t0, t1));
      }
    }

    // Growth phase: N -> 2N PCBs, every op timed individually.
    growth_lookups.clear();
    growth_lookups.reserve(static_cast<std::size_t>(n) * kLookupsPerInsert);
    pauses.clear();
    pauses.reserve(static_cast<std::size_t>(n) * (1 + kLookupsPerInsert));
    for (std::uint32_t i = n; i < 2 * n; ++i) {
      auto t0 = clock::now();
      bench::do_not_optimize(demuxer->insert(keys[i]));
      auto t1 = clock::now();
      pauses.push_back(elapsed_ns(t0, t1));
      for (std::size_t j = 0; j < kLookupsPerInsert; ++j) {
        const net::FlowKey& k = keys[((i + j) * 2654435761u) % i];
        t0 = clock::now();
        bench::do_not_optimize(demuxer->lookup(k).pcb);
        t1 = clock::now();
        const std::uint32_t ns = elapsed_ns(t0, t1);
        growth_lookups.push_back(ns);
        pauses.push_back(ns);
      }
    }

    const double round_max = static_cast<double>(
        *std::max_element(pauses.begin(), pauses.end()));
    out.max_pause =
        round == 0 ? round_max : std::min(out.max_pause, round_max);
    // Every doubling of the round, populate phase included.
    const report::Telemetry telemetry = demuxer->telemetry();
    if (round == 0) out.resizes = telemetry.counters().resizes_started;
    out.resize_work_max =
        std::max(out.resize_work_max, telemetry.resize_work().max());
  }
  out.steady_p50 = percentile(steady, 0.50);
  out.steady_p99 = percentile(steady, 0.99);
  out.growth_lookup_p99 = percentile(growth_lookups, 0.99);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchOptions opts = bench::parse_bench_args(argc, argv);
  report::BenchJsonWriter writer;

  std::vector<std::uint32_t> sizes = {2000000};
  if (opts.smoke) sizes = {65536};
  if (!opts.sizes.empty()) sizes = opts.sizes;
  // Smoke gets an extra growth round: the max-pause metric is min-over-
  // rounds, and the small smoke tables make the one-time allocation spike
  // proportionally noisier.
  const int rounds = opts.smoke ? 3 : 2;

  // The growing table. Its initial size is deliberately small: the
  // populate phase grows the table to fit N, so the growth phase measures
  // a doubling at full size.
  const std::vector<std::string> specs = {"dynamic:1024:crc32c"};

  std::printf("%-22s %8s %7s %10s %10s %12s %12s %8s %8s\n", "cell", "users",
              "thp", "steady_p50", "steady_p99", "growth_p99", "max_pause",
              "resizes", "work_max");
  for (const std::uint32_t n : sizes) {
    sim::AddressSpaceParams ap;
    ap.clients = 2 * n;
    const auto keys = sim::make_client_keys(ap);

    // thp axis: default first, then disabled (full runs only — the smoke
    // gate needs speed, not the TLB story).
    std::vector<int> thp_cells = {0};
    if (!opts.smoke) thp_cells.push_back(1);
    for (const int thp_off : thp_cells) {
      if (thp_off == 1 && !set_thp_disabled(true)) continue;
      for (const std::string& spec : specs) {
        const CellResult r = run_cell(spec, n, keys, rounds);
        std::printf("%-22s %8u %7s %10.0f %10.0f %12.0f %12.0f %8llu %8llu\n",
                    spec.c_str(), n, thp_off != 0 ? "off" : "default",
                    r.steady_p50, r.steady_p99, r.growth_lookup_p99,
                    r.max_pause, static_cast<unsigned long long>(r.resizes),
                    static_cast<unsigned long long>(r.resize_work_max));

        report::BenchRecord rec;
        rec.bench = "wallclock_resize";
        rec.name = spec;
        rec.add_metric("users", n);
        rec.add_metric("thp_disabled", thp_off);
        rec.add_metric("steady_p50_ns", r.steady_p50);
        rec.add_metric("steady_p99_ns", r.steady_p99);
        rec.add_metric("growth_lookup_p99_ns", r.growth_lookup_p99);
        rec.add_metric("max_pause_ns", r.max_pause);
        rec.add_metric("resizes", static_cast<double>(r.resizes));
        rec.add_metric("resize_work_max",
                       static_cast<double>(r.resize_work_max));
        rec.add_metric("migrate_batch",
                       static_cast<double>(core::kMigrateBatch));
        writer.add(std::move(rec));
      }
      if (thp_off == 1) set_thp_disabled(false);
    }
  }

  bench::finish_json(writer, opts);
  return 0;
}

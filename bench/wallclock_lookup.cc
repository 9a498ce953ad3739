// Wall-clock lookup cost: validates the paper's premise that PCBs-examined
// is a faithful surrogate for lookup time, now across three population
// sizes (2 k / 20 k / 200 k connections).
//
// Each case pre-populates a demuxer with N PCBs and replays a
// TPC/A-distributed arrival sequence through the shared calibrated timing
// loop (bench_util.h); the table reports ns/lookup next to the mean PCBs
// examined so their proportionality is visible directly in the output.
//
// The linear-scan algorithms (bsd, mtf, srcache) and the paper's fixed
// 19-chain configurations are capped at 20 k connections: their O(n)
// duplicate-check inserts make a 200 k population take minutes and the
// scan cost story is already unambiguous at 20 k. The scaled-chain
// sequent, connection_id, and the growing dynamic table run at every size.
//
//   wallclock_lookup [--smoke] [--json <path>] [--telemetry <path>]
//                    [--sizes <a,b,...>] [--miss-rate <f>]
//
// --sizes accepts k/m suffixes ("--sizes 2m" measures a two-million-PCB
// population); the arrival sequence and structure sizing scale with the
// requested population, so multi-million rows need no other flags.
//
// --miss-rate blends negative lookups (keys absent from the table) into
// the arrival stream at the given fraction — the axis where linear scans
// pay full population cost to answer "no connection" while a hashed table
// walks one chain.
//
// --telemetry additionally dumps each measured demuxer's telemetry
// registry (counters + examined-PCB histograms + occupancy) as a
// tcpdemux.telemetry.v1 JSON array, so a timing run doubles as a
// distribution capture. Histograms are enabled only on that flag; the
// timed path otherwise runs counters-only, exactly as shipped.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/demux_registry.h"
#include "sim/address_space.h"
#include "sim/tpca_workload.h"

namespace {

using namespace tcpdemux;

struct LookupFixture {
  std::unique_ptr<core::Demuxer> demuxer;
  const std::vector<net::FlowKey>& keys;
  const std::vector<std::pair<std::uint32_t, core::SegmentKind>>& sequence;

  LookupFixture(
      const std::string& spec, const std::vector<net::FlowKey>& all_keys,
      const std::vector<std::pair<std::uint32_t, core::SegmentKind>>& seq)
      : keys(all_keys), sequence(seq) {
    demuxer = core::make_demuxer(*core::parse_demux_spec(spec));
    for (const auto& k : keys) demuxer->insert(k);
  }
};

// TPC/A arrival sequence sized to ~200 k events regardless of population:
// each user contributes ~0.2 arrivals/s, so scale the simulated duration
// inversely with the user count.
std::vector<std::pair<std::uint32_t, core::SegmentKind>> make_sequence(
    std::uint32_t users) {
  sim::TpcaWorkloadParams tp;
  tp.users = users;
  tp.warmup = 5.0;
  tp.duration = 1.0e6 / users;
  std::vector<std::pair<std::uint32_t, core::SegmentKind>> sequence;
  for (const auto& e : sim::generate_tpca_trace(tp).events) {
    if (e.kind == sim::TraceEventKind::kTransmit) continue;
    sequence.emplace_back(e.conn,
                          e.kind == sim::TraceEventKind::kArrivalData
                              ? core::SegmentKind::kData
                              : core::SegmentKind::kAck);
  }
  return sequence;
}

// Hash-structure sizing per population: a prime near users/8 for chained
// tables (mean chain ~8, the paper's ballpark), 2x users for the id
// array.
std::uint32_t scaled_chains(std::uint32_t users) {
  if (users <= 2000) return 251;
  if (users <= 20000) return 2521;
  if (users <= 200000) return 25013;
  // Multi-million-PCB rows (--sizes 2m/10m): keep mean chain length ~8
  // rather than letting the 200 k tier degenerate to 80+ per chain.
  if (users <= 2000000) return 250007;
  return 1250003;
}

std::vector<std::string> specs_for(std::uint32_t users) {
  std::vector<std::string> specs;
  if (users <= 20000) {
    specs.insert(specs.end(), {"bsd", "mtf", "srcache", "sequent:19:crc32",
                               "hashed_mtf:19:crc32"});
  }
  const std::string chains = std::to_string(scaled_chains(users));
  const std::string doubled = std::to_string(2 * users);
  specs.push_back("sequent:" + chains + ":crc32");
  specs.push_back("connection_id:" + doubled);
  // The host default as shipped: 19 chains, xor_fold, doubling as it fills.
  specs.push_back("dynamic");
  return specs;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchOptions opts = bench::parse_bench_args(argc, argv);
  report::BenchJsonWriter writer;
  std::vector<report::TelemetryReport> telemetry;

  std::vector<std::uint32_t> sizes = {2000, 20000, 200000};
  if (opts.smoke) sizes = {2000};
  if (!opts.sizes.empty()) sizes = opts.sizes;

  std::printf("%-26s %10s %12s %14s %9s\n", "demuxer", "users", "ns/lookup",
              "pcbs_examined", "hit_rate");
  for (const std::uint32_t users : sizes) {
    sim::AddressSpaceParams ap;
    ap.clients = users;
    const auto keys = sim::make_client_keys(ap);
    const auto sequence = make_sequence(users);
    const auto absent = opts.miss_rate > 0.0
                            ? bench::make_absent_keys(keys, 1024)
                            : std::vector<net::FlowKey>{};

    for (const std::string& spec : specs_for(users)) {
      LookupFixture fx(spec, keys, sequence);
      if (!opts.telemetry_path.empty()) {
        fx.demuxer->enable_telemetry_histograms(true);
      }
      constexpr std::size_t kChunk = 256;
      std::size_t i = 0;
      std::size_t mi = 0;
      bench::MissSequencer misses(opts.miss_rate);
      const std::size_t n = fx.sequence.size();
      const bench::Timing t = bench::time_loop(
          kChunk,
          [&] {
            for (std::size_t j = 0; j < kChunk; ++j) {
              const auto& [conn, kind] = fx.sequence[i];
              const net::FlowKey& key =
                  misses.next_is_miss()
                      ? absent[mi++ & (absent.size() - 1)]
                      : fx.keys[conn];
              bench::do_not_optimize(fx.demuxer->lookup(key, kind).pcb);
              if (++i == n) i = 0;
            }
          },
          opts.timing());

      const double examined = fx.demuxer->stats().mean_examined();
      const double hit_rate = fx.demuxer->stats().hit_rate();
      std::printf("%-26s %10u %12.1f %14.2f %9.3f\n", spec.c_str(), users,
                  t.ns_per_op, examined, hit_rate);

      report::BenchRecord rec;
      rec.bench = "wallclock_lookup";
      rec.name = spec;
      rec.add_metric("users", users);
      rec.add_metric("ns_per_lookup", t.ns_per_op);
      rec.add_metric("pcbs_examined", examined);
      rec.add_metric("hit_rate", hit_rate);
      rec.add_metric("miss_rate", opts.miss_rate);
      writer.add(std::move(rec));

      if (!opts.telemetry_path.empty()) {
        auto trec = core::telemetry_report_of("bench/wallclock_lookup",
                                               *fx.demuxer);
        trec.algorithm = spec + "@" + std::to_string(users);
        telemetry.push_back(std::move(trec));
      }
    }
  }

  bench::finish_json(writer, opts);
  bench::finish_telemetry(telemetry, opts);
  return 0;
}

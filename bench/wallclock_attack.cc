// Wall-clock lookup cost under a collision flood: the adversarial
// companion to wallclock_lookup, and the measurement behind the
// "Adversarial resilience" section of DESIGN.md.
//
// Each scenario pre-populates a demuxer with a benign population plus a
// crafted attack population (sim/collision_flood.h), then times a mixed
// lookup stream (3 attack lookups : 1 benign) through the shared
// calibrated loop. Three defensive postures face the same crafted keys:
//
//   unkeyed   — the paper's configuration; the flood lands where the
//               attacker aimed it and lookups collapse to a linear scan;
//   keyed     — siphash with a secret seed; the attacker's offline
//               precomputation targeted the wrong function, so the flood
//               scatters like benign traffic;
//   rehash    — starts unkeyed; the watermark fires during the flood
//               inserts, the seed rotates, and the timed lookups run on
//               the recovered table (the `rehashes` column shows the
//               detector actually fired).
//
// The benign-only rows at the bottom price the defense when there is no
// attack: keyed-vs-unkeyed hashing overhead on well-behaved traffic.
//
//   wallclock_attack [--smoke] [--json <path>] [--telemetry <path>]
//
// --telemetry dumps each scenario's telemetry registry (counters including
// shed/rehash events, examined-PCB histograms, occupancy skew) so the
// flood's distributional damage — not just its mean — is captured.
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/demux_registry.h"
#include "core/sequent_hash.h"
#include "net/hashers.h"
#include "sim/address_space.h"
#include "sim/collision_flood.h"

namespace {

using namespace tcpdemux;

struct Scenario {
  std::string label;
  std::string spec;
  const std::vector<net::FlowKey>* attack = nullptr;  // null = benign only
};

// One fully built attack fixture: demuxer populated benign-first (the
// steady state the flood arrives into), then flooded.
struct AttackFixture {
  std::unique_ptr<core::Demuxer> demuxer;
  std::vector<net::FlowKey> sequence;  ///< timed lookup stream

  AttackFixture(const Scenario& s, const std::vector<net::FlowKey>& benign) {
    demuxer = core::make_demuxer(*core::parse_demux_spec(s.spec));
    std::vector<net::FlowKey> benign_in;
    std::vector<net::FlowKey> attack_in;
    for (const auto& k : benign) {
      if (demuxer->insert(k) != nullptr) benign_in.push_back(k);
    }
    if (s.attack != nullptr) {
      for (const auto& k : *s.attack) {
        if (demuxer->insert(k) != nullptr) attack_in.push_back(k);
      }
    }
    // 3:1 attack:benign interleave (benign-only scenarios fall back to a
    // pure benign stream). Distinct consecutive keys, so per-chain caches
    // see realistic miss traffic instead of one hot key.
    const std::vector<net::FlowKey>& hot =
        attack_in.empty() ? benign_in : attack_in;
    const std::size_t len = 4 * hot.size();
    sequence.reserve(len);
    for (std::size_t i = 0; i < len; ++i) {
      sequence.push_back(i % 4 == 3 ? benign_in[(i / 4) % benign_in.size()]
                                    : hot[(3 * i / 4) % hot.size()]);
    }
    demuxer->reset_stats();
  }
};

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchOptions opts = bench::parse_bench_args(argc, argv);
  report::BenchJsonWriter writer;
  std::vector<report::TelemetryReport> telemetry;

  // The flood must outgrow the chained watermark 16 + 8*(size/chains + 1)
  // for the rehash rows to demonstrate anything, so even the smoke attack
  // outweighs the benign population.
  const std::uint32_t benign_count = opts.smoke ? 512 : 2000;
  const std::uint32_t attack_count = opts.smoke ? 768 : 2000;

  sim::AddressSpaceParams ap;
  ap.clients = benign_count;
  const auto benign = sim::make_client_keys(ap);

  // The attacker precomputes against the PUBLISHED (unkeyed) functions.
  sim::CollisionFloodParams craft;
  craft.count = attack_count;
  const auto chain_flood = sim::craft_colliding_keys(
      craft,
      [](const net::FlowKey& k) {
        return net::hash_chain(net::HasherKind::kXorFold, k, 19);
      },
      7);
  // Full-32-bit collisions: one chain at every size the host default
  // grows to, under every post-mixed xor_fold seed; only siphash scatters
  // them.
  const auto hash_flood = sim::craft_xorfold_collisions(craft, 0xabad1dea);

  const std::vector<Scenario> scenarios = {
      {"sequent-flood-unkeyed", "sequent:19:xor_fold", &chain_flood},
      {"sequent-flood-keyed", "sequent:19:siphash@5eed", &chain_flood},
      {"sequent-flood-rehash", "sequent:19:xor_fold:rehash", &chain_flood},
      {"dynamic-flood-unkeyed", "dynamic:xor_fold", &hash_flood},
      {"dynamic-flood-keyed", "dynamic:siphash@5eed", &hash_flood},
      {"sequent-benign-unkeyed", "sequent:19:crc32", nullptr},
      {"sequent-benign-keyed", "sequent:19:siphash@5eed", nullptr},
      {"dynamic-benign-unkeyed", "dynamic:xor_fold", nullptr},
      {"dynamic-benign-keyed", "dynamic:siphash@5eed", nullptr},
  };

  std::printf("%-24s %-32s %12s %14s %9s %10s\n", "scenario", "demuxer",
              "ns/lookup", "pcbs_examined", "rehashes", "watermark");
  for (const Scenario& s : scenarios) {
    AttackFixture fx(s, benign);
    if (!opts.telemetry_path.empty()) {
      fx.demuxer->enable_telemetry_histograms(true);
    }
    constexpr std::size_t kChunk = 256;
    std::size_t i = 0;
    const std::size_t n = fx.sequence.size();
    const bench::Timing t = bench::time_loop(
        kChunk,
        [&] {
          for (std::size_t j = 0; j < kChunk; ++j) {
            bench::do_not_optimize(
                fx.demuxer->lookup(fx.sequence[i], core::SegmentKind::kData)
                    .pcb);
            if (++i == n) i = 0;
          }
        },
        opts.timing());

    const double examined = fx.demuxer->stats().mean_examined();
    const std::uint64_t rehashes =
        fx.demuxer->telemetry().counters().rehashes;
    // Every scenario is a sequent or dynamic spec.
    const std::uint64_t watermark =
        dynamic_cast<const core::SequentDemuxer&>(*fx.demuxer).watermark();
    std::printf("%-24s %-32s %12.1f %14.2f %9llu %10llu\n", s.label.c_str(),
                fx.demuxer->name().c_str(), t.ns_per_op, examined,
                static_cast<unsigned long long>(rehashes),
                static_cast<unsigned long long>(watermark));

    report::BenchRecord rec;
    rec.bench = "wallclock_attack";
    rec.name = s.label;
    rec.add_metric("ns_per_lookup", t.ns_per_op);
    rec.add_metric("pcbs_examined", examined);
    rec.add_metric("rehashes", static_cast<double>(rehashes));
    rec.add_metric("watermark", static_cast<double>(watermark));
    writer.add(std::move(rec));

    if (!opts.telemetry_path.empty()) {
      auto trec =
          core::telemetry_report_of("bench/wallclock_attack", *fx.demuxer);
      trec.algorithm = s.label;
      telemetry.push_back(std::move(trec));
    }
  }

  bench::finish_json(writer, opts);
  bench::finish_telemetry(telemetry, opts);
  return 0;
}

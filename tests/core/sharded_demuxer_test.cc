// ShardedDemuxer semantics: RSS steering places every flow on its home
// shard, steering drift (indirection rewrites, seed rotation) arms the
// cross-shard fallback without losing or duplicating connections, and the
// aggregation surface (stats, size, occupancy, merged telemetry) presents
// the shard fleet as one demuxer without double-counting.
#include "core/sharded_demuxer.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>

#include "core/demux_registry.h"
#include "net/hashers.h"
#include "net/rss.h"

namespace tcpdemux::core {
namespace {

net::FlowKey key(std::uint32_t i) {
  return net::FlowKey{net::Ipv4Addr(10, 0, 0, 1), 1521,
                      net::Ipv4Addr(10, 2, static_cast<std::uint8_t>(i >> 8),
                                    static_cast<std::uint8_t>(i & 0xff)),
                      static_cast<std::uint16_t>(10000 + (i % 50000))};
}

ShardedDemuxer make_sharded(std::uint32_t shards, const char* inner) {
  return ShardedDemuxer(ShardedDemuxer::Options{
      shards, *parse_demux_spec(inner)});
}

TEST(ShardedDemuxer, EveryKeyLandsOnItsHomeShard) {
  ShardedDemuxer demuxer = make_sharded(4, "dynamic");
  for (std::uint32_t i = 0; i < 200; ++i) {
    ASSERT_NE(demuxer.insert(key(i)), nullptr);
  }
  EXPECT_EQ(demuxer.size(), 200u);
  // Walk every shard; each resident's steering hash must select exactly
  // the shard it sits on (PCBs never migrate, and steering never drifted).
  for (std::uint32_t s = 0; s < demuxer.shard_count(); ++s) {
    demuxer.shard(s).for_each_pcb([&](const Pcb& pcb) {
      EXPECT_EQ(demuxer.home_shard(pcb.key), s) << pcb.key.to_string();
    });
  }
}

TEST(ShardedDemuxer, SteadyStateLookupTouchesOnlyTheHomeShard) {
  ShardedDemuxer demuxer = make_sharded(4, "sequent:19:crc32");
  for (std::uint32_t i = 0; i < 100; ++i) demuxer.insert(key(i));
  for (std::uint32_t i = 0; i < 100; ++i) {
    EXPECT_NE(demuxer.lookup(key(i)).pcb, nullptr);
  }
  for (std::uint32_t i = 100; i < 150; ++i) {
    EXPECT_EQ(demuxer.lookup(key(i)).pcb, nullptr);
  }
  // One parent lookup == exactly one shard lookup while steering is
  // stable: the shard ledgers must sum to the parent's ledger.
  std::uint64_t shard_lookups = 0;
  std::uint64_t shard_found = 0;
  for (std::uint32_t s = 0; s < demuxer.shard_count(); ++s) {
    shard_lookups += demuxer.shard(s).stats().lookups;
    shard_found += demuxer.shard(s).stats().found;
  }
  EXPECT_EQ(shard_lookups, demuxer.stats().lookups);
  EXPECT_EQ(shard_found, demuxer.stats().found);
  EXPECT_EQ(demuxer.cross_shard_hits(), 0u);
  EXPECT_FALSE(demuxer.misplaced_possible());
}

TEST(ShardedDemuxer, IndirectionRewriteKeepsReSteeredFlowReachable) {
  ShardedDemuxer demuxer = make_sharded(4, "dynamic");
  for (std::uint32_t i = 0; i < 64; ++i) demuxer.insert(key(i));

  // Re-steer key(7)'s indirection entry to a different shard — the host
  // rebalancing a live table. Its PCB stays where it was inserted.
  const net::FlowKey victim = key(7);
  const std::uint32_t old_home = demuxer.home_shard(victim);
  const std::uint32_t hash = net::hash_flow(demuxer.steering(), victim);
  const std::uint32_t index = hash & (demuxer.indirection().entries() - 1);
  demuxer.set_indirection_entry(index, (old_home + 1) % 4);
  ASSERT_NE(demuxer.home_shard(victim), old_home);
  EXPECT_TRUE(demuxer.misplaced_possible());

  // The new home shard misses; the fallback sweep must still find it.
  const LookupResult r = demuxer.lookup(victim);
  ASSERT_NE(r.pcb, nullptr);
  EXPECT_EQ(r.pcb->key, victim);
  EXPECT_GE(demuxer.cross_shard_hits(), 1u);

  // Re-inserting the re-steered key must still be rejected as a duplicate
  // even though its new home shard does not hold it.
  EXPECT_EQ(demuxer.insert(victim), nullptr);
  // And erase must find it across the drift.
  EXPECT_TRUE(demuxer.erase(victim));
  EXPECT_FALSE(demuxer.erase(victim));
}

TEST(ShardedDemuxer, SeedRotationLosesNoConnections) {
  ShardedDemuxer demuxer = make_sharded(4, "sequent:19:crc32");
  for (std::uint32_t i = 0; i < 200; ++i) demuxer.insert(key(i));
  demuxer.rotate_steering_seed();
  EXPECT_TRUE(demuxer.misplaced_possible());
  // Every established flow may now steer elsewhere; all must stay
  // reachable, and none may become insertable again.
  for (std::uint32_t i = 0; i < 200; ++i) {
    EXPECT_NE(demuxer.lookup(key(i)).pcb, nullptr) << i;
    EXPECT_EQ(demuxer.insert(key(i)), nullptr) << i;
  }
  for (std::uint32_t i = 0; i < 200; ++i) {
    EXPECT_TRUE(demuxer.erase(key(i))) << i;
  }
  EXPECT_EQ(demuxer.size(), 0u);
  // The drained table disarms the fallback path: new flows start clean.
  EXPECT_FALSE(demuxer.misplaced_possible());
  demuxer.insert(key(1000));
  demuxer.reset_stats();
  demuxer.lookup(key(1000));
  std::uint64_t shard_lookups = 0;
  for (std::uint32_t s = 0; s < demuxer.shard_count(); ++s) {
    shard_lookups += demuxer.shard(s).stats().lookups;
  }
  EXPECT_EQ(shard_lookups, 1u);
}

TEST(ShardedDemuxer, OccupancyReportsPerShardSizes) {
  ShardedDemuxer demuxer = make_sharded(4, "dynamic");
  for (std::uint32_t i = 0; i < 100; ++i) demuxer.insert(key(i));
  const std::vector<std::size_t> occ = demuxer.occupancy();
  ASSERT_EQ(occ.size(), 4u);
  std::size_t total = 0;
  for (std::uint32_t s = 0; s < 4; ++s) {
    EXPECT_EQ(occ[s], demuxer.shard(s).size());
    total += occ[s];
  }
  EXPECT_EQ(total, demuxer.size());
}

TEST(ShardedDemuxer, MergedTelemetryIsIdempotentAcrossRepeatedReads) {
  // The aggregation bugfix's demuxer-level regression: telemetry() builds
  // a fresh merged view per call, so reading it N times must return the
  // same counters N times — a merge into persistent parent state would
  // re-add every shard's counters on each read.
  ShardedDemuxer demuxer = make_sharded(4, "sequent:19:crc32");
  demuxer.enable_telemetry_histograms(true);
  for (std::uint32_t i = 0; i < 100; ++i) demuxer.insert(key(i));
  for (std::uint32_t i = 0; i < 300; ++i) demuxer.lookup(key(i % 150));
  for (std::uint32_t i = 0; i < 50; ++i) demuxer.erase(key(i));

  const report::Telemetry first = demuxer.telemetry();
  const report::Telemetry second = demuxer.telemetry();
  const report::Telemetry third = demuxer.telemetry();
  for (const report::Telemetry* t : {&second, &third}) {
    EXPECT_EQ(t->counters().inserts, first.counters().inserts);
    EXPECT_EQ(t->counters().erases, first.counters().erases);
    EXPECT_EQ(t->examined().count(), first.examined().count());
    EXPECT_EQ(t->examined().sum(), first.examined().sum());
  }
  EXPECT_EQ(first.counters().inserts, 100u);
  EXPECT_EQ(first.counters().erases, 50u);

  // The export and the lookup histograms count each fleet lookup once,
  // exactly as stats() does — also once steering has drifted and a lookup
  // sweeps several shards (each shard's own ledger counts its probe).
  const auto expect_one_ledger = [&demuxer] {
    const report::TelemetryReport exported =
        telemetry_report_of("test", demuxer);
    const DemuxStats& stats = demuxer.stats();
    EXPECT_EQ(exported.ledger.lookups, stats.lookups);
    EXPECT_EQ(exported.telemetry.examined().count(), stats.lookups);
    EXPECT_EQ(exported.telemetry.examined().sum(), stats.pcbs_examined);
  };
  expect_one_ledger();

  demuxer.rotate_steering_seed();
  demuxer.set_indirection_entry(0, 1);
  for (std::uint32_t i = 50; i < 150; ++i) demuxer.lookup(key(i));
  EXPECT_GT(demuxer.cross_shard_hits(), 0u);
  EXPECT_EQ(demuxer.stats().found, 200u + 50u);  // no live flow lost
  expect_one_ledger();
}

TEST(ShardedDemuxer, RegistryBuildsShardedSpecs) {
  const auto config = parse_demux_spec("sharded:4:dynamic:64:crc32");
  ASSERT_TRUE(config.has_value());
  EXPECT_EQ(config->algorithm, Algorithm::kSharded);
  EXPECT_EQ(config->shards, 4u);
  const auto demuxer = make_demuxer(*config);
  ASSERT_NE(demuxer, nullptr);
  auto* sharded = dynamic_cast<ShardedDemuxer*>(demuxer.get());
  ASSERT_NE(sharded, nullptr);
  EXPECT_EQ(sharded->shard_count(), 4u);
  EXPECT_NE(sharded->name().find("sharded(4x"), std::string::npos)
      << sharded->name();
}

TEST(ShardedDemuxer, ShardCountOneDegeneratesToInner) {
  ShardedDemuxer demuxer = make_sharded(1, "dynamic");
  for (std::uint32_t i = 0; i < 50; ++i) demuxer.insert(key(i));
  EXPECT_EQ(demuxer.shard_count(), 1u);
  EXPECT_EQ(demuxer.shard(0).size(), 50u);
  for (std::uint32_t i = 0; i < 50; ++i) {
    EXPECT_EQ(demuxer.home_shard(key(i)), 0u);
  }
}

}  // namespace
}  // namespace tcpdemux::core

// FlatDemuxer unit tests: the open-addressing mechanics the shared
// property/differential suites cannot see from outside — capacity
// rounding, amortized growth, robin-hood probe-distance bounds, and
// backward-shift deletion leaving no tombstone residue.
#include "core/flat_demuxer.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "core/validate.h"
#include "net/flow_key.h"
#include "net/hashers.h"
#include "sim/collision_flood.h"

namespace tcpdemux::core {
namespace {

// Distinct keys varying in the address only. Do NOT mirror `i` into the
// port as well: xor_fold XORs address and port words, so a key schedule
// with addr_low = i and port = base + i collapses to a handful of hashes
// (i ^ (base + i) is constant whenever the add carries stay out of the
// way) and every key lands in one probe run.
net::FlowKey key(std::uint32_t i) {
  return net::FlowKey{net::Ipv4Addr(10, 0, 0, 1), 1521,
                      net::Ipv4Addr(10, static_cast<std::uint8_t>(i >> 16),
                                    static_cast<std::uint8_t>(i >> 8),
                                    static_cast<std::uint8_t>(i & 0xff)),
                      20000};
}

TEST(FlatDemuxerTest, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(FlatDemuxer(FlatDemuxer::Options{1}).capacity(), 16u);
  EXPECT_EQ(FlatDemuxer(FlatDemuxer::Options{16}).capacity(), 16u);
  EXPECT_EQ(FlatDemuxer(FlatDemuxer::Options{17}).capacity(), 32u);
  EXPECT_EQ(FlatDemuxer(FlatDemuxer::Options{1000}).capacity(), 1024u);
}

TEST(FlatDemuxerTest, RejectsZeroCapacity) {
  EXPECT_THROW(FlatDemuxer(FlatDemuxer::Options{0}), std::invalid_argument);
}

TEST(FlatDemuxerTest, InsertLookupEraseRoundTrip) {
  FlatDemuxer d;
  Pcb* const p = d.insert(key(1));
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(d.insert(key(1)), nullptr) << "duplicate insert must fail";
  const auto r = d.lookup(key(1));
  EXPECT_EQ(r.pcb, p);
  EXPECT_EQ(r.examined, 1u);
  EXPECT_FALSE(r.cache_hit) << "the flat table has no single-entry cache";
  EXPECT_TRUE(d.erase(key(1)));
  EXPECT_FALSE(d.erase(key(1)));
  EXPECT_EQ(d.lookup(key(1)).pcb, nullptr);
  EXPECT_EQ(d.size(), 0u);
}

TEST(FlatDemuxerTest, GrowthKeepsEveryKeyFindableAndPcbPointersStable) {
  FlatDemuxer d(FlatDemuxer::Options{16});
  std::vector<Pcb*> pcbs;
  constexpr std::uint32_t kN = 1000;  // forces several doublings from 16
  for (std::uint32_t i = 0; i < kN; ++i) {
    Pcb* const p = d.insert(key(i));
    ASSERT_NE(p, nullptr) << i;
    pcbs.push_back(p);
  }
  EXPECT_GE(d.capacity(), kN);
  EXPECT_LE(d.size() * 8, d.capacity() * 7) << "load factor bound violated";
  for (std::uint32_t i = 0; i < kN; ++i) {
    EXPECT_EQ(d.lookup(key(i)).pcb, pcbs[i]) << i;
  }
  EXPECT_TRUE(StructuralValidator::validate(d).ok());
}

TEST(FlatDemuxerTest, RobinHoodKeepsMeanProbeCostSmallNearLoadCap) {
  FlatDemuxer d(FlatDemuxer::Options{2048});
  for (std::uint32_t i = 0; i < 1700; ++i) {  // ~83% load, no growth
    ASSERT_NE(d.insert(key(i)), nullptr);
  }
  EXPECT_EQ(d.capacity(), 2048u);
  // Long occupied runs are unavoidable at 83% load (cluster lengths decay
  // only as (alpha*e^(1-alpha))^k ~ 0.984^k), so the max probe distance is
  // cluster-bounded, not logarithmic. What robin-hood guarantees is the
  // distribution: mean displacement stays ~(1 + 1/(1-alpha))/2 ~ 3.4 and
  // the table never degenerates into one key paying the whole cluster.
  std::uint64_t total_examined = 0;
  for (std::uint32_t i = 0; i < 1700; ++i) {
    const auto r = d.lookup(key(i));
    ASSERT_NE(r.pcb, nullptr) << i;
    total_examined += r.examined;
  }
  EXPECT_LE(total_examined, 1700u * 8) << "mean hit cost blew up at 83% load";
  EXPECT_LT(d.max_probe_distance(), d.capacity() / 4)
      << "one probe run spans a quarter of the table";
}

TEST(FlatDemuxerTest, ModerateLoadBoundsWorstCaseProbe) {
  FlatDemuxer d(FlatDemuxer::Options{2048});
  for (std::uint32_t i = 0; i < 1024; ++i) {  // 50% load
    ASSERT_NE(d.insert(key(i)), nullptr);
  }
  EXPECT_EQ(d.capacity(), 2048u);
  EXPECT_LE(d.max_probe_distance(), 64u);
}

TEST(FlatDemuxerTest, ChurnNeverDegradesLookupCost) {
  // Tombstone schemes rot under churn: erased slots keep lengthening probe
  // runs until a rebuild. Backward-shift deletion must keep the examined
  // count flat, so hammer one table with connect/disconnect cycles and
  // compare against a fresh table with the identical final population.
  FlatDemuxer churned(FlatDemuxer::Options{1024});
  for (std::uint32_t round = 0; round < 50; ++round) {
    for (std::uint32_t i = 0; i < 500; ++i) {
      ASSERT_NE(churned.insert(key(i)), nullptr);
    }
    for (std::uint32_t i = 0; i < 500; ++i) {
      ASSERT_TRUE(churned.erase(key(i)));
    }
  }
  for (std::uint32_t i = 0; i < 500; ++i) {
    ASSERT_NE(churned.insert(key(i)), nullptr);
  }
  FlatDemuxer fresh(FlatDemuxer::Options{1024});
  for (std::uint32_t i = 0; i < 500; ++i) {
    ASSERT_NE(fresh.insert(key(i)), nullptr);
  }
  ASSERT_EQ(churned.capacity(), fresh.capacity());
  EXPECT_EQ(churned.max_probe_distance(), fresh.max_probe_distance())
      << "churn left probe-run residue a fresh build does not have";
  for (std::uint32_t i = 0; i < 500; ++i) {
    EXPECT_EQ(churned.lookup(key(i)).examined, fresh.lookup(key(i)).examined)
        << i;
  }
  EXPECT_TRUE(StructuralValidator::validate(churned).ok());
}

TEST(FlatDemuxerTest, ExaminedCountsKeyComparisonsOnly) {
  FlatDemuxer d;
  for (std::uint32_t i = 0; i < 100; ++i) ASSERT_NE(d.insert(key(i)), nullptr);
  // A miss examines only fingerprint-colliding slots: almost always zero.
  std::uint64_t miss_examined = 0;
  constexpr std::uint32_t kMisses = 200;
  for (std::uint32_t i = 0; i < kMisses; ++i) {
    const auto r = d.lookup(key(100000 + i));
    EXPECT_EQ(r.pcb, nullptr);
    miss_examined += r.examined;
  }
  // With 7 fingerprint bits, expected false positives per miss are well
  // under 0.1 at this occupancy; allow a generous margin.
  EXPECT_LE(miss_examined, kMisses / 4);
  // A hit examines at least the found PCB and rarely more.
  const auto hit = d.lookup(key(7));
  ASSERT_NE(hit.pcb, nullptr);
  EXPECT_GE(hit.examined, 1u);
}

TEST(FlatDemuxerTest, ForEachSeesExactlyTheResidents) {
  FlatDemuxer d(FlatDemuxer::Options{64});
  std::unordered_set<net::FlowKey> expected;
  for (std::uint32_t i = 0; i < 40; ++i) {
    d.insert(key(i));
    expected.insert(key(i));
  }
  for (std::uint32_t i = 0; i < 40; i += 2) {
    d.erase(key(i));
    expected.erase(key(i));
  }
  std::size_t seen = 0;
  d.for_each_pcb([&](const Pcb& pcb) {
    ++seen;
    EXPECT_TRUE(expected.contains(pcb.key));
  });
  EXPECT_EQ(seen, expected.size());
}

TEST(FlatDemuxerTest, MemoryBytesPricesSlotArraysAndPcbs) {
  FlatDemuxer d(FlatDemuxer::Options{1024});
  const std::size_t empty = d.memory_bytes();
  // Each slot costs tag + hash + key + pointer, paid up front.
  EXPECT_GE(empty, 1024 * (1 + 4 + sizeof(net::FlowKey) + sizeof(void*)));
  for (std::uint32_t i = 0; i < 100; ++i) d.insert(key(i));
  EXPECT_GE(d.memory_bytes(), empty + 100 * sizeof(Pcb));
}

TEST(FlatDemuxerTest, NameReportsCapacityAndHasher) {
  FlatDemuxer d(FlatDemuxer::Options{256, net::HasherKind::kCrc32});
  EXPECT_EQ(d.name(), "flat(cap=256,crc32)");
}

// 56 full-hash collisions fill a 64-slot table to its 7/8 growth trigger
// with one probe run of 56 slots from the shared home slot. Whenever the
// home slot sits past slot 8, that run wraps past the array's end. One
// target hash per home slot covers every wrap offset.
TEST(FlatDemuxerTest, FullCollisionRunThatWrapsTheArrayStaysFindable) {
  sim::CollisionFloodParams params;
  params.count = 56;
  std::uint32_t target = 0;
  for (std::uint32_t home = 0; home < 64; ++home) {
    while ((net::mix32_avalanche(target) & 63) != home) ++target;
    const std::vector<net::FlowKey> keys =
        sim::craft_xorfold_collisions(params, target);
    FlatDemuxer d(FlatDemuxer::Options{64, net::HasherKind::kXorFold});
    for (const net::FlowKey& k : keys) ASSERT_NE(d.insert(k), nullptr);
    ASSERT_EQ(d.capacity(), 64u);
    SCOPED_TRACE(::testing::Message() << "home=" << home);
    for (const net::FlowKey& k : keys) {
      const LookupResult r = d.lookup(k);
      ASSERT_NE(r.pcb, nullptr) << k.to_string();
      EXPECT_EQ(r.pcb->key, k);
    }
    for (const net::FlowKey& k : keys) {
      EXPECT_TRUE(d.erase(k)) << k.to_string();
      EXPECT_EQ(validate_demuxer(d).to_string(), "");
    }
    EXPECT_EQ(d.size(), 0u);
    ++target;
  }
}

TEST(FlatDemuxerTest, BatchMatchesScalarExactly) {
  FlatDemuxer a(FlatDemuxer::Options{128});
  FlatDemuxer b(FlatDemuxer::Options{128});
  for (std::uint32_t i = 0; i < 300; ++i) {  // spans a growth
    a.insert(key(i));
    b.insert(key(i));
  }
  std::vector<net::FlowKey> keys;
  for (std::uint32_t i = 0; i < 64; ++i) keys.push_back(key(i * 7 % 400));
  std::vector<LookupResult> batch(keys.size());
  b.lookup_batch(keys, batch, SegmentKind::kData);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const auto scalar = a.lookup(keys[i]);
    EXPECT_EQ(batch[i].pcb == nullptr, scalar.pcb == nullptr) << i;
    EXPECT_EQ(batch[i].examined, scalar.examined) << i;
  }
  EXPECT_EQ(a.stats().lookups, b.stats().lookups);
  EXPECT_EQ(a.stats().pcbs_examined, b.stats().pcbs_examined);
}

}  // namespace
}  // namespace tcpdemux::core

// Property tests that every demultiplexing algorithm must satisfy,
// parameterized over all registry configurations: randomized
// insert/erase/lookup sequences are checked against a reference model
// (std::unordered_map) and the accounting invariants of the Demuxer
// contract.
#include <gtest/gtest.h>

#include <map>
#include <random>
#include <unordered_map>

#include "core/demux_registry.h"
#include "core/demuxer.h"

namespace tcpdemux::core {
namespace {

net::FlowKey key(std::uint32_t i) {
  return net::FlowKey{net::Ipv4Addr(10, 0, 0, 1), 1521,
                      net::Ipv4Addr(10, 1, static_cast<std::uint8_t>(i >> 8),
                                    static_cast<std::uint8_t>(i & 0xff)),
                      static_cast<std::uint16_t>(20000 + (i % 1000))};
}

class DemuxerProperty : public ::testing::TestWithParam<const char*> {
 protected:
  std::unique_ptr<Demuxer> make() const {
    const auto config = parse_demux_spec(GetParam());
    EXPECT_TRUE(config.has_value());
    return make_demuxer(*config);
  }
};

TEST_P(DemuxerProperty, RandomOpsAgreeWithReferenceModel) {
  auto d = make();
  std::unordered_map<net::FlowKey, bool> reference;
  std::mt19937_64 rng(2026);
  std::uint64_t examined_sum = 0;
  std::uint64_t lookups = 0;

  for (int step = 0; step < 4000; ++step) {
    const std::uint32_t i = static_cast<std::uint32_t>(rng() % 300);
    const net::FlowKey k = key(i);
    switch (rng() % 4) {
      case 0: {  // insert
        Pcb* p = d->insert(k);
        if (reference.contains(k)) {
          EXPECT_EQ(p, nullptr) << "duplicate insert must be rejected";
        } else if (p != nullptr) {
          EXPECT_EQ(p->key, k);
          reference.emplace(k, true);
        }
        break;
      }
      case 1: {  // erase
        const bool erased = d->erase(k);
        EXPECT_EQ(erased, reference.erase(k) == 1);
        break;
      }
      default: {  // lookup (both kinds)
        const auto kind =
            (rng() % 2 == 0) ? SegmentKind::kData : SegmentKind::kAck;
        const auto r = d->lookup(k, kind);
        ++lookups;
        examined_sum += r.examined;
        if (reference.contains(k)) {
          ASSERT_NE(r.pcb, nullptr);
          EXPECT_EQ(r.pcb->key, k);
          EXPECT_GE(r.examined, 1u);
        } else {
          EXPECT_EQ(r.pcb, nullptr);
        }
        // Nothing may ever examine more than every PCB plus two cache
        // probes.
        EXPECT_LE(r.examined, d->size() + 2);
        if (r.cache_hit) {
          EXPECT_NE(r.pcb, nullptr) << "cache hit without a PCB";
        }
        break;
      }
    }
    ASSERT_EQ(d->size(), reference.size());
  }

  EXPECT_EQ(d->stats().lookups, lookups);
  EXPECT_EQ(d->stats().pcbs_examined, examined_sum);
}

TEST_P(DemuxerProperty, EveryStoredKeyIsFindable) {
  auto d = make();
  constexpr std::uint32_t kN = 200;
  for (std::uint32_t i = 0; i < kN; ++i) {
    ASSERT_NE(d->insert(key(i)), nullptr) << i;
  }
  for (std::uint32_t i = 0; i < kN; ++i) {
    const auto r = d->lookup(key(i));
    ASSERT_NE(r.pcb, nullptr) << i;
    EXPECT_EQ(r.pcb->key, key(i));
  }
}

TEST_P(DemuxerProperty, ForEachEnumeratesExactlyStoredKeys) {
  auto d = make();
  std::map<std::uint16_t, int> expected;
  for (std::uint32_t i = 0; i < 100; ++i) {
    d->insert(key(i));
  }
  std::size_t visited = 0;
  d->for_each_pcb([&](const Pcb& p) {
    ++visited;
    EXPECT_EQ(p.key.local_port, 1521);
  });
  EXPECT_EQ(visited, 100u);
}

TEST_P(DemuxerProperty, EraseAllLeavesEmpty) {
  auto d = make();
  for (std::uint32_t i = 0; i < 100; ++i) d->insert(key(i));
  for (std::uint32_t i = 0; i < 100; ++i) EXPECT_TRUE(d->erase(key(i)));
  EXPECT_EQ(d->size(), 0u);
  for (std::uint32_t i = 0; i < 100; ++i) {
    EXPECT_EQ(d->lookup(key(i)).pcb, nullptr);
  }
}

TEST_P(DemuxerProperty, LookupAfterEraseNeverReturnsStalePcb) {
  auto d = make();
  d->insert(key(0));
  d->insert(key(1));
  (void)d->lookup(key(0), SegmentKind::kData);  // populate caches
  (void)d->lookup(key(0), SegmentKind::kAck);
  ASSERT_TRUE(d->erase(key(0)));
  const auto r = d->lookup(key(0));
  EXPECT_EQ(r.pcb, nullptr);  // a stale cache entry would return freed memory
}

TEST_P(DemuxerProperty, StatsResetClearsCounters) {
  auto d = make();
  d->insert(key(0));
  (void)d->lookup(key(0));
  EXPECT_GT(d->stats().lookups, 0u);
  d->reset_stats();
  EXPECT_EQ(d->stats().lookups, 0u);
  EXPECT_EQ(d->stats().pcbs_examined, 0u);
}

TEST_P(DemuxerProperty, RepeatedLookupOfSameKeyCostsAtMostFirstCost) {
  // All algorithms under test have the LRU-ish property that an immediate
  // repeat of the same key is no more expensive than the first access.
  auto d = make();
  for (std::uint32_t i = 0; i < 64; ++i) d->insert(key(i));
  for (std::uint32_t i = 0; i < 64; ++i) {
    const auto first = d->lookup(key(i));
    const auto second = d->lookup(key(i));
    EXPECT_LE(second.examined, first.examined) << i;
  }
}

// Growth drains the outgoing table a bounded batch per operation behind
// a cursor, and the drain must visit residents in chain order: relinking
// them in any other order — or at other moments — reshuffles chains,
// which moves the paper's cost metric. The growing table replays one
// seeded insert + lookup stream across at least three doublings; the
// exact examined and cache-hit totals are pinned.
TEST(GrowthOrder, DrainKeepsExactCosts) {
  struct Pin {
    const char* spec;
    std::uint64_t examined;
    std::uint64_t cache_hits;
  };
  const Pin pins[] = {{"dynamic:5:crc32", 8122, 1254}};
  for (const Pin& pin : pins) {
    auto d = make_demuxer(*parse_demux_spec(pin.spec));
    std::mt19937_64 rng(1992);
    for (std::uint32_t i = 0; i < 1200; ++i) {
      ASSERT_NE(d->insert(key(i)), nullptr) << pin.spec << " key " << i;
      for (int j = 0; j < 3; ++j) {
        (void)d->lookup(key(static_cast<std::uint32_t>(rng() % (i + 1))));
      }
      (void)d->lookup(key(1200 + static_cast<std::uint32_t>(rng() % 64)));
    }
    EXPECT_EQ(d->stats().pcbs_examined, pin.examined) << pin.spec;
    EXPECT_EQ(d->stats().cache_hits, pin.cache_hits) << pin.spec;
  }
}

// The RCU demuxer is the Sequent algorithm under a different memory
// discipline, so driven single-threaded through the registry it must be
// *indistinguishable*: same hits, same PCB keys, same examined counts,
// same cache behavior, on identical random op sequences. Each PCB is
// stamped with the step that inserted it, so a hit on an erased-then-
// reinserted key is told apart from a hit on the original.
class RcuVsSequentDifferential
    : public ::testing::TestWithParam<std::pair<const char*, const char*>> {};

TEST_P(RcuVsSequentDifferential, IdenticalCostsOnRandomOps) {
  const auto [rcu_spec, sequent_spec] = GetParam();
  auto rcu = make_demuxer(*parse_demux_spec(rcu_spec));
  auto seq = make_demuxer(*parse_demux_spec(sequent_spec));
  std::unordered_map<const Pcb*, int> rcu_stamp;
  std::unordered_map<const Pcb*, int> seq_stamp;
  std::mt19937_64 rng(4242);
  for (int step = 0; step < 6000; ++step) {
    const net::FlowKey k = key(static_cast<std::uint32_t>(rng() % 350));
    switch (rng() % 8) {
      case 0: {
        Pcb* a = rcu->insert(k);
        Pcb* b = seq->insert(k);
        ASSERT_EQ(a == nullptr, b == nullptr) << "step " << step;
        if (a != nullptr) {
          rcu_stamp[a] = step;
          seq_stamp[b] = step;
        }
        break;
      }
      case 1: {
        ASSERT_EQ(rcu->erase(k), seq->erase(k)) << "step " << step;
        break;
      }
      default: {  // lookups dominate, as in the modelled workload
        const auto kind =
            (rng() % 2 == 0) ? SegmentKind::kData : SegmentKind::kAck;
        const auto a = rcu->lookup(k, kind);
        const auto b = seq->lookup(k, kind);
        ASSERT_EQ(a.pcb == nullptr, b.pcb == nullptr) << "step " << step;
        if (a.pcb != nullptr) {
          ASSERT_EQ(a.pcb->key, b.pcb->key) << "step " << step;
          ASSERT_EQ(rcu_stamp.at(a.pcb), seq_stamp.at(b.pcb))
              << "step " << step;
        }
        ASSERT_EQ(a.examined, b.examined) << "step " << step;
        ASSERT_EQ(a.cache_hit, b.cache_hit) << "step " << step;
        break;
      }
    }
    ASSERT_EQ(rcu->size(), seq->size());
  }
  EXPECT_EQ(rcu->stats().lookups, seq->stats().lookups);
  EXPECT_EQ(rcu->stats().pcbs_examined, seq->stats().pcbs_examined);
  EXPECT_EQ(rcu->stats().cache_hits, seq->stats().cache_hits);
}

INSTANTIATE_TEST_SUITE_P(
    RcuMirrorsSequent, RcuVsSequentDifferential,
    ::testing::Values(
        std::pair("rcu", "sequent"),
        std::pair("rcu:101:crc32", "sequent:101:crc32"),
        std::pair("rcu:19:xor_fold:nocache", "sequent:19:xor_fold:nocache"),
        std::pair("rcu:1:jenkins", "sequent:1:jenkins")),
    [](const auto& info) {
      std::string name = info.param.first;
      // A bare algorithm name runs with the registry's default options.
      if (name.find(':') == std::string::npos) name += "_default_spec";
      for (char& c : name) {
        if (c == ':') c = '_';
      }
      return name;
    });

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, DemuxerProperty,
    ::testing::Values("bsd", "mtf", "srcache", "sequent", "sequent:1",
                      "sequent:101:crc32", "sequent:19:xor_fold:nocache",
                      "sequent:19:toeplitz", "sequent:19:jenkins",
                      "sequent:19:multiplicative", "sequent:19:add_fold",
                      "sequent:19:bsd_modulo", "hashed_mtf",
                      "hashed_mtf:101:crc32", "connection_id", "dynamic",
                      "dynamic:41:jenkins", "rcu", "rcu:101:crc32",
                      "rcu:19:xor_fold:nocache"),
    [](const auto& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == ':') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace tcpdemux::core

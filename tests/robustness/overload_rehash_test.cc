// Flood detection and graceful degradation: the watermark monitors must
// fire under a crafted collision flood, rotate the seed, and restore
// balanced placement — and must NEVER fire on benign traffic, however
// skewed, so the paper's unkeyed results stay untouched.
#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "core/demux_registry.h"
#include "core/fault_inject.h"
#include "core/sequent_hash.h"
#include "core/sharded_demuxer.h"
#include "core/validate.h"
#include "net/hashers.h"
#include "sim/collision_flood.h"

namespace tcpdemux::core {
namespace {

std::vector<net::FlowKey> random_keys(std::size_t n, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::vector<net::FlowKey> keys;
  keys.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    keys.push_back(net::FlowKey{net::Ipv4Addr(rng() | 1u),
                                static_cast<std::uint16_t>(rng() | 1u),
                                net::Ipv4Addr(rng() | 1u),
                                static_cast<std::uint16_t>(rng() | 1u)});
  }
  return keys;
}

// Seed rotations so far, read from the telemetry registry (a sharded
// demuxer's merged view sums its shards).
std::uint64_t rehashes_of(const Demuxer& d) {
  return d.telemetry().counters().rehashes;
}

TEST(OverloadRehash, SequentRotatesSeedAndRebalancesUnderChainFlood) {
  SequentDemuxer demuxer(
      {19, {net::HasherKind::kXorFold, 0}, true, /*rehash_on_overload=*/true,
       0});
  ASSERT_FALSE(demuxer.hash_spec().keyed());

  // Craft keys that all land on chain 7 under the demuxer's CURRENT
  // placement — exactly what an attacker probing an unkeyed table does.
  sim::CollisionFloodParams params;
  params.count = 600;
  const auto flood = sim::craft_colliding_keys(
      params,
      [&](const net::FlowKey& k) {
        return net::hash_chain(demuxer.hash_spec(), k, demuxer.chains());
      },
      7);

  for (const net::FlowKey& key : flood) {
    ASSERT_NE(demuxer.insert(key), nullptr);
  }
  const std::uint64_t rehashes = rehashes_of(demuxer);
  EXPECT_GE(rehashes, 1u);
  // The rotation keyed the table; crafted keys now spread across chains.
  EXPECT_TRUE(demuxer.hash_spec().keyed());
  const auto sizes = demuxer.chain_sizes();
  const std::size_t longest = *std::max_element(sizes.begin(), sizes.end());
  EXPECT_LE(longest, demuxer.watermark_limit());
  // Cooldown hysteresis: the flood keeps inserting after the first
  // rotation, but rotations stay rare, not one-per-insert.
  EXPECT_LE(rehashes, 4u);

  // Pointer-stable rebuild: every key still found, structure well-formed.
  EXPECT_EQ(demuxer.size(), flood.size());
  for (const net::FlowKey& key : flood) {
    EXPECT_NE(demuxer.lookup(key).pcb, nullptr);
  }
  EXPECT_EQ(validate_demuxer(demuxer).to_string(), "");
}

TEST(OverloadRehash, SequentNeverFiresOnBenignTraffic) {
  SequentDemuxer demuxer(
      {19, {net::HasherKind::kCrc32, 0}, true, /*rehash_on_overload=*/true,
       0});
  for (const net::FlowKey& key : random_keys(4000, 0xbe9191)) {
    demuxer.insert(key);
  }
  EXPECT_EQ(rehashes_of(demuxer), 0u);
  EXPECT_FALSE(demuxer.hash_spec().keyed());
  EXPECT_LE(demuxer.watermark(), demuxer.watermark_limit());
}

TEST(OverloadRehash, SequentWithoutPolicyOnlyReportsWatermark) {
  // rehash_on_overload defaults off: the monitor is observability only.
  SequentDemuxer demuxer({19, {net::HasherKind::kXorFold, 0}, true, false, 0});
  sim::CollisionFloodParams params;
  params.count = 300;
  const auto flood = sim::craft_colliding_keys(
      params,
      [&](const net::FlowKey& k) {
        return net::hash_chain(demuxer.hash_spec(), k, demuxer.chains());
      },
      3);
  for (const net::FlowKey& key : flood) demuxer.insert(key);
  EXPECT_EQ(rehashes_of(demuxer), 0u);
  EXPECT_EQ(demuxer.watermark(), flood.size());  // the pileup is visible
  EXPECT_GT(demuxer.watermark(), demuxer.watermark_limit());
  EXPECT_FALSE(demuxer.hash_spec().keyed());
}

TEST(OverloadRehash, RehashSurvivesChurnAfterRotation) {
  // Insert flood, trigger rotation, then erase half and reinsert fresh
  // benign keys: counters stay sane and the validator stays clean.
  SequentDemuxer demuxer(
      {19, {net::HasherKind::kXorFold, 0}, true, true, 0});
  sim::CollisionFloodParams params;
  params.count = 400;
  const auto flood = sim::craft_colliding_keys(
      params,
      [&](const net::FlowKey& k) {
        return net::hash_chain(demuxer.hash_spec(), k, demuxer.chains());
      },
      0);
  for (const net::FlowKey& key : flood) demuxer.insert(key);
  ASSERT_GE(rehashes_of(demuxer), 1u);

  for (std::size_t i = 0; i < flood.size(); i += 2) {
    EXPECT_TRUE(demuxer.erase(flood[i]));
  }
  for (const net::FlowKey& key : random_keys(500, 0xc0ffee)) {
    demuxer.insert(key);
  }
  EXPECT_EQ(validate_demuxer(demuxer).to_string(), "");
  for (std::size_t i = 1; i < flood.size(); i += 2) {
    EXPECT_NE(demuxer.lookup(flood[i]).pcb, nullptr);
  }
}

// A seed rotation allocates its fresh table before it swings the seed, and
// polls the allocation-failure injector first. A refused rotation must
// keep serving under the current seed with every PCB where it was, and
// the rotation must happen once the allocator recovers.
struct RotationCase {
  const char* spec;
  /// Keys that drive the spec's overload trigger from an empty table.
  std::vector<net::FlowKey> (*flood)();
};

// Lists the case by its spec, so the test name is the same in every build.
void PrintTo(const RotationCase& c, std::ostream* os) { *os << c.spec; }

// Full 32-bit xor_fold collisions: one chain at any size.
std::vector<net::FlowKey> xorfold_flood() {
  sim::CollisionFloodParams params;
  params.count = 200;
  return sim::craft_xorfold_collisions(params, 0x1234abcd);
}

const SequentDemuxer& sequent_of(const Demuxer& d) {
  return dynamic_cast<const SequentDemuxer&>(d);
}

net::HashSpec hash_spec_of(const Demuxer& d) {
  return sequent_of(d).hash_spec();
}

class RefusedRotationTest : public ::testing::TestWithParam<RotationCase> {
 protected:
  // The injector is process-wide; leave it disarmed even on failure.
  void TearDown() override { FaultInjector::instance().reset(); }
};

TEST_P(RefusedRotationTest, KeepsSeedAndEveryPcbThenRotatesOnRecovery) {
  const auto demuxer = make_demuxer(*parse_demux_spec(GetParam().spec));
  ASSERT_NE(demuxer, nullptr);
  const net::HashSpec before = hash_spec_of(*demuxer);
  const std::vector<net::FlowKey> flood = GetParam().flood();
  auto& injector = FaultInjector::instance();

  // Each insert polls once for its own PCB; arm_after(2) refuses the next
  // poll, which on the insert that trips the overload trigger is the
  // rotation's.
  std::vector<std::pair<net::FlowKey, Pcb*>> placed;
  std::size_t next = 0;
  bool refused = false;
  while (!refused && next < flood.size()) {
    injector.reset();
    injector.arm_after(2);
    const net::FlowKey& key = flood[next++];
    if (Pcb* pcb = demuxer->insert(key)) placed.emplace_back(key, pcb);
    refused = injector.injected() != 0;
  }
  injector.reset();
  ASSERT_TRUE(refused) << "the flood never reached the rotation trigger";
  // The refused poll was the rotation's, not a growth's.
  EXPECT_EQ(demuxer->telemetry().counters().resizes_deferred, 0u);

  EXPECT_EQ(hash_spec_of(*demuxer).kind, before.kind);
  EXPECT_EQ(hash_spec_of(*demuxer).seed, before.seed);
  EXPECT_EQ(rehashes_of(*demuxer), 0u);
  EXPECT_EQ(demuxer->size(), placed.size());
  for (const auto& [key, pcb] : placed) {
    EXPECT_EQ(demuxer->lookup(key).pcb, pcb);
  }
  EXPECT_EQ(validate_demuxer(*demuxer).to_string(), "");

  // Disarmed, the trigger fires again once its cooldown has passed: the
  // flood keeps coming, with benign arrivals to run the cooldown down.
  const auto benign = random_keys(1024, 0xfeed);
  for (std::size_t i = 0;
       i < benign.size() && rehashes_of(*demuxer) == 0;
       ++i) {
    for (const net::FlowKey& key : {flood[next++ % flood.size()], benign[i]}) {
      if (Pcb* pcb = demuxer->insert(key)) placed.emplace_back(key, pcb);
    }
  }
  EXPECT_GE(rehashes_of(*demuxer), 1u);
  EXPECT_NE(hash_spec_of(*demuxer).seed, before.seed);
  for (const auto& [key, pcb] : placed) {
    EXPECT_EQ(demuxer->lookup(key).pcb, pcb);
  }
  EXPECT_EQ(validate_demuxer(*demuxer).to_string(), "");
}

INSTANTIATE_TEST_SUITE_P(
    RotatingTables, RefusedRotationTest,
    ::testing::Values(RotationCase{"sequent:19:xor_fold:rehash", xorfold_flood}),
    [](const ::testing::TestParamInfo<RotationCase>& info) {
      std::string name = info.param.spec;
      for (char& c : name) {
        if (c == ':') c = '_';
      }
      return name;
    });

// Exact post-rotation behaviour. A rotation re-places every resident in
// drain-sweep order (chains front to back); any other order reshuffles
// chains, which moves the paper's cost metric. Each case replays one
// seeded flood-plus-benign insert stream through the spec's rotations,
// then a fixed lookup pass, and pins the totals, the final seed, the
// rotation count and the watermark.
struct RotationPin {
  RotationCase rotation;
  std::uint64_t examined;
  std::uint64_t cache_hits;
  std::uint32_t seed;
  std::uint64_t rotations;
  std::uint64_t watermark;
  std::uint64_t watermark_limit;
};

void PrintTo(const RotationPin& p, std::ostream* os) { *os << p.rotation.spec; }

class RotationPinTest : public ::testing::TestWithParam<RotationPin> {};

TEST_P(RotationPinTest, FloodThenLookupsKeepExactCosts) {
  const RotationPin& pin = GetParam();
  const auto demuxer = make_demuxer(*parse_demux_spec(pin.rotation.spec));
  ASSERT_NE(demuxer, nullptr);
  const std::vector<net::FlowKey> flood = pin.rotation.flood();
  const std::vector<net::FlowKey> benign = random_keys(400, 0x5eed1992);
  std::vector<net::FlowKey> resident;
  for (std::size_t i = 0; i < benign.size(); ++i) {
    if (i < flood.size() && demuxer->insert(flood[i]) != nullptr) {
      resident.push_back(flood[i]);
    }
    if (demuxer->insert(benign[i]) != nullptr) resident.push_back(benign[i]);
  }
  ASSERT_GE(rehashes_of(*demuxer), 1u);
  std::mt19937 rng(1992);
  const std::vector<net::FlowKey> absent = random_keys(64, 0xab5e47);
  for (int i = 0; i < 4000; ++i) {
    (void)demuxer->lookup(resident[rng() % resident.size()]);
    if (i % 8 == 0) (void)demuxer->lookup(absent[rng() % absent.size()]);
  }
  EXPECT_EQ(demuxer->stats().pcbs_examined, pin.examined);
  EXPECT_EQ(demuxer->stats().cache_hits, pin.cache_hits);
  EXPECT_EQ(hash_spec_of(*demuxer).seed, pin.seed);
  EXPECT_EQ(rehashes_of(*demuxer), pin.rotations);
  EXPECT_EQ(sequent_of(*demuxer).watermark(), pin.watermark);
  EXPECT_EQ(sequent_of(*demuxer).watermark_limit(), pin.watermark_limit);
  EXPECT_EQ(validate_demuxer(*demuxer).to_string(), "");
}

INSTANTIATE_TEST_SUITE_P(
    RotatingTables, RotationPinTest,
    ::testing::Values(
        RotationPin{{"sequent:19:xor_fold:rehash", xorfold_flood},
                    208121, 130, 1468022192, 3, 218, 272}),
    [](const ::testing::TestParamInfo<RotationPin>& info) {
      std::string name = info.param.rotation.spec;
      for (char& c : name) {
        if (c == ':') c = '_';
      }
      return name;
    });

// The rotation storm. Full 32-bit xor_fold collisions survive every
// post-mixed seed, so no rotation can bring the watermark back under its
// limit, and each one re-places the whole table for nothing. A rotation
// that fails so doubles the cooldown before the next attempt, so the
// rotation count grows with the log of the flood's length: each fourfold
// longer flood buys at most two more rotations.
class RotationStormTest : public ::testing::TestWithParam<const char*> {};

TEST_P(RotationStormTest, RotationsGrowWithTheLogOfTheFloodLength) {
  std::uint64_t previous = 0;
  for (const std::uint32_t length : {256U, 1024U, 4096U}) {
    const auto demuxer = make_demuxer(*parse_demux_spec(GetParam()));
    ASSERT_NE(demuxer, nullptr);
    sim::CollisionFloodParams params;
    params.count = length;
    for (const net::FlowKey& key :
         sim::craft_xorfold_collisions(params, 0x1234abcd)) {
      ASSERT_NE(demuxer->insert(key), nullptr);
    }
    const SequentDemuxer& table = sequent_of(*demuxer);
    const std::uint64_t rehashes = rehashes_of(table);
    SCOPED_TRACE(::testing::Message() << GetParam() << " length " << length);
    // No seed broke the flood.
    EXPECT_GT(table.watermark(), table.watermark_limit());
    EXPECT_GE(rehashes, 1u);
    if (previous != 0) {
      EXPECT_LE(rehashes, previous + 2);
    }
    previous = rehashes;
  }
}

INSTANTIATE_TEST_SUITE_P(
    UnbreakableFlood, RotationStormTest,
    ::testing::Values("sequent:19:xor_fold:rehash"),
    [](const ::testing::TestParamInfo<const char*>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == ':') c = '_';
      }
      return name;
    });

// The rotation ledger, mirror of ResizeLadderTest.EachDoublingCountsOnce:
// every seed change counts exactly once in `rehashes`, and a rotation is
// never a resize. The flood stays below kPerTableCap residents per table,
// then churns —
// erase one resident, insert it again — so the cooldown keeps expiring
// while the watermark stays high and the tables rotate repeatedly.
class RotationLedgerTest : public ::testing::TestWithParam<RotationCase> {};

TEST_P(RotationLedgerTest, EachRotationCountsOnce) {
  const auto demuxer = make_demuxer(*parse_demux_spec(GetParam().spec));
  ASSERT_NE(demuxer, nullptr);
  // The tables that own a seed: the shards of a sharded spec, else the
  // demuxer itself.
  std::vector<const Demuxer*> tables{demuxer.get()};
  const auto* sharded = dynamic_cast<const ShardedDemuxer*>(demuxer.get());
  if (sharded != nullptr) {
    tables.clear();
    for (std::uint32_t s = 0; s < sharded->shard_count(); ++s) {
      tables.push_back(&sharded->shard(s));
    }
  }
  const auto table_of = [&](const net::FlowKey& key) {
    return sharded != nullptr ? tables[sharded->home_shard(key)] : tables[0];
  };
  std::vector<std::uint32_t> seeds;
  for (const Demuxer* t : tables) seeds.push_back(hash_spec_of(*t).seed);

  std::uint64_t seed_changes = 0;
  const auto insert_counted = [&](const net::FlowKey& key) {
    const std::uint64_t before = demuxer->telemetry().counters().rehashes;
    const bool placed = demuxer->insert(key) != nullptr;
    std::uint64_t changed = 0;
    for (std::size_t t = 0; t < tables.size(); ++t) {
      const std::uint32_t now = hash_spec_of(*tables[t]).seed;
      if (now != seeds[t]) ++changed;
      seeds[t] = now;
    }
    EXPECT_EQ(demuxer->telemetry().counters().rehashes - before, changed)
        << GetParam().spec << " key " << key.to_string();
    seed_changes += changed;
    return placed;
  };

  constexpr std::size_t kPerTableCap = 52;
  std::vector<net::FlowKey> resident;
  for (const net::FlowKey& key : GetParam().flood()) {
    if (table_of(key)->size() >= kPerTableCap) continue;
    if (insert_counted(key)) resident.push_back(key);
  }
  ASSERT_FALSE(resident.empty());
  for (std::size_t round = 0; round < 400; ++round) {
    const net::FlowKey key = resident[round % resident.size()];
    ASSERT_TRUE(demuxer->erase(key)) << GetParam().spec;
    ASSERT_TRUE(insert_counted(key)) << GetParam().spec;
  }

  const report::Telemetry telemetry = demuxer->telemetry();
  const auto& counters = telemetry.counters();
  EXPECT_GE(seed_changes, 1u) << GetParam().spec;
  EXPECT_EQ(counters.rehashes, seed_changes) << GetParam().spec;
  EXPECT_EQ(counters.resizes_started, 0u) << GetParam().spec;
  EXPECT_EQ(counters.resizes_completed, 0u) << GetParam().spec;
  EXPECT_EQ(counters.resizes_deferred, 0u) << GetParam().spec;
  EXPECT_EQ(counters.resize_steps, 0u) << GetParam().spec;
  EXPECT_EQ(validate_demuxer(*demuxer).to_string(), "");
}

INSTANTIATE_TEST_SUITE_P(
    RotatingTables, RotationLedgerTest,
    ::testing::Values(
        RotationCase{"sequent:19:xor_fold:rehash", xorfold_flood},
        RotationCase{"sharded:2:sequent:19:xor_fold:rehash", xorfold_flood}),
    [](const ::testing::TestParamInfo<RotationCase>& info) {
      std::string name = info.param.spec;
      for (char& c : name) {
        if (c == ':') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace tcpdemux::core

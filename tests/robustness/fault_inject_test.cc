// Allocation-failure injection: the injector's own counting semantics,
// and the contract that a refused insert leaves every demuxer (and the
// SYN cache) in a validator-clean, size-unchanged state.
#include <gtest/gtest.h>

#include <string>

#include "core/demux_registry.h"
#include "core/fault_inject.h"
#include "core/validate.h"
#include "net/flow_key.h"
#include "tcp/syn_cache.h"

namespace tcpdemux::core {
namespace {

// The injector is process-wide: every test must leave it disarmed even on
// assertion failure, or it would poison later tests in the same binary.
struct InjectorGuard {
  InjectorGuard() { FaultInjector::instance().reset(); }
  ~InjectorGuard() { FaultInjector::instance().reset(); }
};

net::FlowKey nth_key(std::uint32_t i) {
  return net::FlowKey{net::Ipv4Addr(10, 0, 0, 1), 1521,
                      net::Ipv4Addr(0x0a020000U + i),
                      static_cast<std::uint16_t>(2000 + (i & 0x7fff))};
}

TEST(FaultInjector, ArmAfterFailsExactlyTheNthPollThenDisarms) {
  InjectorGuard guard;
  auto& injector = FaultInjector::instance();
  injector.arm_after(3);
  EXPECT_FALSE(injector.poll_alloc());
  EXPECT_FALSE(injector.poll_alloc());
  EXPECT_TRUE(injector.poll_alloc());
  EXPECT_FALSE(injector.poll_alloc());  // self-disarmed
  EXPECT_EQ(injector.injected(), 1u);
  EXPECT_EQ(injector.checkpoints(), 3u);  // disarmed poll not counted
}

TEST(FaultInjector, ArmEveryFailsPeriodically) {
  InjectorGuard guard;
  auto& injector = FaultInjector::instance();
  injector.arm_every(3);
  int injected = 0;
  for (int i = 1; i <= 12; ++i) {
    const bool failed = injector.poll_alloc();
    EXPECT_EQ(failed, i % 3 == 0) << "poll " << i;
    if (failed) ++injected;
  }
  EXPECT_EQ(injected, 4);
  EXPECT_EQ(injector.injected(), 4u);
  EXPECT_EQ(injector.checkpoints(), 12u);
}

TEST(FaultInjector, DisarmedPollsAreFreeAndUncounted) {
  InjectorGuard guard;
  auto& injector = FaultInjector::instance();
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(injector.poll_alloc());
  EXPECT_EQ(injector.checkpoints(), 0u);
  EXPECT_EQ(injector.injected(), 0u);
}

TEST(FaultInjector, ResetZeroesCountersDisarmKeepsThem) {
  InjectorGuard guard;
  auto& injector = FaultInjector::instance();
  injector.arm_every(1);
  EXPECT_TRUE(injector.poll_alloc());
  injector.disarm();
  EXPECT_EQ(injector.injected(), 1u);
  EXPECT_EQ(injector.checkpoints(), 1u);
  injector.reset();
  EXPECT_EQ(injector.injected(), 0u);
  EXPECT_EQ(injector.checkpoints(), 0u);
}

class InsertFaultTest : public ::testing::TestWithParam<const char*> {};

TEST_P(InsertFaultTest, RefusedInsertLeavesStructureIntact) {
  InjectorGuard guard;
  auto& injector = FaultInjector::instance();
  const std::string spec = GetParam();
  const auto config = parse_demux_spec(spec);
  ASSERT_TRUE(config.has_value()) << spec;
  const auto demuxer = make_demuxer(*config);
  ASSERT_NE(demuxer, nullptr);

  // Seed some population first so the refusal happens mid-structure, not
  // on an empty table.
  for (std::uint32_t i = 0; i < 40; ++i) {
    ASSERT_NE(demuxer->insert(nth_key(i)), nullptr) << spec;
  }
  ASSERT_EQ(validate_demuxer(*demuxer).to_string(), "");

  // Every allocation now fails: inserts of NEW keys must back out cleanly.
  injector.arm_every(1);
  for (std::uint32_t i = 40; i < 60; ++i) {
    EXPECT_EQ(demuxer->insert(nth_key(i)), nullptr) << spec;
  }
  injector.disarm();
  EXPECT_EQ(injector.injected(), 20u) << spec;
  EXPECT_EQ(demuxer->size(), 40u);
  EXPECT_EQ(validate_demuxer(*demuxer).to_string(), "") << spec;

  // A duplicate insert never reaches the allocation point.
  injector.reset();
  injector.arm_every(1);
  EXPECT_EQ(demuxer->insert(nth_key(0)), nullptr);
  injector.disarm();
  EXPECT_EQ(injector.injected(), 0u) << spec;

  // Recovery: with the injector off, the refused keys insert normally and
  // everything is findable.
  for (std::uint32_t i = 40; i < 60; ++i) {
    ASSERT_NE(demuxer->insert(nth_key(i)), nullptr) << spec;
  }
  EXPECT_EQ(demuxer->size(), 60u);
  for (std::uint32_t i = 0; i < 60; ++i) {
    EXPECT_NE(demuxer->lookup(nth_key(i)).pcb, nullptr) << spec << " " << i;
  }
  EXPECT_EQ(validate_demuxer(*demuxer).to_string(), "") << spec;
}

INSTANTIATE_TEST_SUITE_P(
    AllDemuxers, InsertFaultTest,
    ::testing::Values("bsd", "mtf", "srcache", "connection_id:256", "sequent",
                      "sequent:7:crc32:nocache", "hashed_mtf:19",
                      "dynamic:5:crc32", "rcu", "rcu:7:crc32:nocache",
                      "sequent:19:siphash@5eed:rehash", "sharded:4:dynamic",
                      "sharded:2:sequent:19:crc32"),
    [](const ::testing::TestParamInfo<const char*>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == ':' || c == '@' || c == '=') c = '_';
      }
      return name;
    });

TEST(FaultInjector, SynCacheCountsRefusedAdds) {
  InjectorGuard guard;
  tcp::SynCache cache;
  ASSERT_NE(cache.add(nth_key(0), 1, 2, 0.0), nullptr);
  // Persistent failure: the add sheds the globally oldest embryo to free
  // room, re-polls, still fails, and refuses — both attempts are counted.
  FaultInjector::instance().arm_every(1);
  EXPECT_EQ(cache.add(nth_key(1), 1, 2, 0.1), nullptr);
  FaultInjector::instance().disarm();
  EXPECT_EQ(cache.stats().alloc_failed, 2u);
  EXPECT_EQ(cache.stats().shed, 1u);
  EXPECT_EQ(cache.size(), 0u);
  // The refused embryo is simply absent; a later add succeeds.
  EXPECT_EQ(cache.find(nth_key(1)), nullptr);
  EXPECT_NE(cache.add(nth_key(1), 1, 2, 0.2), nullptr);
  EXPECT_EQ(cache.size(), 1u);
  // An empty cache has nothing to shed: one poll, one refusal.
  tcp::SynCache empty;
  FaultInjector::instance().arm_every(1);
  EXPECT_EQ(empty.add(nth_key(2), 1, 2, 0.3), nullptr);
  FaultInjector::instance().disarm();
  EXPECT_EQ(empty.stats().alloc_failed, 1u);
  EXPECT_EQ(empty.stats().shed, 0u);
  // A duplicate add never reaches the allocation point.
  FaultInjector::instance().arm_every(1);
  EXPECT_NE(cache.add(nth_key(1), 9, 9, 0.4), nullptr);
  FaultInjector::instance().disarm();
  EXPECT_EQ(cache.stats().alloc_failed, 2u);
}

// Regression: before the degradation-ladder PR, an injected allocation
// failure refused the add outright even though the cache held evictable
// embryos — a transient memory spike silently disabled the handshake
// path while stale embryos sat on the budget. A single-shot failure must
// instead shed the globally oldest embryo and admit the newcomer.
TEST(FaultInjector, SynCacheAllocFailureShedsOldestAndAdmits) {
  InjectorGuard guard;
  tcp::SynCache cache;
  ASSERT_NE(cache.add(nth_key(0), 1, 2, 0.0), nullptr);  // oldest
  ASSERT_NE(cache.add(nth_key(1), 1, 2, 1.0), nullptr);
  FaultInjector::instance().arm_after(1);  // fail exactly the next poll
  const auto* entry = cache.add(nth_key(2), 3, 4, 2.0);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->key, nth_key(2));
  EXPECT_EQ(cache.stats().alloc_failed, 1u);
  EXPECT_EQ(cache.stats().shed, 1u);
  // The globally oldest embryo paid for the newcomer; the rest survive.
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.find(nth_key(0)), nullptr);
  EXPECT_NE(cache.find(nth_key(1)), nullptr);
  EXPECT_NE(cache.find(nth_key(2)), nullptr);
}

}  // namespace
}  // namespace tcpdemux::core

#include "core/move_to_front.h"

#include <gtest/gtest.h>

#include <vector>

namespace tcpdemux::core {
namespace {

net::FlowKey key(std::uint16_t port) {
  return net::FlowKey{net::Ipv4Addr(10, 0, 0, 1), 1521,
                      net::Ipv4Addr(10, 1, 0, 2), port};
}

TEST(MoveToFront, LookupMovesToFront) {
  MoveToFrontDemuxer d;
  for (std::uint16_t p = 1; p <= 5; ++p) d.insert(key(p));
  EXPECT_EQ(d.lookup(key(1)).examined, 5u);  // tail
  EXPECT_EQ(d.front()->key, key(1));
  EXPECT_EQ(d.lookup(key(1)).examined, 1u);  // now at the front
}

TEST(MoveToFront, HeadHitCountsAsCacheHit) {
  MoveToFrontDemuxer d;
  d.insert(key(1));
  d.insert(key(2));
  (void)d.lookup(key(1));
  const auto r = d.lookup(key(1));
  EXPECT_TRUE(r.cache_hit);
}

TEST(MoveToFront, DeepHitIsNotCacheHit) {
  MoveToFrontDemuxer d;
  d.insert(key(1));
  d.insert(key(2));
  const auto r = d.lookup(key(1));  // position 2
  EXPECT_FALSE(r.cache_hit);
}

TEST(MoveToFront, OthersShiftBackByOne) {
  MoveToFrontDemuxer d;
  for (std::uint16_t p = 1; p <= 4; ++p) d.insert(key(p));
  // Order: 4,3,2,1. Touch 2 -> 2,4,3,1.
  (void)d.lookup(key(2));
  std::vector<std::uint16_t> order;
  d.for_each_pcb([&](const Pcb& p) { order.push_back(p.key.foreign_port); });
  EXPECT_EQ(order, (std::vector<std::uint16_t>{2, 4, 3, 1}));
}

TEST(MoveToFront, MissDoesNotReorder) {
  MoveToFrontDemuxer d;
  for (std::uint16_t p = 1; p <= 3; ++p) d.insert(key(p));
  const auto r = d.lookup(key(99));
  EXPECT_EQ(r.pcb, nullptr);
  EXPECT_EQ(r.examined, 3u);
  EXPECT_EQ(d.front()->key, key(3));
}

TEST(MoveToFront, RoundRobinDegradesToFullScan) {
  // The paper's §3.2 worst case: with deterministic rotation every lookup
  // scans the whole list.
  MoveToFrontDemuxer d;
  constexpr std::uint16_t kN = 50;
  for (std::uint16_t p = 1; p <= kN; ++p) d.insert(key(p));
  // Warm one full rotation to reach the steady-state order.
  for (std::uint16_t p = 1; p <= kN; ++p) (void)d.lookup(key(p));
  d.reset_stats();
  for (std::uint16_t p = 1; p <= kN; ++p) {
    EXPECT_EQ(d.lookup(key(p)).examined, kN);
  }
  EXPECT_DOUBLE_EQ(d.stats().mean_examined(), kN);
}

TEST(MoveToFront, RepeatedSameKeyIsAlwaysOne) {
  MoveToFrontDemuxer d;
  for (std::uint16_t p = 1; p <= 10; ++p) d.insert(key(p));
  (void)d.lookup(key(4));
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(d.lookup(key(4)).examined, 1u);
  }
}

TEST(MoveToFront, EraseWorksFromAnyPosition) {
  MoveToFrontDemuxer d;
  for (std::uint16_t p = 1; p <= 3; ++p) d.insert(key(p));
  EXPECT_TRUE(d.erase(key(2)));
  EXPECT_FALSE(d.erase(key(2)));
  EXPECT_EQ(d.size(), 2u);
  EXPECT_EQ(d.lookup(key(2)).pcb, nullptr);
}

TEST(MoveToFront, DuplicateInsertRejected) {
  MoveToFrontDemuxer d;
  EXPECT_NE(d.insert(key(1)), nullptr);
  EXPECT_EQ(d.insert(key(1)), nullptr);
}

}  // namespace
}  // namespace tcpdemux::core

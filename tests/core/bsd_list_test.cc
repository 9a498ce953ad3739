#include "core/bsd_list.h"

#include <gtest/gtest.h>

namespace tcpdemux::core {
namespace {

net::FlowKey key(std::uint16_t port) {
  return net::FlowKey{net::Ipv4Addr(10, 0, 0, 1), 1521,
                      net::Ipv4Addr(10, 1, 0, 2), port};
}

TEST(BsdList, InsertAndLookup) {
  BsdListDemuxer d;
  Pcb* p = d.insert(key(1));
  ASSERT_NE(p, nullptr);
  const auto r = d.lookup(key(1));
  EXPECT_EQ(r.pcb, p);
  EXPECT_EQ(d.size(), 1u);
}

TEST(BsdList, DuplicateInsertRejected) {
  BsdListDemuxer d;
  EXPECT_NE(d.insert(key(1)), nullptr);
  EXPECT_EQ(d.insert(key(1)), nullptr);
  EXPECT_EQ(d.size(), 1u);
}

TEST(BsdList, FirstLookupMissesCacheAndScans) {
  BsdListDemuxer d;
  for (std::uint16_t p = 1; p <= 10; ++p) d.insert(key(p));
  // Cache empty; key(1) is deepest (inserted first => tail of list).
  const auto r = d.lookup(key(1));
  EXPECT_FALSE(r.cache_hit);
  EXPECT_EQ(r.examined, 10u);
}

TEST(BsdList, RepeatLookupHitsCacheWithCostOne) {
  BsdListDemuxer d;
  for (std::uint16_t p = 1; p <= 10; ++p) d.insert(key(p));
  (void)d.lookup(key(1));
  const auto r = d.lookup(key(1));
  EXPECT_TRUE(r.cache_hit);
  EXPECT_EQ(r.examined, 1u);
  EXPECT_EQ(r.pcb->key, key(1));
}

TEST(BsdList, CacheMissCostsOneProbePlusScan) {
  BsdListDemuxer d;
  for (std::uint16_t p = 1; p <= 10; ++p) d.insert(key(p));
  (void)d.lookup(key(1));  // cache := key(1)
  // key(10) was inserted last => head of list, scan position 1.
  const auto r = d.lookup(key(10));
  EXPECT_FALSE(r.cache_hit);
  EXPECT_EQ(r.examined, 1u + 1u);  // cache probe + head node
}

TEST(BsdList, CacheDoesNotReorderList) {
  BsdListDemuxer d;
  for (std::uint16_t p = 1; p <= 5; ++p) d.insert(key(p));
  (void)d.lookup(key(1));  // tail lookup
  (void)d.lookup(key(2));  // scan again: cache probe + 4 nodes (pos 4)
  const auto r = d.lookup(key(1));
  // key(1) is still at the tail: cache probe (1) + full scan (5).
  EXPECT_EQ(r.examined, 6u);
}

TEST(BsdList, LookupMissReturnsNull) {
  BsdListDemuxer d;
  d.insert(key(1));
  const auto r = d.lookup(key(2));
  EXPECT_EQ(r.pcb, nullptr);
  EXPECT_EQ(r.examined, 1u);  // empty cache skipped; scan of the 1 PCB
}

TEST(BsdList, EraseInvalidatesCache) {
  BsdListDemuxer d;
  d.insert(key(1));
  d.insert(key(2));
  (void)d.lookup(key(1));
  EXPECT_EQ(d.cached()->key, key(1));
  EXPECT_TRUE(d.erase(key(1)));
  EXPECT_EQ(d.cached(), nullptr);
  const auto r = d.lookup(key(1));
  EXPECT_EQ(r.pcb, nullptr);
}

TEST(BsdList, EraseMissingReturnsFalse) {
  BsdListDemuxer d;
  EXPECT_FALSE(d.erase(key(1)));
}

TEST(BsdList, StatsAccumulate) {
  BsdListDemuxer d;
  for (std::uint16_t p = 1; p <= 4; ++p) d.insert(key(p));
  (void)d.lookup(key(4));  // head: scan 1 (no cache yet)
  (void)d.lookup(key(4));  // cache hit: 1
  (void)d.lookup(key(1));  // probe 1 + scan 4
  const DemuxStats& s = d.stats();
  EXPECT_EQ(s.lookups, 3u);
  EXPECT_EQ(s.cache_hits, 1u);
  EXPECT_EQ(s.found, 3u);
  EXPECT_EQ(s.pcbs_examined, 1u + 1u + 5u);
  EXPECT_NEAR(s.mean_examined(), 7.0 / 3.0, 1e-12);
  EXPECT_NEAR(s.hit_rate(), 1.0 / 3.0, 1e-12);
}

TEST(BsdList, NewestInsertSitsAtHead) {
  BsdListDemuxer d;
  for (std::uint16_t p = 1; p <= 3; ++p) d.insert(key(p));
  const auto r = d.lookup(key(3));
  EXPECT_EQ(r.examined, 1u);  // head, empty cache skipped? no cache yet
}

TEST(BsdList, ForEachVisitsAll) {
  BsdListDemuxer d;
  for (std::uint16_t p = 1; p <= 7; ++p) d.insert(key(p));
  std::size_t count = 0;
  d.for_each_pcb([&](const Pcb&) { ++count; });
  EXPECT_EQ(count, 7u);
}

TEST(BsdList, PcbsArePackedDensely) {
  // Fresh PCBs take consecutive one-line slab slots: a connection costs
  // its 64 bytes and nothing beside them.
  BsdListDemuxer d;
  Pcb* a = d.insert(key(1));
  Pcb* b = d.insert(key(2));
  EXPECT_EQ(a + 1, b);
}

}  // namespace
}  // namespace tcpdemux::core

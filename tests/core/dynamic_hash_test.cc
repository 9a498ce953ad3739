// SequentDemuxer with growth switched on: the registry's `dynamic`.
#include "core/sequent_hash.h"

#include <gtest/gtest.h>

namespace tcpdemux::core {
namespace {

net::FlowKey key(std::uint32_t i) {
  return net::FlowKey{net::Ipv4Addr(10, 0, 0, 1), 1521,
                      net::Ipv4Addr(10, 1, static_cast<std::uint8_t>(i >> 8),
                                    static_cast<std::uint8_t>(i & 0xff)),
                      static_cast<std::uint16_t>(30000 + (i % 30000))};
}

SequentDemuxer::Options opts() {
  return SequentDemuxer::Options{
      .chains = 19, .hasher = net::HasherKind::kCrc32, .grow = true};
}

TEST(DynamicHash, StartsAtInitialChains) {
  SequentDemuxer d(opts());
  EXPECT_EQ(d.chains(), 19u);
  EXPECT_EQ(d.doublings(), 0u);
}

TEST(DynamicHash, GrowsWhenLoadExceeded) {
  SequentDemuxer d(opts());
  // 19 chains * load 2.0 = 38; the 39th insert triggers a rehash to 41.
  for (std::uint32_t i = 0; i < 39; ++i) ASSERT_NE(d.insert(key(i)), nullptr);
  EXPECT_EQ(d.chains(), 41u);
  EXPECT_EQ(d.doublings(), 1u);
}

TEST(DynamicHash, AllKeysFindableAfterManyRehashes) {
  SequentDemuxer d(opts());
  constexpr std::uint32_t kN = 5000;
  std::vector<Pcb*> pcbs;
  for (std::uint32_t i = 0; i < kN; ++i) {
    Pcb* p = d.insert(key(i));
    ASSERT_NE(p, nullptr) << i;
    pcbs.push_back(p);
  }
  EXPECT_GT(d.doublings(), 4u);
  for (std::uint32_t i = 0; i < kN; ++i) {
    const auto r = d.lookup(key(i));
    ASSERT_NE(r.pcb, nullptr) << i;
    EXPECT_EQ(r.pcb, pcbs[i]) << "PCB reallocated during rehash";
  }
}

TEST(DynamicHash, LoadStaysBoundedSoLookupsStayCheap) {
  SequentDemuxer d(opts());
  for (std::uint32_t i = 0; i < 20000; ++i) d.insert(key(i));
  d.reset_stats();
  for (std::uint32_t i = 0; i < 20000; ++i) (void)d.lookup(key(i));
  // Load factor <= 2 and a decent hash: mean examined must stay tiny even
  // at 10x the population the paper studied.
  EXPECT_LT(d.stats().mean_examined(), 4.0);
}

TEST(DynamicHash, NextTableSizeLadder) {
  EXPECT_EQ(SequentDemuxer::next_table_size(19), 41u);
  EXPECT_EQ(SequentDemuxer::next_table_size(41), 83u);
  EXPECT_GE(SequentDemuxer::next_table_size(100), 200u);
}

TEST(DynamicHash, EraseAndShrinkAccounting) {
  SequentDemuxer d(opts());
  for (std::uint32_t i = 0; i < 100; ++i) d.insert(key(i));
  for (std::uint32_t i = 0; i < 100; ++i) EXPECT_TRUE(d.erase(key(i)));
  EXPECT_EQ(d.size(), 0u);
  // The table never shrinks (like kernel hashtables); that's fine.
  EXPECT_GT(d.chains(), 19u);
}

TEST(DynamicHash, CachesColdAfterRehashButCorrect) {
  SequentDemuxer d(opts());
  for (std::uint32_t i = 0; i < 38; ++i) d.insert(key(i));
  (void)d.lookup(key(0));
  const auto warm = d.lookup(key(0));
  EXPECT_TRUE(warm.cache_hit);
  d.insert(key(999));  // trigger rehash; caches invalidated
  const auto after = d.lookup(key(0));
  EXPECT_NE(after.pcb, nullptr);
  EXPECT_FALSE(after.cache_hit);
}

TEST(DynamicHash, InvalidOptionsThrow) {
  SequentDemuxer::Options no_chains = opts();
  no_chains.chains = 0;
  EXPECT_THROW(SequentDemuxer{no_chains}, std::invalid_argument);
  SequentDemuxer::Options no_load = opts();
  no_load.max_load = 0.0F;
  EXPECT_THROW(SequentDemuxer{no_load}, std::invalid_argument);
}

TEST(DynamicHash, NameReflectsCurrentSize) {
  SequentDemuxer d(opts());
  EXPECT_EQ(d.name(), "dynamic(h=19,crc32)");
  for (std::uint32_t i = 0; i < 39; ++i) d.insert(key(i));
  EXPECT_EQ(d.name(), "dynamic(h=41,crc32)");
}

}  // namespace
}  // namespace tcpdemux::core

#include "core/hashed_mtf.h"

#include <gtest/gtest.h>

namespace tcpdemux::core {
namespace {

net::FlowKey key(std::uint16_t port) {
  return net::FlowKey{net::Ipv4Addr(10, 0, 0, 1), 1521,
                      net::Ipv4Addr(10, 1, 0, 2), port};
}

HashedMtfDemuxer::Options opts(std::uint32_t chains) {
  return HashedMtfDemuxer::Options{chains, net::HasherKind::kCrc32};
}

TEST(HashedMtf, InsertAndLookup) {
  HashedMtfDemuxer d(opts(19));
  Pcb* p = d.insert(key(1));
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(d.lookup(key(1)).pcb, p);
  EXPECT_EQ(d.size(), 1u);
}

TEST(HashedMtf, ZeroChainsThrows) {
  EXPECT_THROW(HashedMtfDemuxer(opts(0)), std::invalid_argument);
}

TEST(HashedMtf, RepeatLookupCostsOne) {
  HashedMtfDemuxer d(opts(19));
  for (std::uint16_t p = 1; p <= 200; ++p) d.insert(key(p));
  (void)d.lookup(key(77));
  const auto r = d.lookup(key(77));
  EXPECT_EQ(r.examined, 1u);
  EXPECT_TRUE(r.cache_hit);
}

TEST(HashedMtf, MtfOnlyWithinOwnChain) {
  HashedMtfDemuxer d(opts(2));
  // Insert keys until both chains have >= 2 entries.
  for (std::uint16_t p = 1; p <= 8; ++p) d.insert(key(p));
  // Touching a key reorders only its own chain; a key in the other chain
  // keeps its position (cost unchanged across the touch).
  std::uint16_t a = 1;
  std::uint16_t b = 2;
  while (net::hash_chain(net::HasherKind::kCrc32, key(b), 2) ==
         net::hash_chain(net::HasherKind::kCrc32, key(a), 2)) {
    ++b;
  }
  const auto cost_b_before = d.lookup(key(b)).examined;
  (void)d.lookup(key(b));  // b now at front of its chain
  (void)d.lookup(key(a));  // touch the other chain
  EXPECT_EQ(d.lookup(key(b)).examined, 1u);
  (void)cost_b_before;
}

TEST(HashedMtf, SingleChainEqualsPlainMtf) {
  HashedMtfDemuxer d(opts(1));
  for (std::uint16_t p = 1; p <= 5; ++p) d.insert(key(p));
  EXPECT_EQ(d.lookup(key(1)).examined, 5u);
  EXPECT_EQ(d.lookup(key(1)).examined, 1u);
  EXPECT_EQ(d.lookup(key(5)).examined, 2u);
}

TEST(HashedMtf, EraseAndDuplicates) {
  HashedMtfDemuxer d(opts(19));
  EXPECT_NE(d.insert(key(1)), nullptr);
  EXPECT_EQ(d.insert(key(1)), nullptr);
  EXPECT_TRUE(d.erase(key(1)));
  EXPECT_FALSE(d.erase(key(1)));
  EXPECT_EQ(d.size(), 0u);
}

TEST(HashedMtf, NameReflectsConfiguration) {
  HashedMtfDemuxer d(opts(19));
  EXPECT_EQ(d.name(), "hashed_mtf(h=19,crc32)");
}

TEST(HashedMtf, ForEachVisitsAll) {
  HashedMtfDemuxer d(opts(5));
  for (std::uint16_t p = 1; p <= 23; ++p) d.insert(key(p));
  std::size_t count = 0;
  d.for_each_pcb([&](const Pcb&) { ++count; });
  EXPECT_EQ(count, 23u);
}

}  // namespace
}  // namespace tcpdemux::core

#include "core/sequent_hash.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "core/validate.h"

namespace tcpdemux::core {
namespace {

net::FlowKey key(std::uint16_t port) {
  return net::FlowKey{net::Ipv4Addr(10, 0, 0, 1), 1521,
                      net::Ipv4Addr(10, 1, 0, 2), port};
}

SequentDemuxer::Options opts(std::uint32_t chains, bool cache = true) {
  return SequentDemuxer::Options{chains, net::HasherKind::kCrc32, cache};
}

TEST(Sequent, InsertAndLookup) {
  SequentDemuxer d(opts(19));
  Pcb* p = d.insert(key(1));
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(d.lookup(key(1)).pcb, p);
}

// Every member lookup() reads (options_, buckets_, the outgoing-table
// pointer old_) sits in the 64 bytes right after the Demuxer
// base, as Options::max_load's comment promises.
TEST(Sequent, LookupMembersFitTheLineAfterTheBase) {
  const SequentDemuxer d;
  const char* names[] = {"options_", "buckets_", "old_"};
  const auto members = ValidatorTestAccess::lookup_members(d);
  for (std::size_t i = 0; i < members.size(); ++i) {
    EXPECT_LE(members[i].end, 128u)
        << names[i] << " occupies bytes " << members[i].begin << "-"
        << members[i].end;
  }
}

TEST(Sequent, ZeroChainsThrows) {
  EXPECT_THROW(SequentDemuxer(opts(0)), std::invalid_argument);
}

TEST(Sequent, DefaultIsNineteenChains) {
  SequentDemuxer d;
  EXPECT_EQ(d.chains(), 19u);
}

TEST(Sequent, ChainSizesSumToSize) {
  SequentDemuxer d(opts(19));
  for (std::uint16_t p = 1; p <= 100; ++p) d.insert(key(p));
  const auto sizes = d.chain_sizes();
  EXPECT_EQ(sizes.size(), 19u);
  EXPECT_EQ(std::accumulate(sizes.begin(), sizes.end(), std::size_t{0}),
            100u);
  EXPECT_EQ(d.size(), 100u);
}

TEST(Sequent, PerChainCacheHitCostsOne) {
  SequentDemuxer d(opts(19));
  for (std::uint16_t p = 1; p <= 100; ++p) d.insert(key(p));
  (void)d.lookup(key(42));
  const auto r = d.lookup(key(42));
  EXPECT_TRUE(r.cache_hit);
  EXPECT_EQ(r.examined, 1u);
}

TEST(Sequent, MissScansOnlyOwnChain) {
  SequentDemuxer d(opts(19));
  for (std::uint16_t p = 1; p <= 100; ++p) d.insert(key(p));
  const auto sizes = d.chain_sizes();
  const std::size_t longest = *std::max_element(sizes.begin(), sizes.end());
  // Any lookup may touch at most cache-probe + its chain length.
  for (std::uint16_t p = 1; p <= 100; ++p) {
    const auto r = d.lookup(key(p));
    ASSERT_NE(r.pcb, nullptr);
    EXPECT_LE(r.examined, longest + 1);
  }
}

TEST(Sequent, CachesAreIndependentPerChain) {
  SequentDemuxer d(opts(4));
  // Find two keys in different chains.
  Pcb* a = d.insert(key(1));
  std::uint16_t other = 2;
  while (net::hash_chain(net::HasherKind::kCrc32, key(other), 4) ==
         net::hash_chain(net::HasherKind::kCrc32, key(1), 4)) {
    ++other;
  }
  Pcb* b = d.insert(key(other));
  (void)d.lookup(key(1));
  (void)d.lookup(key(other));
  // Both chain caches now hold their own PCB; both hits cost 1.
  EXPECT_EQ(d.lookup(key(1)).examined, 1u);
  EXPECT_EQ(d.lookup(key(other)).examined, 1u);
  EXPECT_EQ(d.lookup(key(1)).pcb, a);
  EXPECT_EQ(d.lookup(key(other)).pcb, b);
}

TEST(Sequent, NoCacheOptionDisablesCaching) {
  SequentDemuxer d(SequentDemuxer::Options{1, net::HasherKind::kCrc32, false});
  for (std::uint16_t p = 1; p <= 5; ++p) d.insert(key(p));
  (void)d.lookup(key(1));
  const auto r = d.lookup(key(1));  // would be a cache hit if enabled
  EXPECT_FALSE(r.cache_hit);
  EXPECT_EQ(r.examined, 5u);  // full scan to the tail every time
}

TEST(Sequent, SingleChainWithCacheBehavesLikeBsd) {
  SequentDemuxer d(opts(1));
  for (std::uint16_t p = 1; p <= 10; ++p) d.insert(key(p));
  (void)d.lookup(key(1));  // scan 10 (cache empty)
  EXPECT_EQ(d.lookup(key(1)).examined, 1u);        // cache hit
  EXPECT_EQ(d.lookup(key(10)).examined, 1u + 1u);  // probe + head
}

TEST(Sequent, EraseInvalidatesOwnChainCache) {
  SequentDemuxer d(opts(19));
  d.insert(key(1));
  (void)d.lookup(key(1));
  EXPECT_TRUE(d.erase(key(1)));
  EXPECT_EQ(d.lookup(key(1)).pcb, nullptr);
  EXPECT_EQ(d.size(), 0u);
}

TEST(Sequent, DuplicateInsertRejected) {
  SequentDemuxer d(opts(19));
  EXPECT_NE(d.insert(key(1)), nullptr);
  EXPECT_EQ(d.insert(key(1)), nullptr);
}

TEST(Sequent, NameReflectsConfiguration) {
  SequentDemuxer d(opts(19));
  EXPECT_EQ(d.name(), "sequent(h=19,crc32)");
  SequentDemuxer nc(SequentDemuxer::Options{7, net::HasherKind::kXorFold,
                                            false});
  EXPECT_EQ(nc.name(), "sequent(h=7,xor_fold,nocache)");
}

TEST(Sequent, ForEachVisitsAllChains) {
  SequentDemuxer d(opts(19));
  for (std::uint16_t p = 1; p <= 57; ++p) d.insert(key(p));
  std::size_t count = 0;
  d.for_each_pcb([&](const Pcb&) { ++count; });
  EXPECT_EQ(count, 57u);
}

TEST(Sequent, ManyChainsShortenSearch) {
  // The §3.5 observation: more chains, shorter scans. Compare mean
  // examined over a uniform sweep for H=1 vs H=101.
  const auto sweep = [](std::uint32_t chains) {
    SequentDemuxer d(opts(chains));
    for (std::uint16_t p = 1; p <= 500; ++p) d.insert(key(p));
    for (std::uint16_t p = 1; p <= 500; ++p) (void)d.lookup(key(p));
    return d.stats().mean_examined();
  };
  const double h1 = sweep(1);
  const double h101 = sweep(101);
  EXPECT_GT(h1, 100.0);
  EXPECT_LT(h101, 10.0);
}

}  // namespace
}  // namespace tcpdemux::core

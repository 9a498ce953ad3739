// PCB-pressure shedding: bounded-capacity demuxers refuse (and count)
// inserts past the cap with no structural damage, and the SYN cache's
// global budget sheds the oldest embryonic connection first.
#include <gtest/gtest.h>

#include <vector>

#include "core/demux_registry.h"
#include "core/sequent_hash.h"
#include "core/validate.h"
#include "net/flow_key.h"
#include "tcp/syn_cache.h"

namespace tcpdemux::core {
namespace {

net::FlowKey nth_key(std::uint32_t i) {
  return net::FlowKey{net::Ipv4Addr(10, 0, 0, 1), 1521,
                      net::Ipv4Addr(0x0a010000U + i),
                      static_cast<std::uint16_t>(1000 + (i & 0x7fff))};
}

void expect_cap_enforced(SequentDemuxer& demuxer, std::size_t cap) {
  for (std::uint32_t i = 0; i < 100; ++i) {
    Pcb* const pcb = demuxer.insert(nth_key(i));
    if (i < cap) {
      ASSERT_NE(pcb, nullptr) << i;
    } else {
      ASSERT_EQ(pcb, nullptr) << i;
    }
  }
  EXPECT_EQ(demuxer.size(), cap);
  EXPECT_EQ(demuxer.telemetry().counters().inserts_shed, 100 - cap);
  EXPECT_EQ(validate_demuxer(demuxer).to_string(), "");

  // Capped keys were refused, not half-inserted.
  for (std::uint32_t i = 0; i < 100; ++i) {
    EXPECT_EQ(demuxer.lookup(nth_key(i)).pcb != nullptr, i < cap) << i;
  }

  // Erasing makes room again: the cap bounds population, not lifetime.
  ASSERT_TRUE(demuxer.erase(nth_key(0)));
  EXPECT_NE(demuxer.insert(nth_key(99)), nullptr);
  EXPECT_EQ(demuxer.size(), cap);
  EXPECT_EQ(validate_demuxer(demuxer).to_string(), "");
}

TEST(Shedding, SequentEnforcesMaxPcbs) {
  SequentDemuxer demuxer(
      {19, net::HasherKind::kCrc32, true, false, /*max_pcbs=*/64});
  expect_cap_enforced(demuxer, 64);
}

TEST(Shedding, DynamicEnforcesMaxPcbs) {
  SequentDemuxer demuxer({.chains = 19,
                          .hasher = net::HasherKind::kCrc32,
                          .max_pcbs = 64,
                          .grow = true});
  expect_cap_enforced(demuxer, 64);
}

TEST(Shedding, DuplicateInsertAtCapIsNotShed) {
  // A duplicate insert at the cap is the pre-existing "already present"
  // nullptr, not a shed — the counter must not conflate them.
  SequentDemuxer demuxer({19, net::HasherKind::kCrc32, true, false, 2});
  ASSERT_NE(demuxer.insert(nth_key(0)), nullptr);
  ASSERT_NE(demuxer.insert(nth_key(1)), nullptr);
  EXPECT_EQ(demuxer.insert(nth_key(0)), nullptr);
  EXPECT_EQ(demuxer.telemetry().counters().inserts_shed, 0u);
  EXPECT_EQ(demuxer.insert(nth_key(2)), nullptr);
  EXPECT_EQ(demuxer.telemetry().counters().inserts_shed, 1u);
}

TEST(Shedding, RegistrySpecSetsCap) {
  const auto config = parse_demux_spec("sequent:19:crc32:max=8");
  ASSERT_TRUE(config.has_value());
  EXPECT_EQ(config->max_pcbs, 8u);
  const auto demuxer = make_demuxer(*config);
  for (std::uint32_t i = 0; i < 20; ++i) demuxer->insert(nth_key(i));
  EXPECT_EQ(demuxer->size(), 8u);
  EXPECT_EQ(demuxer->telemetry().counters().inserts_shed, 12u);
}

TEST(Shedding, SynCacheShedsGloballyOldestAtBudget) {
  tcp::SynCache::Options options;
  options.buckets = 16;
  options.bucket_limit = 16;  // high enough that only the global cap acts
  options.max_entries = 16;
  tcp::SynCache cache(options);

  for (std::uint32_t i = 0; i < 32; ++i) {
    ASSERT_NE(cache.add(nth_key(i), 100 + i, 200 + i,
                        /*now=*/static_cast<double>(i)),
              nullptr);
  }
  EXPECT_EQ(cache.size(), 16u);
  EXPECT_EQ(cache.stats().shed, 16u);
  EXPECT_EQ(cache.stats().added, 32u);

  // Strictly oldest-first: the first 16 embryos were shed, newest 16 live.
  for (std::uint32_t i = 0; i < 32; ++i) {
    EXPECT_EQ(cache.find(nth_key(i)) != nullptr, i >= 16) << i;
  }

  // Promotion frees budget without counting as a shed.
  ASSERT_TRUE(cache.take(nth_key(20)));
  ASSERT_NE(cache.add(nth_key(40), 1, 2, 40.0), nullptr);
  EXPECT_EQ(cache.stats().shed, 16u);
  EXPECT_EQ(cache.size(), 16u);
}

TEST(Shedding, SynCacheUnboundedByDefault) {
  tcp::SynCache::Options options;
  options.buckets = 64;
  options.bucket_limit = 64;
  tcp::SynCache cache(options);
  for (std::uint32_t i = 0; i < 512; ++i) {
    ASSERT_NE(cache.add(nth_key(i), 1, 2, static_cast<double>(i)), nullptr);
  }
  EXPECT_EQ(cache.size(), 512u);
  EXPECT_EQ(cache.stats().shed, 0u);
}

}  // namespace
}  // namespace tcpdemux::core

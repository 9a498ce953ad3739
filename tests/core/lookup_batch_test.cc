// Demuxer::lookup_batch contract, parameterized over every registry
// algorithm: a batch must be indistinguishable from issuing the same
// lookups one at a time — found/not-found per key, returned identity,
// and the full stats ledger (lookups / found / cache_hits / examined).
// This covers the base-class default loop and every pipelined override
// (sequent/dynamic, rcu) with the same oracle: a twin demuxer,
// identically populated, driven scalar.
#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <vector>

#include "core/demux_registry.h"
#include "core/demuxer.h"
#include "drain_case.h"
#include "net/flow_key.h"

namespace tcpdemux::core {
namespace {

// Keys vary in the address only; mirroring `i` into the port too would
// cancel under xor_fold (i ^ (base + i) is often constant) and collapse
// hashed structures into one chain.
net::FlowKey key(std::uint32_t i) {
  return net::FlowKey{net::Ipv4Addr(10, 0, 0, 1), 1521,
                      net::Ipv4Addr(10, 2, static_cast<std::uint8_t>(i >> 8),
                                    static_cast<std::uint8_t>(i & 0xff)),
                      30000};
}

class LookupBatchParity : public ::testing::TestWithParam<const char*> {
 protected:
  std::unique_ptr<Demuxer> make() const {
    const auto config = parse_demux_spec(drain_.spec);
    EXPECT_TRUE(config.has_value()) << GetParam();
    return make_demuxer(*config);
  }

  // The stepped case's hand-driven drain step (drain_case.h); run on
  // both twins at the same points, so they stay identical.
  void step(Demuxer& d) const {
    if (drain_.stepped) (void)d.migration_step();
  }

  const test::DrainCase drain_ = test::drain_case(GetParam());
};

TEST_P(LookupBatchParity, BatchEqualsScalarSequence) {
  // Twin instances, identical population: batched on one, scalar on the
  // other. The demuxers process a batch in key order, so even the
  // order-sensitive algorithms (MTF splices, per-chain caches) must agree
  // on every result AND every counter.
  const auto batched = make();
  const auto scalar = make();
  constexpr std::uint32_t kLive = 400;
  for (std::uint32_t i = 0; i < kLive; ++i) {
    ASSERT_NE(batched->insert(key(i)), nullptr);
    ASSERT_NE(scalar->insert(key(i)), nullptr);
    step(*batched);
    step(*scalar);
  }

  std::mt19937 rng(777);
  std::uniform_int_distribution<std::uint32_t> pick(0, kLive * 2);  // ~50% miss
  for (const std::size_t batch_size : {std::size_t{1}, std::size_t{7},
                                       std::size_t{32}, std::size_t{129}}) {
    std::vector<net::FlowKey> keys(batch_size);
    for (auto& k : keys) k = key(pick(rng));
    std::vector<LookupResult> results(batch_size);
    const SegmentKind kind =
        batch_size % 2 == 0 ? SegmentKind::kAck : SegmentKind::kData;
    batched->lookup_batch(keys, results, kind);
    for (std::size_t i = 0; i < batch_size; ++i) {
      const LookupResult want = scalar->lookup(keys[i], kind);
      ASSERT_EQ(results[i].pcb != nullptr, want.pcb != nullptr)
          << GetParam() << " batch_size=" << batch_size << " index " << i;
      if (results[i].pcb != nullptr) {
        EXPECT_EQ(results[i].pcb->key, keys[i]);
      }
      EXPECT_EQ(results[i].examined, want.examined)
          << GetParam() << " batch_size=" << batch_size << " index " << i;
      EXPECT_EQ(results[i].cache_hit, want.cache_hit)
          << GetParam() << " batch_size=" << batch_size << " index " << i;
    }
    ASSERT_EQ(batched->stats().lookups, scalar->stats().lookups);
    ASSERT_EQ(batched->stats().found, scalar->stats().found);
    ASSERT_EQ(batched->stats().cache_hits, scalar->stats().cache_hits);
    ASSERT_EQ(batched->stats().pcbs_examined, scalar->stats().pcbs_examined);
    step(*batched);
    step(*scalar);
  }
}

TEST_P(LookupBatchParity, EmptyBatchIsANoOp) {
  const auto d = make();
  d->insert(key(0));
  step(*d);
  d->lookup_batch({}, {});
  EXPECT_EQ(d->stats().lookups, 0u);
}

TEST_P(LookupBatchParity, ResultSpanMayExceedKeySpan) {
  const auto d = make();
  d->insert(key(0));
  step(*d);
  std::vector<net::FlowKey> keys = {key(0), key(1)};
  std::vector<LookupResult> results(8);
  d->lookup_batch(keys, results);
  EXPECT_NE(results[0].pcb, nullptr);
  EXPECT_EQ(results[1].pcb, nullptr);
  EXPECT_EQ(d->stats().lookups, 2u) << "only keys.size() lookups may run";
}

// Whether the parity population above leaves a migration in flight when
// its batches run depends on where its last doubling fell. Here the twins
// stop inserting just after a doubling has started, so every batch runs
// while the outgoing chains are still draining: the growing chained
// table's scalar fallback.
TEST(LookupBatchMidMigration, IncrementalDynamicBatchEqualsScalarSequence) {
  const auto config = parse_demux_spec("dynamic:5");
  ASSERT_TRUE(config.has_value());
  const auto batched = make_demuxer(*config);
  const auto scalar = make_demuxer(*config);
  const auto migrating = [](const Demuxer& d) {
    const report::Telemetry t = d.telemetry();
    return t.counters().resizes_started > t.counters().resizes_completed;
  };
  std::uint32_t live = 0;
  while (live < 300 || !migrating(*batched)) {
    ASSERT_LT(live, 4096u) << "no doubling started";
    ASSERT_NE(batched->insert(key(live)), nullptr);
    ASSERT_NE(scalar->insert(key(live)), nullptr);
    ++live;
  }

  std::mt19937 rng(778);
  std::uniform_int_distribution<std::uint32_t> pick(0, live * 2);
  for (const std::size_t batch_size : {std::size_t{1}, std::size_t{7},
                                       std::size_t{32}, std::size_t{129}}) {
    ASSERT_TRUE(migrating(*batched)) << "batch_size=" << batch_size;
    std::vector<net::FlowKey> keys(batch_size);
    for (auto& k : keys) k = key(pick(rng));
    std::vector<LookupResult> results(batch_size);
    batched->lookup_batch(keys, results);
    for (std::size_t i = 0; i < batch_size; ++i) {
      const LookupResult want = scalar->lookup(keys[i]);
      ASSERT_EQ(results[i].pcb != nullptr, want.pcb != nullptr)
          << "batch_size=" << batch_size << " index " << i;
      EXPECT_EQ(results[i].examined, want.examined)
          << "batch_size=" << batch_size << " index " << i;
      EXPECT_EQ(results[i].cache_hit, want.cache_hit)
          << "batch_size=" << batch_size << " index " << i;
    }
    ASSERT_EQ(batched->stats().pcbs_examined, scalar->stats().pcbs_examined);
    ASSERT_EQ(batched->stats().cache_hits, scalar->stats().cache_hits);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllDemuxers, LookupBatchParity,
    ::testing::Values("bsd", "mtf", "srcache", "connection_id", "sequent",
                      "sequent:7:crc32:nocache", "hashed_mtf",
                      // 400 keys from 5 chains: growth, and batches that
                      // may run against a draining outgoing table; the
                      // stepped case also drains by hand between ops.
                      "dynamic:5", "dynamic:5:incremental",
                      "dynamic:5:xor_fold",
                      "rcu", "rcu:7:crc32:nocache", "sharded:4:dynamic",
                      "sharded:2:sequent:19:crc32"),
    [](const ::testing::TestParamInfo<const char*>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == ':') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace tcpdemux::core

#include "tcp/syn_cache.h"

#include <gtest/gtest.h>

#include <vector>

#include "net/packet.h"
#include "tcp/socket_table.h"

namespace tcpdemux::tcp {
namespace {

net::FlowKey key(std::uint16_t port) {
  return net::FlowKey{net::Ipv4Addr(10, 0, 0, 1), 1521,
                      net::Ipv4Addr(10, 1, 0, 2), port};
}

TEST(SynCache, AddFindTake) {
  SynCache cache;
  EXPECT_EQ(cache.find(key(1)), nullptr);
  const auto* entry = cache.add(key(1), 1000, 5000, 0.0);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->irs, 1000u);
  EXPECT_EQ(entry->iss, 5000u);
  EXPECT_EQ(cache.size(), 1u);

  const auto* found = cache.find(key(1));
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->key, key(1));

  SynCache::Entry taken;
  EXPECT_TRUE(cache.take(key(1), &taken));
  EXPECT_EQ(taken.iss, 5000u);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.take(key(1)));
}

TEST(SynCache, DuplicateSynReturnsExistingEntry) {
  SynCache cache;
  const auto* first = cache.add(key(1), 1000, 5000, 0.0);
  const auto* again = cache.add(key(1), 1000, 9999, 1.0);
  EXPECT_EQ(again->iss, first->iss) << "retransmitted SYN must not re-roll";
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().duplicates, 1u);
}

TEST(SynCache, BucketOverflowEvictsOldest) {
  SynCache::Options options;
  options.buckets = 1;  // force all keys into one bucket
  options.bucket_limit = 3;
  SynCache cache(options);
  for (std::uint16_t p = 1; p <= 4; ++p) {
    cache.add(key(p), p, 100u + p, static_cast<double>(p));
  }
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.stats().evicted, 1u);
  EXPECT_EQ(cache.find(key(1)), nullptr) << "oldest must be the victim";
  EXPECT_NE(cache.find(key(4)), nullptr);
}

TEST(SynCache, ExpireDropsOldEntries) {
  SynCache cache;
  cache.add(key(1), 1, 2, 0.0);
  cache.add(key(2), 3, 4, 20.0);
  EXPECT_EQ(cache.expire(35.0), 1u);  // 30 s timeout: only key(1) is stale
  EXPECT_EQ(cache.find(key(1)), nullptr);
  EXPECT_NE(cache.find(key(2)), nullptr);
}

TEST(SynCache, InvalidOptionsThrow) {
  SynCache::Options options;
  options.buckets = 0;
  EXPECT_THROW(SynCache{options}, std::invalid_argument);
  options.buckets = 4;
  options.bucket_limit = 0;
  EXPECT_THROW(SynCache{options}, std::invalid_argument);
}

// --- socket-table integration -------------------------------------------

class SynCacheTableTest : public ::testing::Test {
 protected:
  SynCacheTableTest()
      : table_(core::DemuxConfig{core::Algorithm::kSequent},
               [this](std::vector<std::uint8_t> wire, const core::Pcb&) {
                 outbound_.push_back(std::move(wire));
               }) {
    table_.enable_syn_cache();
    table_.listen(net::Ipv4Addr(10, 0, 0, 1), 1521);
  }

  std::vector<std::uint8_t> syn(std::uint16_t port, std::uint32_t seq) {
    return net::PacketBuilder()
        .from({net::Ipv4Addr(10, 1, 0, 2), port})
        .to({net::Ipv4Addr(10, 0, 0, 1), 1521})
        .seq(seq)
        .flags(net::TcpFlag::kSyn)
        .build();
  }

  net::Packet last_out() {
    const auto p = net::Packet::parse(outbound_.back());
    EXPECT_TRUE(p.has_value());
    return *p;
  }

  SocketTable table_;
  std::vector<std::vector<std::uint8_t>> outbound_;
};

TEST_F(SynCacheTableTest, SynCreatesNoPcb) {
  const auto r = table_.deliver_wire(syn(40001, 100));
  EXPECT_EQ(r.status, SocketTable::Delivery::kSynCached);
  EXPECT_EQ(table_.connection_count(), 0u);
  ASSERT_NE(table_.syn_cache(), nullptr);
  EXPECT_EQ(table_.syn_cache()->size(), 1u);
  // A SYN|ACK still went out.
  const auto synack = last_out();
  EXPECT_TRUE(synack.tcp.has(net::TcpFlag::kSyn));
  EXPECT_TRUE(synack.tcp.has(net::TcpFlag::kAck));
  EXPECT_EQ(synack.tcp.ack, 101u);
}

TEST_F(SynCacheTableTest, HandshakeAckPromotesToPcb) {
  table_.deliver_wire(syn(40001, 100));
  const std::uint32_t iss = last_out().tcp.seq;
  const auto ack = net::PacketBuilder()
                       .from({net::Ipv4Addr(10, 1, 0, 2), 40001})
                       .to({net::Ipv4Addr(10, 0, 0, 1), 1521})
                       .seq(101)
                       .ack_seq(iss + 1)
                       .build();
  const auto r = table_.deliver_wire(ack);
  EXPECT_EQ(r.status, SocketTable::Delivery::kNewConnection);
  ASSERT_NE(r.pcb, nullptr);
  EXPECT_EQ(r.pcb->state, core::TcpState::kEstablished);
  EXPECT_EQ(r.pcb->rcv_nxt, 101u);
  EXPECT_EQ(r.pcb->snd_nxt, iss + 1);
  EXPECT_EQ(table_.connection_count(), 1u);
  EXPECT_EQ(table_.syn_cache()->size(), 0u);
  EXPECT_EQ(table_.accept_backlog(), 1u);
  EXPECT_EQ(table_.accept(), r.pcb);
}

TEST_F(SynCacheTableTest, BogusAckGetsRstNotPcb) {
  table_.deliver_wire(syn(40001, 100));
  const std::uint32_t iss = last_out().tcp.seq;
  const auto bad_ack = net::PacketBuilder()
                           .from({net::Ipv4Addr(10, 1, 0, 2), 40001})
                           .to({net::Ipv4Addr(10, 0, 0, 1), 1521})
                           .seq(101)
                           .ack_seq(iss + 999)  // wrong acknowledgement
                           .build();
  const auto r = table_.deliver_wire(bad_ack);
  EXPECT_EQ(r.status, SocketTable::Delivery::kReset);
  EXPECT_EQ(table_.connection_count(), 0u);
}

TEST_F(SynCacheTableTest, SynFloodCannotGrowPcbTable) {
  for (std::uint32_t i = 0; i < 5000; ++i) {
    table_.deliver_wire(
        syn(static_cast<std::uint16_t>(1024 + (i % 60000)), 100 + i));
  }
  EXPECT_EQ(table_.connection_count(), 0u);
  // The cache is bounded: 64 buckets * 8 entries.
  EXPECT_LE(table_.syn_cache()->size(), 64u * 8u);
  EXPECT_GT(table_.syn_cache()->stats().evicted, 0u);
}

TEST_F(SynCacheTableTest, RetransmittedSynKeepsSameIss) {
  table_.deliver_wire(syn(40001, 100));
  const std::uint32_t iss1 = last_out().tcp.seq;
  table_.deliver_wire(syn(40001, 100));  // peer retries
  const std::uint32_t iss2 = last_out().tcp.seq;
  EXPECT_EQ(iss1, iss2);
  EXPECT_EQ(table_.syn_cache()->size(), 1u);
}

TEST_F(SynCacheTableTest, EmbryonicEntriesExpire) {
  table_.deliver_wire(syn(40001, 100));
  EXPECT_EQ(table_.expire_embryonic(40.0), 1u);
  EXPECT_EQ(table_.syn_cache()->size(), 0u);
}

// Stats is the cache's one ledger: every embryo added is either still
// resident or counted once by the way it left.
std::uint64_t departed(const SynCache::Stats& s) {
  return s.evicted + s.expired + s.promoted + s.shed;
}

TEST(SynCacheStats, CountsAddsEvictsAndPromotes) {
  SynCache::Options options;
  options.buckets = 1;
  options.bucket_limit = 2;
  SynCache cache(options);
  ASSERT_NE(cache.add(key(1), 1, 2, 0.0), nullptr);
  ASSERT_NE(cache.add(key(2), 1, 2, 1.0), nullptr);
  ASSERT_NE(cache.add(key(3), 1, 2, 2.0), nullptr);  // evicts key(1)
  EXPECT_EQ(cache.stats().added, 3u);
  EXPECT_EQ(cache.stats().evicted, 1u);

  // find() is a query: it moves no counter.
  EXPECT_EQ(cache.find(key(1)), nullptr);
  ASSERT_NE(cache.find(key(2)), nullptr);
  SynCache::Entry out;
  EXPECT_TRUE(cache.take(key(2), &out));
  EXPECT_FALSE(cache.take(key(1), &out));
  EXPECT_EQ(cache.stats().promoted, 1u);
  EXPECT_EQ(cache.stats().added - departed(cache.stats()), cache.size());
}

TEST(SynCacheStats, ExpireAndShedFeedTheLedger) {
  SynCache::Options options;
  options.max_entries = 2;
  SynCache cache(options);
  ASSERT_NE(cache.add(key(1), 1, 2, 0.0), nullptr);
  ASSERT_NE(cache.add(key(2), 1, 2, 1.0), nullptr);
  ASSERT_NE(cache.add(key(3), 1, 2, 2.0), nullptr);  // sheds oldest
  EXPECT_EQ(cache.stats().shed, 1u);
  EXPECT_EQ(cache.expire(100.0), 2u);
  EXPECT_EQ(cache.stats().expired, 2u);
  EXPECT_EQ(cache.stats().added - departed(cache.stats()), cache.size());
  EXPECT_EQ(cache.size(), 0u);
}

}  // namespace
}  // namespace tcpdemux::tcp

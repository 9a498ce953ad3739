// The Demuxer::find contract, parameterized over every algorithm: the
// exact-match probe lookup() makes, without lookup()'s side effects — no
// cache, list order, drain cursor or stats() counter moves. Two cases pin
// the backends whose home probe is not the whole story: a growing table
// mid-drain, and a sharded fleet whose steering was rewritten.
#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "core/demux_registry.h"
#include "core/sequent_hash.h"
#include "core/sharded_demuxer.h"
#include "drain_case.h"

namespace tcpdemux::core {
namespace {

net::FlowKey conn_key(std::uint16_t fport) {
  return net::FlowKey{net::Ipv4Addr(10, 0, 0, 1), 1521,
                      net::Ipv4Addr(10, 1, 0, 2), fport};
}

class FindProperty : public ::testing::TestWithParam<const char*> {
 protected:
  std::unique_ptr<Demuxer> make() const {
    return make_demuxer(*parse_demux_spec(GetParam()));
  }
};

TEST_P(FindProperty, HitReturnsThePcb) {
  auto d = make();
  for (std::uint16_t p = 1; p <= 20; ++p) {
    ASSERT_NE(d->insert(conn_key(p)), nullptr);
  }
  Pcb* const pcb = d->insert(conn_key(40001));
  ASSERT_NE(pcb, nullptr);
  const Demuxer& view = *d;
  EXPECT_EQ(view.find(conn_key(40001)), pcb);
  for (std::uint16_t p = 1; p <= 20; ++p) {
    const Pcb* const found = view.find(conn_key(p));
    ASSERT_NE(found, nullptr) << p;
    EXPECT_EQ(found->key, conn_key(p));
  }
}

TEST_P(FindProperty, MissFindsNothing) {
  auto d = make();
  for (std::uint16_t p = 1; p <= 20; ++p) d->insert(conn_key(p));
  const Demuxer& view = *d;
  EXPECT_EQ(view.find(conn_key(40001)), nullptr);
  net::FlowKey other_port = conn_key(7);
  other_port.local_port = 80;
  EXPECT_EQ(view.find(other_port), nullptr);
  ASSERT_TRUE(d->erase(conn_key(7)));
  EXPECT_EQ(view.find(conn_key(7)), nullptr);
}

TEST_P(FindProperty, DoesNotDisturbCachesOrStats) {
  // Two tables built by the same operations, one of them also probed by
  // find() on every key (and on a miss): the lookups that follow, and
  // both ledgers, must come out identical — find() leaves no trace.
  auto probed = make();
  auto control = make();
  for (Demuxer* d : {probed.get(), control.get()}) {
    for (std::uint16_t p = 1; p <= 20; ++p) d->insert(conn_key(p));
    (void)d->lookup(conn_key(7));  // prime whatever cache exists
  }
  for (std::uint16_t p = 20; p >= 1; --p) (void)probed->find(conn_key(p));
  (void)probed->find(conn_key(40001));
  EXPECT_EQ(probed->stats().lookups, control->stats().lookups);
  EXPECT_EQ(probed->stats().pcbs_examined, control->stats().pcbs_examined);
  EXPECT_EQ(probed->occupancy(), control->occupancy());
  for (const std::uint16_t p : {7, 13, 1, 20, 7}) {
    const LookupResult a = probed->lookup(conn_key(p));
    const LookupResult b = control->lookup(conn_key(p));
    EXPECT_EQ(a.examined, b.examined) << "find() moved a cache or the "
                                         "list order before lookup " << p;
    EXPECT_EQ(a.cache_hit, b.cache_hit) << p;
  }
  EXPECT_EQ(probed->stats().cache_hits, control->stats().cache_hits);
}

TEST_P(FindProperty, EmptyTableFindsNothing) {
  const auto d = make();
  EXPECT_EQ(d->find(conn_key(1)), nullptr);
  EXPECT_EQ(d->stats().lookups, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, FindProperty,
                         ::testing::Values("bsd", "mtf", "srcache",
                                           "sequent", "sequent:101:crc32",
                                           "hashed_mtf", "dynamic",
                                           "connection_id", "rcu",
                                           "rcu:101:crc32",
                                           "sharded:4:dynamic",
                                           "sharded:2:sequent:19:crc32"),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == ':') c = '_';
                           }
                           return name;
                         });

// Residents still waiting in a growing table's outgoing half.
std::size_t outgoing_residents(const SequentDemuxer& d) {
  const std::vector<std::size_t> live = d.chain_sizes();
  return d.size() - std::accumulate(live.begin(), live.end(), std::size_t{0});
}

TEST(FindMidDrain, ReturnsKeysStillInTheOutgoingTable) {
  const test::DrainCase c = test::drain_case("dynamic:incremental");
  ASSERT_TRUE(c.stepped);
  const auto d = make_demuxer(*parse_demux_spec(c.spec));
  const auto& table = dynamic_cast<const SequentDemuxer&>(*d);
  std::size_t checked_mid_drain = 0;
  for (std::uint16_t p = 1; p <= 400; ++p) {
    ASSERT_NE(d->insert(conn_key(p)), nullptr);
    d->migration_step();
    if (outgoing_residents(table) == 0) continue;
    // Some keys live only in the outgoing table now; every key inserted
    // so far must still be found, and finding them must not drain it.
    const std::vector<std::size_t> occupancy_before = table.occupancy();
    for (std::uint16_t q = 1; q <= p; ++q) {
      const Pcb* const pcb = table.find(conn_key(q));
      ASSERT_NE(pcb, nullptr) << "key " << q << " after insert " << p;
      EXPECT_EQ(pcb->key, conn_key(q));
    }
    EXPECT_EQ(table.occupancy(), occupancy_before)
        << "find() advanced the drain";
    ++checked_mid_drain;
  }
  EXPECT_GT(checked_mid_drain, 0u) << "no insert left a drain in progress";
  EXPECT_GT(table.doublings(), 1u);
  EXPECT_EQ(table.stats().lookups, 0u);
}

TEST(FindAfterSteering, ReturnsAMisplacedKey) {
  const auto d = make_demuxer(*parse_demux_spec("sharded:4:dynamic"));
  auto& fleet = dynamic_cast<ShardedDemuxer&>(*d);
  for (std::uint16_t p = 1; p <= 200; ++p) {
    ASSERT_NE(fleet.insert(conn_key(p)), nullptr);
  }
  // Steer every flow to shard 0; PCBs stay where they were placed.
  for (std::uint32_t i = 0; i < fleet.indirection().entries(); ++i) {
    fleet.set_indirection_entry(i, 0);
  }
  ASSERT_TRUE(fleet.misplaced_possible());
  const Demuxer& view = fleet;
  std::size_t misplaced = 0;
  for (std::uint16_t p = 1; p <= 200; ++p) {
    const net::FlowKey k = conn_key(p);
    const Pcb* const pcb = view.find(k);
    ASSERT_NE(pcb, nullptr) << p;
    EXPECT_EQ(pcb->key, k);
    if (fleet.shard(fleet.home_shard(k)).find(k) == nullptr) ++misplaced;
  }
  EXPECT_GT(misplaced, 0u) << "the rewrite left every key on its home";
  EXPECT_EQ(fleet.stats().lookups, 0u);
  for (std::uint32_t s = 0; s < fleet.shard_count(); ++s) {
    EXPECT_EQ(fleet.shard(s).stats().lookups, 0u) << "shard " << s;
  }
  EXPECT_EQ(fleet.cross_shard_hits(), 0u);
}

}  // namespace
}  // namespace tcpdemux::core

// The lookup_wildcard contract, parameterized over every algorithm:
// BSD in_pcblookup semantics — exact match wins, then fewest wildcards;
// no match when the local port differs; caches and stats untouched.
#include <gtest/gtest.h>

#include "core/demux_registry.h"

namespace tcpdemux::core {
namespace {

net::FlowKey conn_key(std::uint16_t fport) {
  return net::FlowKey{net::Ipv4Addr(10, 0, 0, 1), 1521,
                      net::Ipv4Addr(10, 1, 0, 2), fport};
}

net::FlowKey listener_key(bool wild_local) {
  return net::FlowKey{
      wild_local ? net::Ipv4Addr::any() : net::Ipv4Addr(10, 0, 0, 1), 1521,
      net::Ipv4Addr::any(), 0};
}

class WildcardProperty : public ::testing::TestWithParam<const char*> {
 protected:
  std::unique_ptr<Demuxer> make() const {
    return make_demuxer(*parse_demux_spec(GetParam()));
  }
};

TEST_P(WildcardProperty, ExactMatchBeatsAnyListener) {
  auto d = make();
  ASSERT_NE(d->insert(listener_key(false)), nullptr);
  ASSERT_NE(d->insert(listener_key(true)), nullptr);
  Pcb* exact = d->insert(conn_key(40001));
  ASSERT_NE(exact, nullptr);
  const auto r = d->lookup_wildcard(conn_key(40001));
  EXPECT_EQ(r.pcb, exact);
}

TEST_P(WildcardProperty, FewerWildcardsPreferred) {
  auto d = make();
  ASSERT_NE(d->insert(listener_key(true)), nullptr);   // **:1521
  ASSERT_NE(d->insert(listener_key(false)), nullptr);  // 10.0.0.1:1521
  const auto r = d->lookup_wildcard(conn_key(40009));
  ASSERT_NE(r.pcb, nullptr);
  EXPECT_FALSE(r.pcb->key.local_addr.is_any())
      << "bound-address listener must beat the full wildcard";
}

TEST_P(WildcardProperty, PortMismatchFindsNothing) {
  auto d = make();
  d->insert(listener_key(false));
  net::FlowKey other_port = conn_key(40001);
  other_port.local_port = 80;
  EXPECT_EQ(d->lookup_wildcard(other_port).pcb, nullptr);
}

TEST_P(WildcardProperty, DoesNotDisturbCachesOrStats) {
  auto d = make();
  d->insert(listener_key(false));
  for (std::uint16_t p = 1; p <= 20; ++p) d->insert(conn_key(p));
  (void)d->lookup(conn_key(7));  // prime whatever cache exists
  const auto stats_before = d->stats().lookups;
  const auto warm_before = d->lookup(conn_key(7)).examined;
  (void)d->lookup_wildcard(conn_key(13));
  EXPECT_EQ(d->stats().lookups, stats_before + 1)
      << "wildcard lookups must not be recorded in fast-path stats";
  const auto warm_after = d->lookup(conn_key(7)).examined;
  EXPECT_LE(warm_after, warm_before)
      << "wildcard lookup disturbed the cache state";
}

TEST_P(WildcardProperty, EmptyTableFindsNothing) {
  auto d = make();
  EXPECT_EQ(d->lookup_wildcard(conn_key(1)).pcb, nullptr);
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, WildcardProperty,
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

}  // namespace
}  // namespace tcpdemux::core

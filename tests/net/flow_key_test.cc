#include "net/flow_key.h"

#include <gtest/gtest.h>

#include <unordered_set>

namespace tcpdemux::net {
namespace {

FlowKey concrete() {
  return FlowKey{Ipv4Addr(10, 0, 0, 1), 1521, Ipv4Addr(10, 1, 0, 2), 40001};
}

TEST(FlowKey, EqualityAndOrdering) {
  FlowKey a = concrete();
  FlowKey b = concrete();
  EXPECT_EQ(a, b);
  b.foreign_port = 40002;
  EXPECT_NE(a, b);
}

TEST(FlowKey, FullySpecified) {
  EXPECT_TRUE(concrete().fully_specified());
  FlowKey listen{Ipv4Addr::any(), 1521, Ipv4Addr::any(), 0};
  EXPECT_FALSE(listen.fully_specified());
  FlowKey no_fport = concrete();
  no_fport.foreign_port = 0;
  EXPECT_FALSE(no_fport.fully_specified());
}

TEST(FlowKey, ReversedSwapsHalves) {
  const FlowKey k = concrete();
  const FlowKey r = k.reversed();
  EXPECT_EQ(r.local_addr, k.foreign_addr);
  EXPECT_EQ(r.local_port, k.foreign_port);
  EXPECT_EQ(r.foreign_addr, k.local_addr);
  EXPECT_EQ(r.foreign_port, k.local_port);
  EXPECT_EQ(r.reversed(), k);
}

TEST(FlowKey, ToStringFormat) {
  EXPECT_EQ(concrete().to_string(), "10.0.0.1:1521 <- 10.1.0.2:40001");
}

TEST(FlowKey, StdHashSpreadsDistinctKeys) {
  std::unordered_set<std::size_t> hashes;
  for (std::uint16_t port = 1024; port < 1024 + 1000; ++port) {
    FlowKey k = concrete();
    k.foreign_port = port;
    hashes.insert(std::hash<FlowKey>{}(k));
  }
  // All 1000 single-bit-different keys should hash distinctly.
  EXPECT_EQ(hashes.size(), 1000u);
}

TEST(FlowKey, UsableInUnorderedSet) {
  std::unordered_set<FlowKey> set;
  set.insert(concrete());
  EXPECT_TRUE(set.contains(concrete()));
  FlowKey other = concrete();
  other.foreign_port = 40002;
  EXPECT_FALSE(set.contains(other));
}

}  // namespace
}  // namespace tcpdemux::net

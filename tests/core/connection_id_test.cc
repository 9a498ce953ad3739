#include "core/connection_id.h"

#include <gtest/gtest.h>

namespace tcpdemux::core {
namespace {

net::FlowKey key(std::uint16_t port) {
  return net::FlowKey{net::Ipv4Addr(10, 0, 0, 1), 1521,
                      net::Ipv4Addr(10, 1, 0, 2), port};
}

TEST(ConnectionId, LookupAlwaysExaminesExactlyOne) {
  ConnectionIdDemuxer d(64);
  for (std::uint16_t p = 1; p <= 50; ++p) d.insert(key(p));
  for (std::uint16_t p = 1; p <= 50; ++p) {
    const auto r = d.lookup(key(p));
    ASSERT_NE(r.pcb, nullptr);
    EXPECT_EQ(r.examined, 1u);
  }
}

TEST(ConnectionId, LookupByIdReturnsSamePcb) {
  ConnectionIdDemuxer d(8);
  Pcb* p = d.insert(key(1));
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(d.lookup_by_id(d.id_of(*p)), p);
}

TEST(ConnectionId, IdsAreWithinCapacity) {
  ConnectionIdDemuxer d(8);
  for (std::uint16_t p = 1; p <= 8; ++p) {
    Pcb* pcb = d.insert(key(p));
    ASSERT_NE(pcb, nullptr);
    EXPECT_LT(d.id_of(*pcb), 8u);
  }
}

TEST(ConnectionId, CapacityExhaustionRejectsInsert) {
  ConnectionIdDemuxer d(4);
  for (std::uint16_t p = 1; p <= 4; ++p) {
    EXPECT_NE(d.insert(key(p)), nullptr);
  }
  EXPECT_EQ(d.insert(key(5)), nullptr);
  EXPECT_EQ(d.size(), 4u);
}

TEST(ConnectionId, EraseRecyclesIds) {
  ConnectionIdDemuxer d(2);
  ASSERT_NE(d.insert(key(1)), nullptr);
  ASSERT_NE(d.insert(key(2)), nullptr);
  EXPECT_TRUE(d.erase(key(1)));
  EXPECT_NE(d.insert(key(3)), nullptr);  // reuses the freed slot
  EXPECT_EQ(d.size(), 2u);
}

TEST(ConnectionId, LookupMissCostsOne) {
  ConnectionIdDemuxer d(8);
  d.insert(key(1));
  const auto r = d.lookup(key(2));
  EXPECT_EQ(r.pcb, nullptr);
  EXPECT_EQ(r.examined, 1u);
}

TEST(ConnectionId, LookupByBadId) {
  ConnectionIdDemuxer d(8);
  EXPECT_EQ(d.lookup_by_id(99), nullptr);
  EXPECT_EQ(d.lookup_by_id(3), nullptr);  // in range but unused
}

TEST(ConnectionId, DuplicateInsertRejected) {
  ConnectionIdDemuxer d(8);
  EXPECT_NE(d.insert(key(1)), nullptr);
  EXPECT_EQ(d.insert(key(1)), nullptr);
}

TEST(ConnectionId, ZeroCapacityThrows) {
  EXPECT_THROW(ConnectionIdDemuxer(0), std::invalid_argument);
}

TEST(ConnectionId, ForEachSkipsEmptySlots) {
  ConnectionIdDemuxer d(16);
  d.insert(key(1));
  d.insert(key(2));
  d.erase(key(1));
  std::size_t count = 0;
  d.for_each_pcb([&](const Pcb&) { ++count; });
  EXPECT_EQ(count, 1u);
}

}  // namespace
}  // namespace tcpdemux::core

#include "core/pcb_list.h"

#include <gtest/gtest.h>

#include <vector>

#include "core/pcb_slab.h"

namespace tcpdemux::core {
namespace {

net::FlowKey key(std::uint16_t port) {
  return net::FlowKey{net::Ipv4Addr(10, 0, 0, 1), 1521,
                      net::Ipv4Addr(10, 1, 0, 2), port};
}

// The list is pure linkage — one head pointer, no count — so the tests
// count by walking (count()). The PCBs it links come from a slab, as in
// every demuxer. Each test's slab is declared before its lists.
Pcb* link(PcbSlab& slab, PcbList& list, const net::FlowKey& k,
          std::uint64_t id) {
  Pcb* pcb = slab.make(k, id);
  list.link_front(pcb);
  return pcb;
}

Pcb* link(PcbSlab& slab, PcbList& list, std::uint16_t port) {
  return link(slab, list, key(port), port);
}

TEST(PcbList, StartsEmpty) {
  PcbList list;
  EXPECT_TRUE(list.empty());
  EXPECT_EQ(list.count(), 0u);
  EXPECT_EQ(list.head(), nullptr);
}

TEST(PcbList, LinkFrontLinksAtHead) {
  PcbSlab slab;
  PcbList list;
  Pcb* a = link(slab, list, key(1), 0);
  Pcb* b = link(slab, list, key(2), 1);
  EXPECT_EQ(list.head(), b);
  EXPECT_EQ(b->next, a);
  EXPECT_EQ(a->prev, b);
  EXPECT_EQ(a->next, nullptr);
  EXPECT_EQ(list.count(), 2u);
}

TEST(PcbList, FindScanCountsPosition) {
  PcbSlab slab;
  PcbList list;
  for (std::uint16_t p = 1; p <= 5; ++p) link(slab, list, p);
  // List order is 5,4,3,2,1 — key(5) is first, key(1) is fifth.
  EXPECT_EQ(list.find_scan(key(5)).examined, 1u);
  EXPECT_EQ(list.find_scan(key(3)).examined, 3u);
  EXPECT_EQ(list.find_scan(key(1)).examined, 5u);
}

TEST(PcbList, FindScanMissExaminesAll) {
  PcbSlab slab;
  PcbList list;
  for (std::uint16_t p = 1; p <= 5; ++p) link(slab, list, p);
  const auto r = list.find_scan(key(99));
  EXPECT_EQ(r.pcb, nullptr);
  EXPECT_EQ(r.examined, 5u);
}

TEST(PcbList, MoveToFrontReorders) {
  PcbSlab slab;
  PcbList list;
  for (std::uint16_t p = 1; p <= 4; ++p) link(slab, list, p);
  Pcb* target = list.find_scan(key(1)).pcb;  // at the tail
  ASSERT_NE(target, nullptr);
  list.move_to_front(target);
  EXPECT_EQ(list.head(), target);
  EXPECT_EQ(list.count(), 4u);
  EXPECT_EQ(list.find_scan(key(1)).examined, 1u);
  EXPECT_EQ(list.find_scan(key(4)).examined, 2u);
}

TEST(PcbList, MoveToFrontOfHeadIsNoop) {
  PcbSlab slab;
  PcbList list;
  link(slab, list, 1);
  Pcb* b = link(slab, list, 2);
  list.move_to_front(b);
  EXPECT_EQ(list.head(), b);
  EXPECT_EQ(list.count(), 2u);
}

TEST(PcbList, MoveToFrontFromMiddle) {
  PcbSlab slab;
  PcbList list;
  for (std::uint16_t p = 1; p <= 5; ++p) link(slab, list, p);
  Pcb* middle = list.find_scan(key(3)).pcb;
  list.move_to_front(middle);
  // Expected order now: 3,5,4,2,1.
  std::vector<std::uint16_t> order;
  list.for_each([&](const Pcb& p) { order.push_back(p.key.foreign_port); });
  EXPECT_EQ(order, (std::vector<std::uint16_t>{3, 5, 4, 2, 1}));
}

TEST(PcbList, EraseHead) {
  PcbSlab slab;
  PcbList list;
  link(slab, list, 1);
  Pcb* b = link(slab, list, 2);
  list.unlink(b);
  EXPECT_EQ(list.count(), 1u);
  EXPECT_EQ(list.head()->key, key(1));
  EXPECT_EQ(list.head()->prev, nullptr);
  // Unlinking only detaches: the PCB itself is intact until its slab
  // destroys it.
  EXPECT_EQ(b->next, nullptr);
  EXPECT_EQ(b->prev, nullptr);
  EXPECT_EQ(b->key, key(2));
}

TEST(PcbList, EraseTailAndMiddle) {
  PcbSlab slab;
  PcbList list;
  for (std::uint16_t p = 1; p <= 3; ++p) link(slab, list, p);
  list.unlink(list.find_scan(key(1)).pcb);  // tail
  list.unlink(list.find_scan(key(2)).pcb);  // now tail (was middle)
  EXPECT_EQ(list.count(), 1u);
  EXPECT_EQ(list.head()->key, key(3));
  EXPECT_EQ(list.head()->next, nullptr);
  EXPECT_EQ(list.head()->prev, nullptr);
}

TEST(PcbList, EraseOnlyElement) {
  PcbSlab slab;
  PcbList list;
  Pcb* a = link(slab, list, 1);
  list.unlink(a);
  EXPECT_TRUE(list.empty());
  EXPECT_EQ(list.head(), nullptr);
  EXPECT_EQ(list.count(), 0u);
}

TEST(PcbList, PopFrontDrainsInListOrder) {
  PcbSlab slab;
  PcbList list;
  for (std::uint16_t p = 1; p <= 3; ++p) link(slab, list, p);
  PcbList other;
  while (Pcb* pcb = list.pop_front()) other.link_front(pcb);
  EXPECT_TRUE(list.empty());
  EXPECT_EQ(list.pop_front(), nullptr);
  // Relinking reverses the order: 3,2,1 becomes 1,2,3.
  std::vector<std::uint16_t> order;
  other.for_each([&](const Pcb& p) { order.push_back(p.key.foreign_port); });
  EXPECT_EQ(order, (std::vector<std::uint16_t>{1, 2, 3}));
}

TEST(PcbList, MoveConstructorTransfersOwnership) {
  PcbSlab slab;
  PcbList list;
  for (std::uint16_t p = 1; p <= 3; ++p) link(slab, list, p);
  PcbList other(std::move(list));
  EXPECT_EQ(other.count(), 3u);
  EXPECT_TRUE(list.empty());  // NOLINT(bugprone-use-after-move): spec'd empty
  EXPECT_NE(other.find_scan(key(2)).pcb, nullptr);
}

TEST(PcbList, MoveAssignmentReleasesOldContents) {
  PcbSlab slab;
  PcbList a;
  link(slab, a, 1);
  PcbList b;
  link(slab, b, 2);
  a = std::move(b);
  EXPECT_EQ(a.count(), 1u);
  EXPECT_NE(a.find_scan(key(2)).pcb, nullptr);
  EXPECT_EQ(a.find_scan(key(1)).pcb, nullptr);
}

TEST(PcbList, FindBestMatchPrefersExact) {
  PcbSlab slab;
  PcbList list;
  link(slab, list,
       net::FlowKey{net::Ipv4Addr(10, 0, 0, 1), 1521, net::Ipv4Addr::any(),
                    0},
       0);  // listener
  link(slab, list, key(7), 1);  // exact connection, at head
  const auto r = list.find_best_match(key(7));
  ASSERT_NE(r.pcb, nullptr);
  EXPECT_EQ(r.pcb->key, key(7));
  EXPECT_EQ(r.examined, 1u);  // exact match short-circuits at the head
}

TEST(PcbList, FindBestMatchFallsBackToWildcard) {
  PcbSlab slab;
  PcbList list;
  link(slab, list,
       net::FlowKey{net::Ipv4Addr::any(), 1521, net::Ipv4Addr::any(), 0}, 0);
  link(slab, list,
       net::FlowKey{net::Ipv4Addr(10, 0, 0, 1), 1521, net::Ipv4Addr::any(),
                    0},
       1);
  const auto r = list.find_best_match(key(9));
  ASSERT_NE(r.pcb, nullptr);
  // The single-wildcard (local-addr-specified) listener must win over the
  // double-wildcard one.
  EXPECT_EQ(r.pcb->key.local_addr, net::Ipv4Addr(10, 0, 0, 1));
  EXPECT_EQ(r.examined, 2u);  // no exact match: full scan
}

TEST(PcbList, FindBestMatchNoMatch) {
  PcbSlab slab;
  PcbList list;
  link(slab, list,
       net::FlowKey{net::Ipv4Addr(10, 0, 0, 1), 80, net::Ipv4Addr::any(), 0},
       0);
  const auto r = list.find_best_match(key(9));  // port 1521, no listener
  EXPECT_EQ(r.pcb, nullptr);
}

TEST(PcbList, ConnIdsArePreserved) {
  PcbSlab slab;
  PcbList list;
  Pcb* a = link(slab, list, key(1), 42);
  link(slab, list, key(2), 43);
  list.move_to_front(a);
  list.unlink(a);
  EXPECT_EQ(a->conn_id, 42u);
}

}  // namespace
}  // namespace tcpdemux::core

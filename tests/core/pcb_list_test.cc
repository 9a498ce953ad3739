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
Pcb* link(PcbSlab& slab, PcbList& list, const net::FlowKey& k) {
  Pcb* pcb = slab.make(k);
  list.link_front(pcb);
  return pcb;
}

Pcb* link(PcbSlab& slab, PcbList& list, std::uint16_t port) {
  return link(slab, list, key(port));
}

std::vector<std::uint16_t> order_of(const PcbList& list) {
  std::vector<std::uint16_t> order;
  list.for_each([&](const Pcb& p) { order.push_back(p.key.foreign_port); });
  return order;
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
  Pcb* a = link(slab, list, key(1));
  Pcb* b = link(slab, list, key(2));
  EXPECT_EQ(list.head(), b);
  EXPECT_EQ(b->next, a);
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

TEST(PcbList, FindLinkReturnsTheLinkToThePcb) {
  PcbSlab slab;
  PcbList list;
  for (std::uint16_t p = 1; p <= 5; ++p) link(slab, list, p);
  // List order is 5,4,3,2,1. The head's link is the list's own pointer;
  // every other node's is its predecessor's `next`.
  const auto head = list.find_link(key(5));
  ASSERT_NE(head.link, nullptr);
  EXPECT_EQ(head.pcb(), list.head());
  EXPECT_EQ(head.examined, 1u);
  Pcb* const four = list.head()->next;
  const auto three = list.find_link(key(3));
  EXPECT_EQ(three.link, &four->next);
  EXPECT_EQ(three.pcb()->key, key(3));
  EXPECT_EQ(three.examined, list.find_scan(key(3)).examined);
  const auto miss = list.find_link(key(99));
  EXPECT_EQ(miss.link, nullptr);
  EXPECT_EQ(miss.pcb(), nullptr);
  EXPECT_EQ(miss.examined, 5u);
}

TEST(PcbList, MoveToFrontReorders) {
  PcbSlab slab;
  PcbList list;
  for (std::uint16_t p = 1; p <= 4; ++p) link(slab, list, p);
  const auto scan = list.find_link(key(1));  // the tail
  Pcb* target = scan.pcb();
  ASSERT_NE(target, nullptr);
  list.move_to_front(scan.link);
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
  list.move_to_front(list.find_link(key(2)).link);
  EXPECT_EQ(list.head(), b);
  EXPECT_EQ(list.count(), 2u);
  EXPECT_EQ(order_of(list), (std::vector<std::uint16_t>{2, 1}));
}

TEST(PcbList, MoveToFrontFromMiddle) {
  PcbSlab slab;
  PcbList list;
  for (std::uint16_t p = 1; p <= 5; ++p) link(slab, list, p);
  list.move_to_front(list.find_link(key(3)).link);
  EXPECT_EQ(order_of(list), (std::vector<std::uint16_t>{3, 5, 4, 2, 1}));
}

TEST(PcbList, EraseHead) {
  PcbSlab slab;
  PcbList list;
  link(slab, list, 1);
  Pcb* b = link(slab, list, 2);
  list.unlink(list.find_link(key(2)).link);
  EXPECT_EQ(list.count(), 1u);
  EXPECT_EQ(list.head()->key, key(1));
  // Unlinking only detaches: the PCB itself is intact until its slab
  // destroys it.
  EXPECT_EQ(b->next, nullptr);
  EXPECT_EQ(b->key, key(2));
}

TEST(PcbList, EraseTailAndMiddle) {
  PcbSlab slab;
  PcbList list;
  for (std::uint16_t p = 1; p <= 3; ++p) link(slab, list, p);
  list.unlink(list.find_link(key(1)).link);  // tail
  list.unlink(list.find_link(key(2)).link);  // now tail (was middle)
  EXPECT_EQ(list.count(), 1u);
  EXPECT_EQ(list.head()->key, key(3));
  EXPECT_EQ(list.head()->next, nullptr);
}

TEST(PcbList, EraseMiddleKeepsBothNeighbours) {
  PcbSlab slab;
  PcbList list;
  for (std::uint16_t p = 1; p <= 5; ++p) link(slab, list, p);
  Pcb* const middle = list.find_scan(key(3)).pcb;
  list.unlink(list.find_link(key(3)).link);
  EXPECT_EQ(middle->next, nullptr);
  EXPECT_EQ(order_of(list), (std::vector<std::uint16_t>{5, 4, 2, 1}));
  EXPECT_EQ(list.find_scan(key(2)).examined, 3u);
  EXPECT_EQ(list.find_scan(key(3)).pcb, nullptr);
}

TEST(PcbList, EraseOnlyElement) {
  PcbSlab slab;
  PcbList list;
  link(slab, list, 1);
  list.unlink(list.find_link(key(1)).link);
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
  EXPECT_EQ(order_of(other), (std::vector<std::uint16_t>{1, 2, 3}));
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

TEST(PcbList, RelinkingPreservesPcbState) {
  PcbSlab slab;
  PcbList list;
  Pcb* a = link(slab, list, key(1));
  link(slab, list, key(2));
  a->bytes_in = 42;
  list.move_to_front(list.find_link(key(1)).link);
  EXPECT_EQ(list.head(), a);
  list.unlink(list.find_link(key(1)).link);
  EXPECT_EQ(a->key, key(1));
  EXPECT_EQ(a->bytes_in, 42u);
}

}  // namespace
}  // namespace tcpdemux::core

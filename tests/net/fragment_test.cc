#include "net/fragment.h"

#include <gtest/gtest.h>

#include <functional>

#include "net/packet.h"

namespace tcpdemux::net {
namespace {

/// Copies a view: a reassembled datagram lives only until the next offer().
std::vector<std::uint8_t> bytes(std::span<const std::uint8_t> view) {
  return {view.begin(), view.end()};
}

std::vector<std::uint8_t> datagram(std::size_t payload,
                                   std::uint16_t ip_id = 77,
                                   bool df = false) {
  auto wire = PacketBuilder()
                  .from({Ipv4Addr(10, 1, 0, 2), 40001})
                  .to({Ipv4Addr(10, 0, 0, 1), 1521})
                  .seq(100)
                  .ack_seq(200)
                  .ip_id(ip_id)
                  .payload_size(payload)
                  .build();
  if (!df) {
    auto h = Ipv4Header::parse(wire);
    h->dont_fragment = false;
    h->serialize(wire);
  }
  return wire;
}

TEST(Fragment, SmallPacketPassesThrough) {
  const auto wire = datagram(100);
  const auto fragments = fragment_packet(wire, 1500);
  ASSERT_EQ(fragments.size(), 1u);
  EXPECT_EQ(fragments[0], wire);
}

TEST(Fragment, SplitsRespectMtuAndAlignment) {
  const auto wire = datagram(1000);
  const auto fragments = fragment_packet(wire, 300);
  ASSERT_GT(fragments.size(), 1u);
  std::size_t total_payload = 0;
  for (std::size_t i = 0; i < fragments.size(); ++i) {
    const auto h = Ipv4Header::parse(fragments[i]);
    ASSERT_TRUE(h.has_value()) << "fragment " << i;
    EXPECT_LE(h->total_length, 300);
    EXPECT_EQ(h->more_fragments, i + 1 < fragments.size());
    if (i + 1 < fragments.size()) {
      EXPECT_EQ((h->total_length - Ipv4Header::kSize) % 8, 0u);
    }
    total_payload += h->total_length - Ipv4Header::kSize;
  }
  EXPECT_EQ(total_payload, 20u + 1000u);  // TCP header + payload
}

TEST(Fragment, DontFragmentRefuses) {
  const auto wire = datagram(1000, 77, /*df=*/true);
  EXPECT_TRUE(fragment_packet(wire, 300).empty());
}

TEST(Fragment, TinyMtuRefuses) {
  EXPECT_TRUE(fragment_packet(datagram(1000), 24).empty());
}

TEST(Fragment, GarbageRefused) {
  const std::vector<std::uint8_t> junk(40, 0xee);
  EXPECT_TRUE(fragment_packet(junk, 1500).empty());
}

TEST(Reassembly, InOrderRoundTrip) {
  const auto wire = datagram(1000);
  const auto fragments = fragment_packet(wire, 300);
  Reassembler r;
  std::optional<std::span<const std::uint8_t>> result;
  for (const auto& f : fragments) {
    EXPECT_FALSE(result.has_value());
    result = r.offer(f, 0.0);
  }
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(bytes(*result), wire);
  // The reassembled datagram parses as a full TCP packet again.
  EXPECT_TRUE(Packet::parse(*result).has_value());
  EXPECT_EQ(r.pending_datagrams(), 0u);
}

TEST(Reassembly, OutOfOrderRoundTrip) {
  const auto wire = datagram(2000);
  auto fragments = fragment_packet(wire, 256);
  ASSERT_GT(fragments.size(), 3u);
  // Deliver in reverse.
  Reassembler r;
  std::optional<std::span<const std::uint8_t>> result;
  for (auto it = fragments.rbegin(); it != fragments.rend(); ++it) {
    result = r.offer(*it, 0.0);
  }
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(bytes(*result), wire);
}

TEST(Reassembly, DuplicateFragmentsHarmless) {
  const auto wire = datagram(900);
  const auto fragments = fragment_packet(wire, 300);
  Reassembler r;
  std::optional<std::span<const std::uint8_t>> result;
  for (const auto& f : fragments) {
    (void)r.offer(f, 0.0);  // deliver everything twice
    result = r.offer(f, 0.0);
    if (result) break;
  }
  // The final duplicate completes (or the set completed on first pass).
  const auto again = fragment_packet(wire, 300);
  for (const auto& f : again) {
    if (!result) result = r.offer(f, 0.0);
  }
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(bytes(*result), wire);
}

TEST(Reassembly, NonFragmentPassesThrough) {
  const auto wire = datagram(64);
  Reassembler r;
  const auto result = r.offer(wire, 0.0);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(bytes(*result), wire);
  EXPECT_EQ(r.pending_datagrams(), 0u);
}

TEST(Reassembly, WholeDatagramIsAViewOfTheWire) {
  // Zero copy: a whole datagram comes back as the caller's own bytes, cut
  // at the IPv4 total length (link-layer padding excluded).
  auto wire = datagram(64);
  const std::size_t total = wire.size();
  wire.resize(total + 6, 0x00);
  Reassembler r;
  const auto result = r.offer(wire, 0.0);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->data(), wire.data());
  EXPECT_EQ(result->size(), total);
  // The parsed payload aliases those same bytes.
  const auto packet = Packet::parse(*result);
  ASSERT_TRUE(packet.has_value());
  EXPECT_EQ(packet->payload.data(), wire.data() + 40);
  EXPECT_EQ(packet->payload.size(), 64u);
}

TEST(Reassembly, ReassembledViewOwnedByReassembler) {
  // A completed datagram is built in the reassembler's buffer, not in any
  // fragment, and a packet parsed from it points into that buffer.
  const auto wire = datagram(1000);
  const auto fragments = fragment_packet(wire, 300);
  Reassembler r;
  std::optional<std::span<const std::uint8_t>> result;
  for (const auto& f : fragments) result = r.offer(f, 0.0);
  ASSERT_TRUE(result.has_value());
  for (const auto& f : fragments) {
    // std::less gives the total pointer order the built-in < does not.
    EXPECT_FALSE(std::less_equal<>{}(f.data(), result->data()) &&
                 std::less<>{}(result->data(), f.data() + f.size()));
  }
  const auto packet = Packet::parse(*result);
  ASSERT_TRUE(packet.has_value());
  EXPECT_EQ(packet->payload.data(), result->data() + 40);
  EXPECT_EQ(bytes(packet->payload),
            std::vector<std::uint8_t>(wire.begin() + 40, wire.end()));
}

TEST(Reassembly, InterleavedDatagramsKeptSeparate) {
  const auto wire_a = datagram(800, 1);
  const auto wire_b = datagram(800, 2);
  const auto fa = fragment_packet(wire_a, 300);
  const auto fb = fragment_packet(wire_b, 300);
  Reassembler r;
  std::optional<std::vector<std::uint8_t>> got_a;
  std::optional<std::vector<std::uint8_t>> got_b;
  for (std::size_t i = 0; i < fa.size(); ++i) {
    // Each view dies at the next offer(), so copy it before offering more.
    if (const auto ra = r.offer(fa[i], 0.0)) got_a = bytes(*ra);
    if (const auto rb = r.offer(fb[i], 0.0)) got_b = bytes(*rb);
  }
  ASSERT_TRUE(got_a.has_value());
  ASSERT_TRUE(got_b.has_value());
  EXPECT_EQ(*got_a, wire_a);
  EXPECT_EQ(*got_b, wire_b);
}

TEST(Reassembly, MissingFragmentNeverCompletes) {
  const auto fragments = fragment_packet(datagram(1000), 300);
  Reassembler r;
  for (std::size_t i = 0; i < fragments.size(); ++i) {
    if (i == 1) continue;  // drop one middle fragment
    EXPECT_FALSE(r.offer(fragments[i], 0.0).has_value());
  }
  EXPECT_EQ(r.pending_datagrams(), 1u);
}

TEST(Reassembly, ExpireDropsStaleDatagrams) {
  const auto fragments = fragment_packet(datagram(1000), 300);
  Reassembler r;
  (void)r.offer(fragments[0], 0.0);
  EXPECT_EQ(r.expire(10.0), 0u);   // still young
  EXPECT_EQ(r.expire(31.0), 1u);   // past the 30 s timeout
  EXPECT_EQ(r.pending_datagrams(), 0u);
}

TEST(Reassembly, CapacityBoundRespected) {
  Reassembler r(Reassembler::Options{30.0, 2, 65535});
  // Three concurrent partial datagrams; the third is rejected.
  for (std::uint16_t id = 1; id <= 3; ++id) {
    const auto fragments = fragment_packet(datagram(600, id), 300);
    (void)r.offer(fragments[0], 0.0);
  }
  EXPECT_EQ(r.pending_datagrams(), 2u);
  EXPECT_GT(r.rejected(), 0u);
}

TEST(Reassembly, OversizeDatagramRejected) {
  Reassembler r(Reassembler::Options{30.0, 16, 1024});
  const auto fragments = fragment_packet(datagram(2000), 300);
  bool any_completed = false;
  for (const auto& f : fragments) {
    if (r.offer(f, 0.0)) any_completed = true;
  }
  EXPECT_FALSE(any_completed);
  EXPECT_GT(r.rejected(), 0u);
}

TEST(Reassembly, RefragmentedMiddleFragmentKeepsMfBit) {
  // Fragment once at 600, then re-fragment the first (MF=1) piece at 300:
  // its last sub-fragment must keep MF set.
  const auto first_level = fragment_packet(datagram(1200), 600);
  ASSERT_GT(first_level.size(), 1u);
  const auto second_level = fragment_packet(first_level[0], 300);
  ASSERT_GT(second_level.size(), 1u);
  const auto h = Ipv4Header::parse(second_level.back());
  ASSERT_TRUE(h.has_value());
  EXPECT_TRUE(h->more_fragments);
}

TEST(Reassembly, TwoLevelFragmentationStillReassembles) {
  const auto wire = datagram(1200);
  Reassembler r;
  std::optional<std::vector<std::uint8_t>> result;
  for (const auto& f : fragment_packet(wire, 600)) {
    for (const auto& ff : fragment_packet(f, 300)) {
      const auto got = r.offer(ff, 0.0);
      if (got) result = bytes(*got);
    }
  }
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(*result, wire);
}

}  // namespace
}  // namespace tcpdemux::net

#include "net/packet.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "tcp_option_wire.h"

namespace tcpdemux::net {
namespace {

std::vector<std::uint8_t> sample_wire(std::size_t payload = 64) {
  return PacketBuilder()
      .from({Ipv4Addr(10, 1, 0, 2), 40001})
      .to({Ipv4Addr(10, 0, 0, 1), 1521})
      .seq(1000)
      .ack_seq(2000)
      .flags(TcpFlag::kPsh)
      .payload_size(payload)
      .build();
}

TEST(Packet, BuildParseRoundTrip) {
  const auto wire = sample_wire();
  const auto p = Packet::parse(wire);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->ip.src, Ipv4Addr(10, 1, 0, 2));
  EXPECT_EQ(p->ip.dst, Ipv4Addr(10, 0, 0, 1));
  EXPECT_EQ(p->tcp.src_port, 40001);
  EXPECT_EQ(p->tcp.dst_port, 1521);
  EXPECT_EQ(p->tcp.seq, 1000u);
  EXPECT_EQ(p->tcp.ack, 2000u);
  EXPECT_TRUE(p->tcp.has(TcpFlag::kAck));
  EXPECT_TRUE(p->tcp.has(TcpFlag::kPsh));
  EXPECT_EQ(p->payload.size(), 64u);
}

TEST(Packet, ReceiverFlowKeyIsDestinationCentric) {
  const auto wire = sample_wire();
  const auto p = Packet::parse(wire);
  ASSERT_TRUE(p.has_value());
  const FlowKey k = p->receiver_flow_key();
  EXPECT_EQ(k.local_addr, Ipv4Addr(10, 0, 0, 1));
  EXPECT_EQ(k.local_port, 1521);
  EXPECT_EQ(k.foreign_addr, Ipv4Addr(10, 1, 0, 2));
  EXPECT_EQ(k.foreign_port, 40001);
}

TEST(Packet, WireLengthMatchesHeadersPlusPayload) {
  const auto wire = sample_wire(10);
  EXPECT_EQ(wire.size(), 20u + 20u + 10u);
}

TEST(Packet, ParseRejectsCorruptTcpChecksum) {
  auto wire = sample_wire();
  wire.back() ^= 0x01;  // flip a payload bit; TCP checksum must catch it
  EXPECT_FALSE(Packet::parse(wire).has_value());
}

TEST(Packet, ParseRejectsCorruptIpChecksum) {
  auto wire = sample_wire();
  wire[14] ^= 0x01;  // corrupt source address
  EXPECT_FALSE(Packet::parse(wire).has_value());
}

TEST(Packet, ParseRejectsNonTcpProtocol) {
  auto wire = sample_wire(0);
  // Rewrite the protocol to UDP and fix the IP checksum via re-serialize.
  auto ip = Ipv4Header::parse(wire);
  ASSERT_TRUE(ip.has_value());
  ip->protocol = 17;
  ip->serialize(wire);
  EXPECT_FALSE(Packet::parse(wire).has_value());
}

TEST(Packet, ParseRejectsFragments) {
  auto wire = sample_wire(0);
  auto ip = Ipv4Header::parse(wire);
  ASSERT_TRUE(ip.has_value());
  ip->more_fragments = true;
  ip->serialize(wire);
  EXPECT_FALSE(Packet::parse(wire).has_value());
}

TEST(Packet, ParseRejectsTruncatedWire) {
  const auto wire = sample_wire();
  const std::span<const std::uint8_t> shorter(wire.data(), 30);
  EXPECT_FALSE(Packet::parse(shorter).has_value());
}

TEST(Packet, ZeroPayloadAck) {
  const auto wire = PacketBuilder()
                        .from({Ipv4Addr(10, 1, 0, 2), 40001})
                        .to({Ipv4Addr(10, 0, 0, 1), 1521})
                        .seq(5)
                        .ack_seq(6)
                        .build();
  const auto p = Packet::parse(wire);
  ASSERT_TRUE(p.has_value());
  EXPECT_TRUE(p->payload.empty());
  EXPECT_TRUE(p->tcp.has(TcpFlag::kAck));
  EXPECT_FALSE(p->tcp.has(TcpFlag::kPsh));
}

TEST(Packet, SynHasNoAckFlagUnlessRequested) {
  const auto wire = PacketBuilder()
                        .from({Ipv4Addr(10, 1, 0, 2), 40001})
                        .to({Ipv4Addr(10, 0, 0, 1), 1521})
                        .seq(7)
                        .flags(TcpFlag::kSyn)
                        .build();
  const auto p = Packet::parse(wire);
  ASSERT_TRUE(p.has_value());
  EXPECT_TRUE(p->tcp.has(TcpFlag::kSyn));
  EXPECT_FALSE(p->tcp.has(TcpFlag::kAck));
}

TEST(Packet, PayloadBytesArePreserved) {
  const std::vector<std::uint8_t> data = {1, 2, 3, 4, 5};
  const auto wire = PacketBuilder()
                        .from({Ipv4Addr(10, 1, 0, 2), 40001})
                        .to({Ipv4Addr(10, 0, 0, 1), 1521})
                        .payload(data)
                        .build();
  const auto p = Packet::parse(wire);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(std::vector<std::uint8_t>(p->payload.begin(), p->payload.end()),
            data);
}

TEST(Packet, PayloadAliasesTheParsedBytes) {
  // Zero copy: the payload is a view of the wire buffer, right behind the
  // IPv4 and TCP headers, and it ends at the IPv4 total length (link-layer
  // padding behind the datagram is not payload).
  auto wire = sample_wire(64);
  wire.resize(wire.size() + 6, 0x00);
  const auto p = Packet::parse(wire);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->payload.data(), wire.data() + 20 + 20);
  EXPECT_EQ(p->payload.size(), 64u);
}

TEST(Packet, OptionsAliasTheSegment) {
  // Options are a view like the payload: 12 option bytes sit right behind
  // the fixed 20-byte TCP header, and the payload starts right after them.
  const auto wire = test::with_tcp_options(sample_wire(64),
                                           test::kTimestampOptions);
  const auto p = Packet::parse(wire);
  ASSERT_TRUE(p.has_value());
  const std::uint8_t* segment = wire.data() + Ipv4Header::kSize;
  EXPECT_EQ(p->tcp.options.size(), 12u);
  EXPECT_EQ(p->tcp.options.data(), segment + TcpHeader::kMinSize);
  EXPECT_TRUE(std::ranges::equal(p->tcp.options, test::kTimestampOptions));
  EXPECT_EQ(p->tcp.size(), 32u);
  EXPECT_EQ(p->payload.data(), segment + 32);
  EXPECT_EQ(p->payload.size(), 64u);

  // A segment cut anywhere short of its data offset has no complete
  // header, so the TCP parser must reject it rather than view past it.
  const std::span<const std::uint8_t> tcp_bytes(segment, 32 + 64);
  for (std::size_t len = 0; len < p->tcp.size(); ++len) {
    EXPECT_FALSE(TcpHeader::parse(tcp_bytes.first(len)).has_value())
        << "prefix " << len;
  }
  EXPECT_TRUE(TcpHeader::parse(tcp_bytes.first(p->tcp.size())).has_value());
}

}  // namespace
}  // namespace tcpdemux::net

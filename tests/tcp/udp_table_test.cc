#include "tcp/udp_table.h"

#include <gtest/gtest.h>

#include "net/packet.h"

namespace tcpdemux::tcp {
namespace {

using net::Ipv4Addr;

constexpr Ipv4Addr kServer{10, 0, 0, 1};
constexpr Ipv4Addr kClient{10, 1, 0, 2};

core::DemuxConfig sequent_config() {
  core::DemuxConfig c;
  c.algorithm = core::Algorithm::kSequent;
  c.hasher = net::HasherKind::kCrc32;
  return c;
}

std::vector<std::uint8_t> datagram(std::uint16_t src_port,
                                   std::uint16_t dst_port,
                                   std::size_t payload = 32) {
  const std::vector<std::uint8_t> body(payload, 0x5a);
  return net::build_udp_packet(kClient, src_port, kServer, dst_port, body);
}

TEST(UdpTable, ConnectedSocketExactMatch) {
  UdpTable table(sequent_config());
  core::Pcb* pcb =
      table.connect(net::FlowKey{kServer, 53, kClient, 40001});
  ASSERT_NE(pcb, nullptr);
  const auto r = table.deliver_wire(datagram(40001, 53));
  EXPECT_EQ(r.status, UdpTable::Delivery::kConnected);
  EXPECT_EQ(r.pcb, pcb);
  EXPECT_EQ(pcb->bytes_in, 32u);
}

TEST(UdpTable, BoundSocketCatchesUnconnectedTraffic) {
  UdpTable table(sequent_config());
  ASSERT_TRUE(table.bind(kServer, 53));
  const auto r = table.deliver_wire(datagram(40001, 53));
  EXPECT_EQ(r.status, UdpTable::Delivery::kBound);
  ASSERT_EQ(table.bound().size(), 1u);
  EXPECT_EQ(table.bound()[0].datagrams, 1u);
  EXPECT_EQ(table.bound()[0].bytes, 32u);
}

TEST(UdpTable, ConnectedBeatsBound) {
  UdpTable table(sequent_config());
  table.bind(kServer, 53);
  core::Pcb* pcb = table.connect(net::FlowKey{kServer, 53, kClient, 40001});
  const auto r = table.deliver_wire(datagram(40001, 53));
  EXPECT_EQ(r.status, UdpTable::Delivery::kConnected);
  EXPECT_EQ(r.pcb, pcb);
  EXPECT_EQ(table.bound()[0].datagrams, 0u);
}

TEST(UdpTable, ExactBindBeatsWildcardBind) {
  UdpTable table(sequent_config());
  table.bind(Ipv4Addr::any(), 53);
  table.bind(kServer, 53);
  (void)table.deliver_wire(datagram(40001, 53));
  EXPECT_EQ(table.bound()[0].datagrams, 0u);  // wildcard skipped
  EXPECT_EQ(table.bound()[1].datagrams, 1u);
}

TEST(UdpTable, UnreachablePortCounted) {
  UdpTable table(sequent_config());
  table.bind(kServer, 53);
  const auto r = table.deliver_wire(datagram(40001, 54));
  EXPECT_EQ(r.status, UdpTable::Delivery::kUnreachable);
  EXPECT_EQ(table.unreachable(), 1u);
}

TEST(UdpTable, DuplicateBindRejected) {
  UdpTable table(sequent_config());
  EXPECT_TRUE(table.bind(kServer, 53));
  EXPECT_FALSE(table.bind(kServer, 53));
}

TEST(UdpTable, CorruptChecksumRejected) {
  UdpTable table(sequent_config());
  table.bind(kServer, 53);
  auto wire = datagram(40001, 53);
  wire.back() ^= 0x01;
  const auto r = table.deliver_wire(wire);
  EXPECT_EQ(r.status, UdpTable::Delivery::kParseError);
}

TEST(UdpTable, NonUdpProtocolRejected) {
  UdpTable table(sequent_config());
  // A TCP packet is not ours.
  const auto tcp_wire = net::PacketBuilder()
                            .from({kClient, 40001})
                            .to({kServer, 53})
                            .build();
  const auto r = table.deliver_wire(tcp_wire);
  EXPECT_EQ(r.status, UdpTable::Delivery::kParseError);
}

TEST(UdpTable, ManyConnectedSocketsDemuxCheaply) {
  UdpTable table(sequent_config());
  for (std::uint16_t p = 0; p < 500; ++p) {
    ASSERT_NE(table.connect(net::FlowKey{
                  kServer, 53, kClient,
                  static_cast<std::uint16_t>(40000 + p)}),
              nullptr);
  }
  for (std::uint16_t p = 0; p < 500; ++p) {
    const auto r = table.deliver_wire(
        datagram(static_cast<std::uint16_t>(40000 + p), 53, 8));
    ASSERT_EQ(r.status, UdpTable::Delivery::kConnected);
  }
  // 500 sockets over 19 chains: the paper's economics apply to UDP too.
  EXPECT_LT(table.demuxer().stats().mean_examined(), 30.0);
}

TEST(UdpTable, DisconnectRemovesExactMatch) {
  UdpTable table(sequent_config());
  table.bind(kServer, 53);
  table.connect(net::FlowKey{kServer, 53, kClient, 40001});
  EXPECT_TRUE(table.disconnect(net::FlowKey{kServer, 53, kClient, 40001}));
  const auto r = table.deliver_wire(datagram(40001, 53));
  EXPECT_EQ(r.status, UdpTable::Delivery::kBound);  // falls back
}

}  // namespace
}  // namespace tcpdemux::tcp

#include "tcp/socket_table.h"

#include <gtest/gtest.h>

#include <vector>

namespace tcpdemux::tcp {
namespace {

using net::Ipv4Addr;
using net::Packet;
using net::PacketBuilder;
using net::TcpFlag;

constexpr Ipv4Addr kServer{10, 0, 0, 1};
constexpr std::uint16_t kPort = 1521;

class SocketTableTest : public ::testing::Test {
 protected:
  SocketTableTest()
      : table_(core::DemuxConfig{core::Algorithm::kSequent, 19,
                                 net::HasherKind::kCrc32, true, 0},
               [this](std::vector<std::uint8_t> wire, const core::Pcb&) {
                 outbound_.push_back(std::move(wire));
               }) {}

  Packet last_out() const {
    const auto p = Packet::parse(outbound_.back());
    EXPECT_TRUE(p.has_value());
    return *p;
  }

  std::vector<std::uint8_t> client_packet(std::uint16_t client_port,
                                          std::uint8_t flags,
                                          std::uint32_t seq,
                                          std::uint32_t ack,
                                          std::size_t payload = 0) {
    PacketBuilder b;
    b.from({Ipv4Addr(10, 1, 0, 2), client_port})
        .to({kServer, kPort})
        .seq(seq)
        .flags(flags)
        .payload_size(payload);
    if ((flags & static_cast<std::uint8_t>(TcpFlag::kAck)) != 0) {
      b.ack_seq(ack);
    }
    return b.build();
  }

  SocketTable table_;
  std::vector<std::vector<std::uint8_t>> outbound_;
};

TEST_F(SocketTableTest, SynToListenerSpawnsConnection) {
  ASSERT_TRUE(table_.listen(kServer, kPort));
  const auto r = table_.deliver_wire(
      client_packet(40001, static_cast<std::uint8_t>(TcpFlag::kSyn), 100, 0));
  EXPECT_EQ(r.status, SocketTable::Delivery::kNewConnection);
  ASSERT_NE(r.pcb, nullptr);
  EXPECT_EQ(r.pcb->state, core::TcpState::kSynReceived);
  EXPECT_EQ(table_.connection_count(), 1u);
  // The SYN|ACK went out on the wire with valid checksums.
  const Packet synack = last_out();
  EXPECT_TRUE(synack.tcp.has(TcpFlag::kSyn));
  EXPECT_TRUE(synack.tcp.has(TcpFlag::kAck));
  EXPECT_EQ(synack.tcp.ack, 101u);
  EXPECT_EQ(synack.ip.dst, Ipv4Addr(10, 1, 0, 2));
}

TEST_F(SocketTableTest, FullHandshakeAndDataExchange) {
  ASSERT_TRUE(table_.listen(kServer, kPort));
  auto r = table_.deliver_wire(
      client_packet(40001, static_cast<std::uint8_t>(TcpFlag::kSyn), 100, 0));
  const std::uint32_t server_iss = last_out().tcp.seq;
  // Client completes the handshake.
  r = table_.deliver_wire(client_packet(
      40001, static_cast<std::uint8_t>(TcpFlag::kAck), 101, server_iss + 1));
  EXPECT_EQ(r.status, SocketTable::Delivery::kDelivered);
  EXPECT_EQ(r.pcb->state, core::TcpState::kEstablished);
  // Client sends 50 bytes; server must ack 151.
  r = table_.deliver_wire(client_packet(
      40001, TcpFlag::kAck | TcpFlag::kPsh, 101, server_iss + 1, 50));
  EXPECT_EQ(r.status, SocketTable::Delivery::kDelivered);
  EXPECT_EQ(last_out().tcp.ack, 151u);
  EXPECT_EQ(r.pcb->bytes_in, 50u);
  // Server sends a response.
  EXPECT_TRUE(table_.send_data(*r.pcb, 200));
  const Packet resp = last_out();
  EXPECT_EQ(resp.payload.size(), 200u);
  EXPECT_EQ(resp.tcp.seq, server_iss + 1);
}

TEST_F(SocketTableTest, SynWithoutListenerGetsRst) {
  const auto r = table_.deliver_wire(
      client_packet(40001, static_cast<std::uint8_t>(TcpFlag::kSyn), 100, 0));
  EXPECT_EQ(r.status, SocketTable::Delivery::kReset);
  const Packet rst = last_out();
  EXPECT_TRUE(rst.tcp.has(TcpFlag::kRst));
  EXPECT_EQ(table_.connection_count(), 0u);
}

TEST_F(SocketTableTest, StrayAckGetsRstWithItsAckAsSeq) {
  const auto r = table_.deliver_wire(client_packet(
      40001, static_cast<std::uint8_t>(TcpFlag::kAck), 100, 7777));
  EXPECT_EQ(r.status, SocketTable::Delivery::kReset);
  const Packet rst = last_out();
  EXPECT_TRUE(rst.tcp.has(TcpFlag::kRst));
  EXPECT_EQ(rst.tcp.seq, 7777u);
}

TEST_F(SocketTableTest, MalformedPacketIsRejected) {
  std::vector<std::uint8_t> garbage(40, 0xcc);
  const auto r = table_.deliver_wire(garbage);
  EXPECT_EQ(r.status, SocketTable::Delivery::kParseError);
  EXPECT_TRUE(outbound_.empty());
}

TEST_F(SocketTableTest, CorruptChecksumIsRejected) {
  ASSERT_TRUE(table_.listen(kServer, kPort));
  auto wire =
      client_packet(40001, static_cast<std::uint8_t>(TcpFlag::kSyn), 100, 0);
  wire[wire.size() - 1] ^= 0xff;  // corrupt TCP header byte
  const auto r = table_.deliver_wire(wire);
  EXPECT_EQ(r.status, SocketTable::Delivery::kParseError);
}

TEST_F(SocketTableTest, WildcardListenerAcceptsAnyLocalAddr) {
  ASSERT_TRUE(table_.listen(Ipv4Addr::any(), kPort));
  const auto r = table_.deliver_wire(
      client_packet(40001, static_cast<std::uint8_t>(TcpFlag::kSyn), 100, 0));
  EXPECT_EQ(r.status, SocketTable::Delivery::kNewConnection);
}

TEST_F(SocketTableTest, DuplicateListenRejected) {
  EXPECT_TRUE(table_.listen(kServer, kPort));
  EXPECT_FALSE(table_.listen(kServer, kPort));
  EXPECT_EQ(table_.listener_count(), 1u);
}

TEST_F(SocketTableTest, ActiveConnectEmitsSyn) {
  const net::FlowKey key{kServer, 30000, Ipv4Addr(10, 1, 0, 9), 80};
  core::Pcb* pcb = table_.connect(key);
  ASSERT_NE(pcb, nullptr);
  EXPECT_EQ(pcb->state, core::TcpState::kSynSent);
  const Packet syn = last_out();
  EXPECT_TRUE(syn.tcp.has(TcpFlag::kSyn));
  EXPECT_EQ(syn.ip.dst, Ipv4Addr(10, 1, 0, 9));
  EXPECT_EQ(syn.tcp.dst_port, 80);
  // Duplicate connect on the same flow is refused.
  EXPECT_EQ(table_.connect(key), nullptr);
}

TEST_F(SocketTableTest, DemuxStatsAccumulateAcrossDeliveries) {
  ASSERT_TRUE(table_.listen(kServer, kPort));
  for (std::uint16_t port = 40001; port <= 40020; ++port) {
    table_.deliver_wire(client_packet(
        port, static_cast<std::uint8_t>(TcpFlag::kSyn), 100, 0));
  }
  EXPECT_EQ(table_.connection_count(), 20u);
  EXPECT_EQ(table_.demuxer().stats().lookups, 20u);
}

TEST_F(SocketTableTest, EraseRemovesConnection) {
  ASSERT_TRUE(table_.listen(kServer, kPort));
  table_.deliver_wire(
      client_packet(40001, static_cast<std::uint8_t>(TcpFlag::kSyn), 100, 0));
  const net::FlowKey key{kServer, kPort, Ipv4Addr(10, 1, 0, 2), 40001};
  EXPECT_TRUE(table_.erase(key));
  EXPECT_EQ(table_.connection_count(), 0u);
  // A data packet for the vanished connection now draws a RST.
  const auto r = table_.deliver_wire(client_packet(
      40001, TcpFlag::kAck | TcpFlag::kPsh, 101, 1, 10));
  EXPECT_EQ(r.status, SocketTable::Delivery::kReset);
}

TEST_F(SocketTableTest, EraseOfAbsentKeyChangesNothing) {
  ASSERT_TRUE(table_.listen(kServer, kPort));
  for (std::uint16_t port = 40001; port <= 40005; ++port) {
    table_.deliver_wire(client_packet(
        port, static_cast<std::uint8_t>(TcpFlag::kSyn), 100, 0));
  }
  const core::Demuxer& demuxer = table_.demuxer();
  const core::DemuxStats stats = demuxer.stats();
  const std::uint64_t erases = demuxer.telemetry().counters().erases;
  const net::FlowKey absent{kServer, kPort, Ipv4Addr(10, 1, 0, 2), 40099};
  EXPECT_FALSE(table_.erase(absent));
  EXPECT_EQ(demuxer.size(), 5u);
  EXPECT_EQ(demuxer.stats().lookups, stats.lookups);
  EXPECT_EQ(demuxer.stats().found, stats.found);
  EXPECT_EQ(demuxer.stats().cache_hits, stats.cache_hits);
  EXPECT_EQ(demuxer.stats().pcbs_examined, stats.pcbs_examined);
  EXPECT_EQ(demuxer.telemetry().counters().erases, erases);
}

TEST_F(SocketTableTest, DuplicateSynForExistingConnectionIsDelivered) {
  ASSERT_TRUE(table_.listen(kServer, kPort));
  table_.deliver_wire(
      client_packet(40001, static_cast<std::uint8_t>(TcpFlag::kSyn), 100, 0));
  const auto before = table_.connection_count();
  // Retransmitted SYN matches the half-open PCB, not the listener.
  const auto r = table_.deliver_wire(
      client_packet(40001, static_cast<std::uint8_t>(TcpFlag::kSyn), 100, 0));
  EXPECT_EQ(r.status, SocketTable::Delivery::kDelivered);
  EXPECT_EQ(table_.connection_count(), before);
}

}  // namespace
}  // namespace tcpdemux::tcp

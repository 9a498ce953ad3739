// Loss recovery through the socket table: retransmission queues, RTT
// sampling (with Karn's rule), RTO backoff, and the accept queue.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <vector>

#include "net/packet.h"
#include "tcp/socket_table.h"

namespace tcpdemux::tcp {
namespace {

using net::Ipv4Addr;
using net::Packet;
using net::TcpFlag;

constexpr Ipv4Addr kServerAddr{10, 0, 0, 1};
constexpr Ipv4Addr kClientAddr{10, 1, 0, 2};
constexpr std::uint16_t kPort = 1521;

/// Two hosts with a manually pumped, droppable link and a manual clock.
class ReliabilityTest : public ::testing::Test {
 protected:
  ReliabilityTest()
      : server_(core::DemuxConfig{core::Algorithm::kSequent},
                [this](std::vector<std::uint8_t> wire, const core::Pcb&) {
                  to_client_.push_back(std::move(wire));
                }),
        client_(core::DemuxConfig{core::Algorithm::kBsd},
                [this](std::vector<std::uint8_t> wire, const core::Pcb&) {
                  to_server_.push_back(std::move(wire));
                  if (client_tap_) client_tap_();
                }) {
    server_.set_clock([this] { return now_; });
    client_.set_clock([this] { return now_; });
    server_.listen(kServerAddr, kPort);
  }

  /// Delivers all queued packets in both directions until quiescent.
  void pump() {
    while (!to_client_.empty() || !to_server_.empty()) {
      auto client_batch = std::move(to_client_);
      to_client_.clear();
      for (const auto& wire : client_batch) client_.deliver_wire(wire);
      auto server_batch = std::move(to_server_);
      to_server_.clear();
      for (const auto& wire : server_batch) server_.deliver_wire(wire);
    }
  }

  core::Pcb* establish() {
    core::Pcb* pcb =
        client_.connect({kClientAddr, 40001, kServerAddr, kPort});
    pump();
    EXPECT_EQ(pcb->state, core::TcpState::kEstablished);
    return pcb;
  }

  double now_ = 0.0;
  std::function<void()> client_tap_;  ///< runs after each client transmit
  std::vector<std::vector<std::uint8_t>> to_client_;
  std::vector<std::vector<std::uint8_t>> to_server_;
  SocketTable server_;
  SocketTable client_;
};

TEST_F(ReliabilityTest, AcceptQueueYieldsEstablishedConnections) {
  EXPECT_EQ(server_.accept(), nullptr);
  establish();
  EXPECT_EQ(server_.accept_backlog(), 1u);
  core::Pcb* pcb = server_.accept();
  ASSERT_NE(pcb, nullptr);
  EXPECT_EQ(pcb->state, core::TcpState::kEstablished);
  EXPECT_EQ(pcb->key.foreign_port, 40001);
  EXPECT_EQ(server_.accept(), nullptr);  // queue drained
}

TEST_F(ReliabilityTest, AcceptQueueIsFifo) {
  for (std::uint16_t port = 50001; port <= 50003; ++port) {
    client_.connect({kClientAddr, port, kServerAddr, kPort});
    pump();
  }
  EXPECT_EQ(server_.accept_backlog(), 3u);
  EXPECT_EQ(server_.accept()->key.foreign_port, 50001);
  EXPECT_EQ(server_.accept()->key.foreign_port, 50002);
  EXPECT_EQ(server_.accept()->key.foreign_port, 50003);
}

TEST_F(ReliabilityTest, RttSampleFeedsEstimator) {
  core::Pcb* pcb = establish();
  pcb->srtt_us = 0;  // no samples yet
  client_.send_data(*pcb, 100);
  now_ += 0.05;  // the ACK comes back 50 ms later
  pump();
  EXPECT_EQ(pcb->srtt_us, 50'000u);
  EXPECT_EQ(pcb->rttvar_us, 25'000u);
}

TEST_F(ReliabilityTest, LostDataIsRetransmittedAndRecovered) {
  core::Pcb* pcb = establish();
  client_.send_data(*pcb, 200);
  ASSERT_EQ(to_server_.size(), 1u);
  to_server_.clear();  // the network eats the segment

  // Nothing outstanding is acked; the RTO (1 s floor) expires.
  now_ += 1.5;
  EXPECT_EQ(client_.poll_retransmits(), 1u);
  EXPECT_EQ(client_.counters().retransmissions, 1u);
  pump();  // retransmission + its ACK flow

  EXPECT_EQ(pcb->snd_una, pcb->snd_nxt) << "data finally acknowledged";
  core::Pcb* server_pcb =
      server_.find({kServerAddr, kPort, kClientAddr, 40001});
  ASSERT_NE(server_pcb, nullptr);
  EXPECT_EQ(server_pcb->bytes_in, 200u);
}

TEST_F(ReliabilityTest, RtoBacksOffAcrossTimeouts) {
  core::Pcb* pcb = establish();
  const std::uint32_t base_rto = pcb->rto_us;
  client_.send_data(*pcb, 100);
  to_server_.clear();  // drop
  now_ += base_rto / 1e6 + 0.1;
  EXPECT_EQ(client_.poll_retransmits(), 1u);
  const std::uint32_t backed_off = pcb->rto_us;
  EXPECT_EQ(backed_off, base_rto * 2);
  // Drop the retransmission too.
  to_server_.clear();
  now_ += backed_off / 1e6 + 0.1;
  EXPECT_EQ(client_.poll_retransmits(), 1u);
  EXPECT_EQ(pcb->rto_us, base_rto * 4);
}

TEST_F(ReliabilityTest, KarnsRuleNoSampleFromRetransmission) {
  core::Pcb* pcb = establish();
  pcb->srtt_us = 0;
  client_.send_data(*pcb, 100);
  to_server_.clear();  // drop the first copy
  now_ += 1.5;
  client_.poll_retransmits();
  now_ += 0.05;
  pump();  // the retransmission is acked
  EXPECT_EQ(pcb->snd_una, pcb->snd_nxt);
  EXPECT_EQ(pcb->srtt_us, 0u) << "retransmitted segment must not be sampled";
}

TEST_F(ReliabilityTest, NoSpuriousRetransmissionBeforeRto) {
  core::Pcb* pcb = establish();
  client_.send_data(*pcb, 100);
  now_ += 0.2;  // well under the 1 s RTO floor
  EXPECT_EQ(client_.poll_retransmits(), 0u);
  pump();
  EXPECT_EQ(pcb->snd_una, pcb->snd_nxt);
  now_ += 5.0;
  EXPECT_EQ(client_.poll_retransmits(), 0u) << "acked data retransmitted";
}

TEST_F(ReliabilityTest, SendFromTransmitCallbackDuringPollIsSafe) {
  // Four connections each lose a segment. The transmit callback of the
  // first retransmission sends on twelve connections that have no
  // retransmission state yet, growing the table's retransmission state
  // while poll_retransmits is walking it. The walk must neither hold a
  // reference across the transmit nor lose its place: all four expired
  // segments still go out, each once.
  constexpr std::size_t kLost = 4;
  std::vector<core::Pcb*> pcbs;
  for (std::uint16_t i = 0; i < 16; ++i) {
    pcbs.push_back(client_.connect({kClientAddr,
                                    static_cast<std::uint16_t>(41001 + i),
                                    kServerAddr, kPort}));
    pump();
    ASSERT_EQ(pcbs.back()->state, core::TcpState::kEstablished);
  }
  for (std::size_t i = 0; i < kLost; ++i) client_.send_data(*pcbs[i], 100);
  to_server_.clear();  // lost

  bool fired = false;
  client_tap_ = [&] {
    if (fired) return;
    fired = true;
    for (std::size_t i = kLost; i < pcbs.size(); ++i) {
      EXPECT_TRUE(client_.send_data(*pcbs[i], 200));
    }
  };
  now_ += 1.5;
  EXPECT_EQ(client_.poll_retransmits(), kLost);
  EXPECT_TRUE(fired);
  client_tap_ = nullptr;
  EXPECT_EQ(client_.counters().retransmissions, kLost);
  EXPECT_EQ(to_server_.size(), pcbs.size());  // 4 resends + 12 new segments

  pump();
  for (const core::Pcb* pcb : pcbs) {
    EXPECT_EQ(pcb->snd_una, pcb->snd_nxt) << pcb->key.local_port;
  }
  now_ += 5.0;
  EXPECT_EQ(client_.poll_retransmits(), 0u) << "acked data still queued";
}

TEST_F(ReliabilityTest, CountersTrackTraffic) {
  establish();
  core::Pcb* pcb = server_.accept();
  ASSERT_NE(pcb, nullptr);
  EXPECT_EQ(server_.counters().new_connections, 1u);
  EXPECT_GT(server_.counters().delivered, 0u);
  EXPECT_EQ(server_.counters().parse_errors, 0u);
  std::vector<std::uint8_t> junk(64, 0x7e);
  server_.deliver_wire(junk);
  EXPECT_EQ(server_.counters().parse_errors, 1u);
}

TEST_F(ReliabilityTest, EraseCleansAcceptQueueAndRetransmitState) {
  core::Pcb* pcb = establish();
  client_.send_data(*pcb, 50);
  to_server_.clear();  // leave a segment outstanding on the client
  EXPECT_TRUE(client_.erase({kClientAddr, 40001, kServerAddr, kPort}));
  now_ += 5.0;
  EXPECT_EQ(client_.poll_retransmits(), 0u) << "stale queue survived erase";

  EXPECT_EQ(server_.accept_backlog(), 1u);
  EXPECT_TRUE(server_.erase({kServerAddr, kPort, kClientAddr, 40001}));
  EXPECT_EQ(server_.accept_backlog(), 0u);
  EXPECT_EQ(server_.accept(), nullptr);
}

TEST_F(ReliabilityTest, TimeWaitReapedAfterTwoMsl) {
  core::Pcb* pcb = establish();
  core::Pcb* server_pcb =
      server_.find({kServerAddr, kPort, kClientAddr, 40001});
  ASSERT_NE(server_pcb, nullptr);
  // Full close from the client side.
  EXPECT_TRUE(client_.close(*pcb));
  pump();
  EXPECT_TRUE(server_.close(*server_pcb));
  pump();
  EXPECT_EQ(pcb->state, core::TcpState::kTimeWait);
  EXPECT_EQ(server_pcb->state, core::TcpState::kClosed);

  // Server side: CLOSED reaps immediately.
  EXPECT_EQ(server_.reap_closed(10.0), 1u);
  EXPECT_EQ(server_.connection_count(), 0u);

  // Client side: TIME_WAIT holds for 2*MSL, then goes.
  EXPECT_EQ(client_.reap_closed(10.0), 0u);
  EXPECT_EQ(client_.connection_count(), 1u);
  now_ += 21.0;
  EXPECT_EQ(client_.reap_closed(10.0), 1u);
  EXPECT_EQ(client_.connection_count(), 0u);
}

TEST_F(ReliabilityTest, ReapLeavesLiveConnectionsAlone) {
  establish();
  now_ += 1000.0;
  EXPECT_EQ(client_.reap_closed(10.0), 0u);
  EXPECT_EQ(server_.reap_closed(10.0), 0u);
  EXPECT_EQ(server_.connection_count(), 1u);
}

TEST_F(ReliabilityTest, ReapingKOfNLeavesNoStaleState) {
  // N connections wait unaccepted; K of them get outstanding server data
  // (retransmission state) and are then reset to CLOSED. Reaping must
  // remove exactly those K from the demuxer, the accept queue, the
  // retransmission queues and the closing set.
  constexpr std::uint16_t kN = 8;
  constexpr std::uint16_t kK = 3;
  for (std::uint16_t i = 0; i < kN; ++i) {
    client_.connect({kClientAddr, static_cast<std::uint16_t>(40001 + i),
                     kServerAddr, kPort});
    pump();
  }
  ASSERT_EQ(server_.connection_count(), kN);
  ASSERT_EQ(server_.accept_backlog(), kN);
  for (std::uint16_t i = 0; i < kK; ++i) {
    const std::uint16_t port = static_cast<std::uint16_t>(40001 + 2 * i);
    core::Pcb* victim = server_.find({kServerAddr, kPort, kClientAddr, port});
    ASSERT_NE(victim, nullptr);
    server_.send_data(*victim, 50);
    to_client_.clear();  // lost: the segment stays queued for retransmission
    const auto rst = net::PacketBuilder()
                         .from({kClientAddr, port})
                         .to({kServerAddr, kPort})
                         .seq(victim->rcv_nxt)
                         .flags(TcpFlag::kRst)
                         .build();
    server_.deliver_wire(rst);
    ASSERT_EQ(victim->state, core::TcpState::kClosed);
  }

  EXPECT_EQ(server_.reap_closed(10.0), kK);
  EXPECT_EQ(server_.connection_count(), kN - kK);
  EXPECT_EQ(server_.reap_closed(10.0), 0u) << "closing set kept a victim";
  now_ += 5.0;
  EXPECT_EQ(server_.poll_retransmits(), 0u) << "retransmit queue kept a victim";

  // The accept queue holds exactly the survivors, still in arrival order:
  // the odd ports (40002, 40004) between the victims, then the rest.
  std::vector<const core::Pcb*> live;
  server_.demuxer().for_each_pcb(
      [&](const core::Pcb& pcb) { live.push_back(&pcb); });
  EXPECT_EQ(server_.accept_backlog(), kN - kK);
  std::vector<std::uint16_t> accepted;
  while (core::Pcb* pcb = server_.accept()) {
    ASSERT_NE(std::find(live.begin(), live.end(), pcb), live.end())
        << "accept queue kept a victim";
    EXPECT_EQ(pcb->state, core::TcpState::kEstablished);
    accepted.push_back(pcb->key.foreign_port);
  }
  EXPECT_EQ(accepted, (std::vector<std::uint16_t>{40002, 40004, 40006, 40007,
                                                  40008}));
}

TEST_F(ReliabilityTest, AcceptQueueKeepsOrderAcrossMiddleErase) {
  // Accepting pops the front; erasing a queued connection removes it from
  // the middle without disturbing the others' order.
  for (std::uint16_t port = 50001; port <= 50005; ++port) {
    client_.connect({kClientAddr, port, kServerAddr, kPort});
    pump();
  }
  ASSERT_EQ(server_.accept_backlog(), 5u);
  EXPECT_EQ(server_.accept()->key.foreign_port, 50001);
  EXPECT_TRUE(server_.erase({kServerAddr, kPort, kClientAddr, 50003}));
  EXPECT_EQ(server_.accept_backlog(), 3u);
  EXPECT_EQ(server_.accept()->key.foreign_port, 50002);
  EXPECT_EQ(server_.accept()->key.foreign_port, 50004);
  EXPECT_EQ(server_.accept()->key.foreign_port, 50005);
  EXPECT_EQ(server_.accept(), nullptr);
}

TEST_F(ReliabilityTest, WithoutClockNoRetransmitState) {
  SocketTable plain(core::DemuxConfig{core::Algorithm::kBsd},
                    [](std::vector<std::uint8_t>, const core::Pcb&) {});
  EXPECT_EQ(plain.poll_retransmits(), 0u);
}

}  // namespace
}  // namespace tcpdemux::tcp

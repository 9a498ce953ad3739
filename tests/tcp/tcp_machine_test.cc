#include "tcp/tcp_machine.h"

#include <gtest/gtest.h>

#include <vector>

namespace tcpdemux::tcp {
namespace {

using core::Pcb;
using core::TcpState;
using net::TcpFlag;
using net::TcpHeader;

struct Sent {
  const Pcb* conn;
  Emit emit;
};

class TcpMachineTest : public ::testing::Test {
 protected:
  TcpMachineTest()
      : machine_([this](Pcb& pcb, const Emit& e) {
          sent_.push_back(Sent{&pcb, e});
        }),
        pcb_(net::FlowKey{net::Ipv4Addr(10, 0, 0, 1), 1521,
                          net::Ipv4Addr(10, 1, 0, 2), 40001}) {}

  const Emit& last() const { return sent_.back().emit; }
  bool last_has(TcpFlag f) const {
    return (last().flags & static_cast<std::uint8_t>(f)) != 0;
  }

  TcpHeader make_seg(std::uint8_t flags, std::uint32_t seq,
                     std::uint32_t ack) {
    TcpHeader h;
    h.src_port = 40001;
    h.dst_port = 1521;
    h.flags = flags;
    h.seq = seq;
    h.ack = ack;
    return h;
  }

  // Drives the server-side handshake: peer SYN (seq 100) then ACK.
  void establish_passive() {
    TcpHeader syn = make_seg(static_cast<std::uint8_t>(TcpFlag::kSyn), 100, 0);
    machine_.open_passive(pcb_, syn);
    TcpHeader ack = make_seg(static_cast<std::uint8_t>(TcpFlag::kAck), 101,
                             pcb_.snd_nxt);
    machine_.process(pcb_, ack, 0);
    ASSERT_EQ(pcb_.state, TcpState::kEstablished);
  }

  TcpMachine machine_;
  Pcb pcb_;
  std::vector<Sent> sent_;
};

TEST_F(TcpMachineTest, ActiveOpenSendsSyn) {
  machine_.open_active(pcb_);
  EXPECT_EQ(pcb_.state, TcpState::kSynSent);
  ASSERT_EQ(sent_.size(), 1u);
  EXPECT_TRUE(last_has(TcpFlag::kSyn));
  EXPECT_FALSE(last_has(TcpFlag::kAck));
  // Nothing is acknowledged yet: snd_una is the ISS the SYN carries.
  EXPECT_EQ(last().seq, pcb_.snd_una);
  EXPECT_EQ(pcb_.snd_nxt, pcb_.snd_una + 1);
}

TEST_F(TcpMachineTest, PassiveOpenSendsSynAck) {
  TcpHeader syn = make_seg(static_cast<std::uint8_t>(TcpFlag::kSyn), 100, 0);
  machine_.open_passive(pcb_, syn);
  EXPECT_EQ(pcb_.state, TcpState::kSynReceived);
  EXPECT_EQ(pcb_.rcv_nxt, 101u);
  ASSERT_EQ(sent_.size(), 1u);
  EXPECT_TRUE(last_has(TcpFlag::kSyn));
  EXPECT_TRUE(last_has(TcpFlag::kAck));
  EXPECT_EQ(last().ack, 101u);
}

TEST_F(TcpMachineTest, ThreeWayHandshakeClientSide) {
  machine_.open_active(pcb_);
  TcpHeader synack =
      make_seg(TcpFlag::kSyn | TcpFlag::kAck, 5000, pcb_.snd_nxt);
  machine_.process(pcb_, synack, 0);
  EXPECT_EQ(pcb_.state, TcpState::kEstablished);
  EXPECT_EQ(pcb_.rcv_nxt, 5001u);  // the peer's ISS + 1
  EXPECT_EQ(pcb_.snd_una, pcb_.snd_nxt);
  // Final ACK of the handshake was emitted.
  EXPECT_TRUE(last_has(TcpFlag::kAck));
  EXPECT_EQ(last().ack, 5001u);
}

TEST_F(TcpMachineTest, SynSentRejectsBadAckWithRst) {
  machine_.open_active(pcb_);
  TcpHeader synack =
      make_seg(TcpFlag::kSyn | TcpFlag::kAck, 5000, pcb_.snd_nxt + 99);
  machine_.process(pcb_, synack, 0);
  EXPECT_EQ(pcb_.state, TcpState::kSynSent);
  EXPECT_TRUE(last_has(TcpFlag::kRst));
}

TEST_F(TcpMachineTest, ThreeWayHandshakeServerSide) {
  establish_passive();
  EXPECT_EQ(pcb_.snd_una, pcb_.snd_nxt);
}

TEST_F(TcpMachineTest, SimultaneousOpen) {
  machine_.open_active(pcb_);
  const std::uint32_t iss = last().seq;
  TcpHeader syn = make_seg(static_cast<std::uint8_t>(TcpFlag::kSyn), 7000, 0);
  machine_.process(pcb_, syn, 0);
  EXPECT_EQ(pcb_.state, TcpState::kSynReceived);
  EXPECT_TRUE(last_has(TcpFlag::kSyn));
  EXPECT_TRUE(last_has(TcpFlag::kAck));
  EXPECT_EQ(last().seq, iss) << "the SYN-ACK repeats our SYN's ISS";
  EXPECT_EQ(last().ack, 7001u);
}

TEST_F(TcpMachineTest, InOrderDataIsAckedCumulatively) {
  establish_passive();
  const std::uint32_t base = pcb_.rcv_nxt;
  TcpHeader data = make_seg(TcpFlag::kAck | TcpFlag::kPsh, base, pcb_.snd_nxt);
  machine_.process(pcb_, data, 100);
  EXPECT_EQ(pcb_.rcv_nxt, base + 100);
  EXPECT_TRUE(last_has(TcpFlag::kAck));
  EXPECT_EQ(last().ack, base + 100);
  EXPECT_EQ(pcb_.bytes_in, 100u);
}

TEST_F(TcpMachineTest, OutOfOrderDataGetsDuplicateAck) {
  establish_passive();
  const std::uint32_t base = pcb_.rcv_nxt;
  TcpHeader ooo =
      make_seg(TcpFlag::kAck | TcpFlag::kPsh, base + 500, pcb_.snd_nxt);
  machine_.process(pcb_, ooo, 100);
  EXPECT_EQ(pcb_.rcv_nxt, base) << "out-of-order data must not advance";
  EXPECT_EQ(last().ack, base) << "duplicate ACK must re-assert rcv_nxt";
}

TEST_F(TcpMachineTest, SendDataAdvancesSndNxt) {
  establish_passive();
  const std::uint32_t before = pcb_.snd_nxt;
  EXPECT_TRUE(machine_.send_data(pcb_, 256));
  EXPECT_EQ(pcb_.snd_nxt, before + 256);
  EXPECT_EQ(last().payload_len, 256u);
  EXPECT_TRUE(last_has(TcpFlag::kPsh));
}

TEST_F(TcpMachineTest, SendDataRefusedBeforeEstablished) {
  machine_.open_active(pcb_);
  EXPECT_FALSE(machine_.send_data(pcb_, 10));
}

TEST_F(TcpMachineTest, AckAdvancesSndUna) {
  establish_passive();
  machine_.send_data(pcb_, 100);
  TcpHeader ack = make_seg(static_cast<std::uint8_t>(TcpFlag::kAck),
                           pcb_.rcv_nxt, pcb_.snd_nxt);
  machine_.process(pcb_, ack, 0);
  EXPECT_EQ(pcb_.snd_una, pcb_.snd_nxt);
}

TEST_F(TcpMachineTest, StaleAckIgnored) {
  establish_passive();
  machine_.send_data(pcb_, 100);
  const std::uint32_t una = pcb_.snd_una;
  TcpHeader stale = make_seg(static_cast<std::uint8_t>(TcpFlag::kAck),
                             pcb_.rcv_nxt, una);  // acks nothing new
  machine_.process(pcb_, stale, 0);
  EXPECT_EQ(pcb_.snd_una, una);
}

TEST_F(TcpMachineTest, RstKillsConnection) {
  establish_passive();
  TcpHeader rst = make_seg(static_cast<std::uint8_t>(TcpFlag::kRst),
                           pcb_.rcv_nxt, 0);
  machine_.process(pcb_, rst, 0);
  EXPECT_EQ(pcb_.state, TcpState::kClosed);
}

TEST_F(TcpMachineTest, ActiveCloseFullSequence) {
  establish_passive();
  // We close first: FIN_WAIT_1.
  EXPECT_TRUE(machine_.close(pcb_));
  EXPECT_EQ(pcb_.state, TcpState::kFinWait1);
  EXPECT_TRUE(last_has(TcpFlag::kFin));
  // Peer acks our FIN: FIN_WAIT_2.
  TcpHeader ack = make_seg(static_cast<std::uint8_t>(TcpFlag::kAck),
                           pcb_.rcv_nxt, pcb_.snd_nxt);
  machine_.process(pcb_, ack, 0);
  EXPECT_EQ(pcb_.state, TcpState::kFinWait2);
  // Peer sends its FIN: TIME_WAIT + ACK it.
  TcpHeader fin = make_seg(TcpFlag::kFin | TcpFlag::kAck, pcb_.rcv_nxt,
                           pcb_.snd_nxt);
  machine_.process(pcb_, fin, 0);
  EXPECT_EQ(pcb_.state, TcpState::kTimeWait);
  EXPECT_TRUE(last_has(TcpFlag::kAck));
}

TEST_F(TcpMachineTest, PassiveCloseFullSequence) {
  establish_passive();
  // Peer FINs first: CLOSE_WAIT.
  TcpHeader fin = make_seg(TcpFlag::kFin | TcpFlag::kAck, pcb_.rcv_nxt,
                           pcb_.snd_nxt);
  machine_.process(pcb_, fin, 0);
  EXPECT_EQ(pcb_.state, TcpState::kCloseWait);
  // We close: LAST_ACK.
  EXPECT_TRUE(machine_.close(pcb_));
  EXPECT_EQ(pcb_.state, TcpState::kLastAck);
  // Peer acks our FIN: CLOSED.
  TcpHeader ack = make_seg(static_cast<std::uint8_t>(TcpFlag::kAck),
                           pcb_.rcv_nxt, pcb_.snd_nxt);
  machine_.process(pcb_, ack, 0);
  EXPECT_EQ(pcb_.state, TcpState::kClosed);
}

TEST_F(TcpMachineTest, SimultaneousClose) {
  establish_passive();
  EXPECT_TRUE(machine_.close(pcb_));  // FIN_WAIT_1
  // Peer's FIN arrives without acking ours: CLOSING.
  TcpHeader fin = make_seg(TcpFlag::kFin | TcpFlag::kAck, pcb_.rcv_nxt,
                           pcb_.snd_una);
  machine_.process(pcb_, fin, 0);
  EXPECT_EQ(pcb_.state, TcpState::kClosing);
  // Then the ACK of our FIN: TIME_WAIT.
  TcpHeader ack = make_seg(static_cast<std::uint8_t>(TcpFlag::kAck),
                           pcb_.rcv_nxt, pcb_.snd_nxt);
  machine_.process(pcb_, ack, 0);
  EXPECT_EQ(pcb_.state, TcpState::kTimeWait);
}

TEST_F(TcpMachineTest, CloseRefusedWhenAlreadyClosing) {
  establish_passive();
  EXPECT_TRUE(machine_.close(pcb_));
  EXPECT_FALSE(machine_.close(pcb_));
}

TEST_F(TcpMachineTest, RetransmittedFinInTimeWaitReAcked) {
  establish_passive();
  machine_.close(pcb_);
  TcpHeader ack = make_seg(static_cast<std::uint8_t>(TcpFlag::kAck),
                           pcb_.rcv_nxt, pcb_.snd_nxt);
  machine_.process(pcb_, ack, 0);
  TcpHeader fin = make_seg(TcpFlag::kFin | TcpFlag::kAck, pcb_.rcv_nxt,
                           pcb_.snd_nxt);
  machine_.process(pcb_, fin, 0);
  ASSERT_EQ(pcb_.state, TcpState::kTimeWait);
  const auto sends_before = sent_.size();
  machine_.process(pcb_, fin, 0);  // retransmitted FIN
  EXPECT_EQ(pcb_.state, TcpState::kTimeWait);
  EXPECT_EQ(sent_.size(), sends_before + 1);
  EXPECT_TRUE(last_has(TcpFlag::kAck));
}

TEST_F(TcpMachineTest, CountersTrackSegments) {
  // Segments out are the emitted-segment log; segments in show in the
  // receive sequence space and the delivered-byte count.
  establish_passive();
  ASSERT_EQ(sent_.size(), 1u);  // the SYN-ACK; the handshake ACK needs none
  EXPECT_EQ(sent_[0].conn, &pcb_);
  EXPECT_EQ(pcb_.rcv_nxt, 101u);
  TcpHeader data = make_seg(TcpFlag::kAck | TcpFlag::kPsh, pcb_.rcv_nxt,
                            pcb_.snd_nxt);
  machine_.process(pcb_, data, 10);
  EXPECT_EQ(pcb_.rcv_nxt, 111u);
  EXPECT_EQ(pcb_.bytes_in, 10u);
  ASSERT_EQ(sent_.size(), 2u);  // its ACK
  EXPECT_EQ(sent_.back().conn, &pcb_);
  EXPECT_EQ(last().ack, 111u);
}

TEST_F(TcpMachineTest, DistinctIssPerConnection) {
  Pcb other(pcb_.key.reversed());
  machine_.open_active(pcb_);
  machine_.open_active(other);
  ASSERT_EQ(sent_.size(), 2u);
  EXPECT_EQ(sent_[0].conn, &pcb_);
  EXPECT_EQ(sent_[1].conn, &other);
  EXPECT_NE(sent_[0].emit.seq, sent_[1].emit.seq);
  EXPECT_NE(pcb_.snd_una, other.snd_una);
}

}  // namespace
}  // namespace tcpdemux::tcp

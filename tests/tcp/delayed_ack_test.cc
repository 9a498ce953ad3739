#include <gtest/gtest.h>

#include <vector>

#include "tcp/tcp_machine.h"

namespace tcpdemux::tcp {
namespace {

using core::Pcb;
using core::TcpState;
using net::TcpFlag;
using net::TcpHeader;

class DelayedAckTest : public ::testing::Test {
 protected:
  DelayedAckTest()
      : machine_([this](Pcb&, const Emit& e) { sent_.push_back(e); },
                 TcpMachine::Options{true}),
        pcb_(net::FlowKey{net::Ipv4Addr(10, 0, 0, 1), 1521,
                          net::Ipv4Addr(10, 1, 0, 2), 40001}) {
    TcpHeader syn;
    syn.flags = static_cast<std::uint8_t>(TcpFlag::kSyn);
    syn.seq = 100;
    machine_.open_passive(pcb_, syn);
    TcpHeader ack;
    ack.flags = static_cast<std::uint8_t>(TcpFlag::kAck);
    ack.seq = 101;
    ack.ack = pcb_.snd_nxt;
    machine_.process(pcb_, ack, 0);
    sent_.clear();
  }

  void deliver_data(std::uint32_t len) {
    TcpHeader data;
    data.flags = TcpFlag::kAck | TcpFlag::kPsh;
    data.seq = pcb_.rcv_nxt;
    data.ack = pcb_.snd_nxt;
    machine_.process(pcb_, data, len);
  }

  std::size_t acks_sent() const {
    std::size_t n = 0;
    for (const Emit& e : sent_) {
      if (e.payload_len == 0 &&
          (e.flags & static_cast<std::uint8_t>(TcpFlag::kAck)) != 0) {
        ++n;
      }
    }
    return n;
  }

  TcpMachine machine_;
  Pcb pcb_;
  std::vector<Emit> sent_;
};

TEST_F(DelayedAckTest, FirstSegmentOwesSecondForces) {
  deliver_data(100);
  EXPECT_EQ(acks_sent(), 0u);
  EXPECT_TRUE(pcb_.delack_pending);
  deliver_data(100);
  EXPECT_EQ(acks_sent(), 1u);
  EXPECT_FALSE(pcb_.delack_pending);
  // The forced ACK covers both segments cumulatively.
  EXPECT_EQ(sent_.back().ack, pcb_.rcv_nxt);
}

TEST_F(DelayedAckTest, EverySecondSegmentAcked) {
  for (int i = 0; i < 10; ++i) deliver_data(50);
  EXPECT_EQ(acks_sent(), 5u);
}

TEST_F(DelayedAckTest, FlushEmitsOwedAck) {
  deliver_data(100);
  EXPECT_EQ(acks_sent(), 0u);
  EXPECT_TRUE(machine_.flush_delayed_acks(pcb_));
  EXPECT_EQ(acks_sent(), 1u);
  EXPECT_EQ(sent_.back().ack, pcb_.rcv_nxt);
  EXPECT_FALSE(machine_.flush_delayed_acks(pcb_));  // nothing owed now
}

TEST_F(DelayedAckTest, OutOfOrderDataAcksImmediately) {
  deliver_data(100);  // owed
  TcpHeader ooo;
  ooo.flags = TcpFlag::kAck | TcpFlag::kPsh;
  ooo.seq = pcb_.rcv_nxt + 999;
  ooo.ack = pcb_.snd_nxt;
  machine_.process(pcb_, ooo, 50);
  EXPECT_EQ(acks_sent(), 1u) << "dup-ack must not be delayed";
  EXPECT_FALSE(pcb_.delack_pending);
}

TEST_F(DelayedAckTest, OutboundDataPiggybacksOwedAck) {
  deliver_data(100);
  EXPECT_TRUE(pcb_.delack_pending);
  EXPECT_TRUE(machine_.send_data(pcb_, 200));
  EXPECT_FALSE(pcb_.delack_pending);
  EXPECT_EQ(sent_.back().ack, pcb_.rcv_nxt);
  EXPECT_EQ(acks_sent(), 0u) << "no separate pure ACK needed";
}

TEST_F(DelayedAckTest, DisabledOptionAcksEverySegment) {
  std::vector<Emit> sent;
  TcpMachine immediate([&](Pcb&, const Emit& e) { sent.push_back(e); });
  Pcb pcb(net::FlowKey{net::Ipv4Addr(10, 0, 0, 1), 1521,
                       net::Ipv4Addr(10, 1, 0, 3), 40002});
  TcpHeader syn;
  syn.flags = static_cast<std::uint8_t>(TcpFlag::kSyn);
  syn.seq = 500;
  immediate.open_passive(pcb, syn);
  TcpHeader ack;
  ack.flags = static_cast<std::uint8_t>(TcpFlag::kAck);
  ack.seq = 501;
  ack.ack = pcb.snd_nxt;
  immediate.process(pcb, ack, 0);
  sent.clear();
  for (int i = 0; i < 4; ++i) {
    TcpHeader data;
    data.flags = TcpFlag::kAck | TcpFlag::kPsh;
    data.seq = pcb.rcv_nxt;
    data.ack = pcb.snd_nxt;
    immediate.process(pcb, data, 10);
  }
  EXPECT_EQ(sent.size(), 4u);
  EXPECT_FALSE(immediate.flush_delayed_acks(pcb));
}

}  // namespace
}  // namespace tcpdemux::tcp

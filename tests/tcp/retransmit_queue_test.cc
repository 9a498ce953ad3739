#include "tcp/retransmit_queue.h"

#include <gtest/gtest.h>

namespace tcpdemux::tcp {
namespace {

core::Pcb make_pcb(std::uint16_t port) {
  return core::Pcb(net::FlowKey{{10, 0, 0, 1}, 80, {10, 1, 0, 2}, port});
}

TEST(RetransmitQueue, StartsEmpty) {
  RetransmitQueue q;
  core::Pcb pcb = make_pcb(1);
  EXPECT_EQ(pcb.rtx, 0u);
  EXPECT_EQ(q.size(pcb), 0u);
  EXPECT_EQ(q.outstanding(pcb), 0u);
  EXPECT_EQ(q.live(), 0u);
  EXPECT_FALSE(q.take_expired(pcb, 100.0, 1.0).has_value());
  EXPECT_FALSE(q.take_front(pcb, 100.0).has_value());
  EXPECT_TRUE(q.consistent());
}

TEST(RetransmitQueue, AckDropsCoveredSegments) {
  RetransmitQueue q;
  core::Pcb pcb = make_pcb(1);
  q.on_send(pcb, 1000, 100, 0.0);
  q.on_send(pcb, 1100, 100, 0.1);
  q.on_send(pcb, 1200, 100, 0.2);
  EXPECT_EQ(q.outstanding(pcb), 300u);
  EXPECT_EQ(q.on_ack(pcb, 1200, 0.3).segments, 2u);  // covers the first two
  EXPECT_EQ(q.size(pcb), 1u);
  EXPECT_EQ(q.outstanding(pcb), 100u);
  EXPECT_TRUE(q.consistent());
}

TEST(RetransmitQueue, PartialAckKeepsSegment) {
  RetransmitQueue q;
  core::Pcb pcb = make_pcb(1);
  q.on_send(pcb, 1000, 100, 0.0);
  const auto acked = q.on_ack(pcb, 1050, 0.1);  // covers only half
  EXPECT_EQ(acked.segments, 0u);
  EXPECT_FALSE(acked.rtt.has_value());
  EXPECT_EQ(q.size(pcb), 1u);
}

TEST(RetransmitQueue, AckYieldsRttSample) {
  RetransmitQueue q;
  core::Pcb pcb = make_pcb(1);
  q.on_send(pcb, 1000, 100, 1.0);
  const auto acked = q.on_ack(pcb, 1100, 1.25);
  ASSERT_TRUE(acked.rtt.has_value());
  EXPECT_NEAR(*acked.rtt, 0.25, 1e-12);
  EXPECT_EQ(pcb.rtx, 0u);
}

TEST(RetransmitQueue, KarnsRuleSuppressesRetransmittedSamples) {
  RetransmitQueue q;
  core::Pcb pcb = make_pcb(1);
  q.on_send(pcb, 1000, 100, 1.0);
  const auto expired = q.take_expired(pcb, 2.5, 1.0);
  ASSERT_TRUE(expired.has_value());
  EXPECT_EQ(expired->transmissions, 2u);
  const auto acked = q.on_ack(pcb, 1100, 3.0);
  EXPECT_EQ(acked.segments, 1u);
  EXPECT_FALSE(acked.rtt.has_value()) << "retransmitted segment sampled";
  EXPECT_EQ(q.size(pcb), 0u);
}

TEST(RetransmitQueue, SampleComesFromNewestCleanSegment) {
  RetransmitQueue q;
  core::Pcb pcb = make_pcb(1);
  q.on_send(pcb, 1000, 100, 1.0);
  q.on_send(pcb, 1100, 100, 2.0);
  const auto acked = q.on_ack(pcb, 1200, 2.5);
  ASSERT_TRUE(acked.rtt.has_value());
  EXPECT_NEAR(*acked.rtt, 0.5, 1e-12);  // from the second segment
}

TEST(RetransmitQueue, ExpiryHonorsRto) {
  RetransmitQueue q;
  core::Pcb pcb = make_pcb(1);
  q.on_send(pcb, 1000, 100, 0.0);
  EXPECT_FALSE(q.take_expired(pcb, 0.5, 1.0).has_value());  // too young
  const auto expired = q.take_expired(pcb, 1.5, 1.0);
  ASSERT_TRUE(expired.has_value());
  EXPECT_EQ(expired->seq, 1000u);
  // Retransmission resets the timer.
  EXPECT_FALSE(q.take_expired(pcb, 2.0, 1.0).has_value());
  EXPECT_TRUE(q.take_expired(pcb, 2.6, 1.0).has_value());
}

TEST(RetransmitQueue, OldestSegmentExpiresFirst) {
  RetransmitQueue q;
  core::Pcb pcb = make_pcb(1);
  q.on_send(pcb, 1000, 100, 0.0);
  q.on_send(pcb, 1100, 100, 5.0);
  const auto expired = q.take_expired(pcb, 6.0, 1.0);
  ASSERT_TRUE(expired.has_value());
  EXPECT_EQ(expired->seq, 1000u);
}

TEST(RetransmitQueue, SequenceWraparound) {
  RetransmitQueue q;
  core::Pcb pcb = make_pcb(1);
  q.on_send(pcb, 0xffffff00u, 0x200, 0.0);  // wraps past zero
  const auto acked = q.on_ack(pcb, 0x100, 0.1);
  ASSERT_TRUE(acked.rtt.has_value());
  EXPECT_EQ(q.size(pcb), 0u);
}

TEST(RetransmitQueue, DuplicateAckYieldsNothing) {
  RetransmitQueue q;
  core::Pcb pcb = make_pcb(1);
  q.on_send(pcb, 1000, 100, 0.0);
  (void)q.on_ack(pcb, 1100, 0.2);
  const auto dup = q.on_ack(pcb, 1100, 0.3);
  EXPECT_EQ(dup.segments, 0u);
  EXPECT_FALSE(dup.rtt.has_value());
}

TEST(RetransmitQueue, ClearEmpties) {
  // release() is the pool's per-connection clear.
  RetransmitQueue q;
  core::Pcb pcb = make_pcb(1);
  q.on_send(pcb, 1, 1, 0.0);
  q.on_send(pcb, 2, 1, 0.0);
  q.release(pcb);
  EXPECT_EQ(pcb.rtx, 0u);
  EXPECT_EQ(q.size(pcb), 0u);
  EXPECT_EQ(q.live(), 0u);
  EXPECT_TRUE(q.consistent());
}

TEST(RetransmitQueue, InterleavedConnectionsKeepSeparateFifos) {
  RetransmitQueue q;
  core::Pcb a = make_pcb(1);
  core::Pcb b = make_pcb(2);
  q.on_send(a, 1000, 100, 0.0);
  q.on_send(b, 5000, 10, 0.1);
  q.on_send(a, 1100, 100, 0.2);
  q.on_send(b, 5010, 10, 0.3);
  q.on_send(a, 1200, 100, 0.4);
  EXPECT_TRUE(q.consistent());
  EXPECT_EQ(q.outstanding(a), 300u);
  EXPECT_EQ(q.outstanding(b), 20u);

  // An ACK on one connection never touches the other's records.
  const auto acked = q.on_ack(a, 1200, 0.5);
  EXPECT_EQ(acked.segments, 2u);
  ASSERT_TRUE(acked.rtt.has_value());
  EXPECT_NEAR(*acked.rtt, 0.3, 1e-12);
  EXPECT_EQ(q.size(a), 1u);
  EXPECT_EQ(q.size(b), 2u);
  EXPECT_TRUE(q.consistent());

  const auto b_front = q.take_expired(b, 1.2, 1.0);
  ASSERT_TRUE(b_front.has_value());
  EXPECT_EQ(b_front->seq, 5000u);
  const auto a_front = q.take_expired(a, 1.2, 1.0);
  EXPECT_FALSE(a_front.has_value()) << "a's 1200 was sent at 0.4";
  EXPECT_EQ(q.take_front(a, 1.2)->seq, 1200u);
  EXPECT_EQ(q.live(), 3u);
}

TEST(RetransmitQueue, ReleasedRecordsAreReusedLifo) {
  RetransmitQueue q;
  core::Pcb a = make_pcb(1);
  core::Pcb b = make_pcb(2);
  core::Pcb c = make_pcb(3);
  q.on_send(a, 1000, 100, 0.0);
  q.on_send(b, 5000, 10, 0.0);
  q.on_send(a, 1100, 100, 0.0);
  const std::uint32_t slots = q.slots();
  const std::uint32_t a_head = a.rtx;

  q.release(a);  // mid-pool: b's record sits between a's two
  EXPECT_EQ(q.live(), 1u);
  EXPECT_TRUE(q.consistent());
  EXPECT_EQ(q.owner_at(a_head), nullptr);

  // The next sends reuse the freed records without growing the pool.
  q.on_send(c, 7000, 1, 1.0);
  EXPECT_NE(c.rtx, b.rtx);
  EXPECT_EQ(q.owner_at(c.rtx), &c);
  q.on_send(c, 7001, 1, 1.0);
  EXPECT_EQ(q.slots(), slots);
  EXPECT_EQ(q.live(), 3u);
  EXPECT_TRUE(q.consistent());
  EXPECT_EQ(q.outstanding(b), 10u);
  EXPECT_EQ(q.outstanding(c), 2u);
  EXPECT_EQ(q.take_front(b, 2.0)->seq, 5000u);
  EXPECT_EQ(q.on_ack(c, 7002, 2.0).segments, 2u);
  EXPECT_EQ(q.live(), 1u);
  EXPECT_TRUE(q.consistent());

  // Last freed, first reused: b's acked record is the next one handed out.
  const std::uint32_t b_head = b.rtx;
  EXPECT_EQ(q.on_ack(b, 5010, 2.0).segments, 1u);
  q.on_send(a, 1200, 100, 3.0);
  EXPECT_EQ(a.rtx, b_head);
  EXPECT_EQ(q.slots(), slots);
}

}  // namespace
}  // namespace tcpdemux::tcp

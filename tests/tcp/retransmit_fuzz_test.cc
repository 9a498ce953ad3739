// Differential fuzzing of the pooled retransmission queue.
//
// tcp::RetransmitQueue keeps every connection's unacknowledged segments in
// one index-linked pool. This test drives it with seeded random sends,
// cumulative / partial / duplicate ACKs, RTO expiries, fast retransmits
// and mid-queue releases over a dozen connections, and checks it after
// every operation against a reference model: one std::deque of segments
// per connection with the queue's documented semantics (Karn's rule, the
// sample from the newest clean fully-acked segment, oldest-first expiry).
// Compared after every op: the RTT sample, each connection's outstanding()
// and size(), the sequence of retransmitted (seq, len), and the pool's
// structural check — a free list that handed out a live record would put
// one record on two lists, or change another connection's totals.
//
// Budget: TCPDEMUX_FUZZ_OPS operations (default 100000); TCPDEMUX_FUZZ_SEED
// reseeds the run. Failures print the seed and op index:
//   TCPDEMUX_FUZZ_OPS=1000000 TCPDEMUX_FUZZ_SEED=7 ctest -R RetransmitFuzz
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <deque>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "tcp/retransmit_queue.h"
#include "tcp/seq_math.h"

namespace tcpdemux::tcp {
namespace {

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  return std::strtoull(value, nullptr, 10);
}

/// One connection's queue as a plain deque: the reference semantics.
class ReferenceQueue {
 public:
  using Segment = RetransmitQueue::Segment;

  void on_send(std::uint32_t seq, std::uint32_t len, double now) {
    segments_.push_back(Segment{seq, len, now, now, 1});
  }

  RetransmitQueue::Acked on_ack(std::uint32_t ack, double now) {
    RetransmitQueue::Acked acked;
    while (!segments_.empty()) {
      const Segment& front = segments_.front();
      if (!seq_leq(front.seq + front.len, ack)) break;
      if (front.transmissions == 1) acked.rtt = now - front.first_sent;
      ++acked.segments;
      segments_.pop_front();
    }
    return acked;
  }

  std::optional<Segment> take_expired(double now, double rto) {
    if (segments_.empty()) return std::nullopt;
    if (now - segments_.front().last_sent < rto) return std::nullopt;
    return take_front(now);
  }

  std::optional<Segment> take_front(double now) {
    if (segments_.empty()) return std::nullopt;
    Segment& oldest = segments_.front();
    oldest.last_sent = now;
    ++oldest.transmissions;
    return oldest;
  }

  [[nodiscard]] std::uint64_t outstanding() const {
    std::uint64_t total = 0;
    for (const Segment& s : segments_) total += s.len;
    return total;
  }

  [[nodiscard]] std::size_t size() const { return segments_.size(); }
  /// One past the last sequence number of the i-th oldest segment.
  [[nodiscard]] std::uint32_t end_of(std::size_t i) const {
    return segments_[i].seq + segments_[i].len;
  }
  void clear() { segments_.clear(); }

 private:
  std::deque<Segment> segments_;
};

struct Connection {
  std::unique_ptr<core::Pcb> pcb;
  ReferenceQueue ref;
  std::uint32_t snd_nxt = 0;  ///< next seq to send
  std::uint32_t snd_una = 0;  ///< highest cumulative ack offered
};

/// Both sides of one expiry / fast-retransmit op must hand back the same
/// segment, so the two retransmitted (seq, len) sequences are equal.
void expect_same_segment(const std::optional<RetransmitQueue::Segment>& got,
                         const std::optional<RetransmitQueue::Segment>& want,
                         std::uint64_t& retransmits) {
  ASSERT_EQ(got.has_value(), want.has_value());
  if (!got) return;
  EXPECT_EQ(got->seq, want->seq);
  EXPECT_EQ(got->len, want->len);
  EXPECT_EQ(got->transmissions, want->transmissions);
  EXPECT_EQ(got->first_sent, want->first_sent);
  EXPECT_EQ(got->last_sent, want->last_sent);
  ++retransmits;
}

TEST(RetransmitFuzz, PoolMatchesPerConnectionDeques) {
  constexpr std::size_t kConnections = 12;
  constexpr std::size_t kMaxQueue = 48;
  const std::uint64_t ops = env_u64("TCPDEMUX_FUZZ_OPS", 100000);
  const std::uint64_t seed = env_u64("TCPDEMUX_FUZZ_SEED", 0x5ca1ab1e);
  SCOPED_TRACE("ops=" + std::to_string(ops) +
               " seed=" + std::to_string(seed));
  std::mt19937 rng(static_cast<std::mt19937::result_type>(seed));

  RetransmitQueue pool;
  std::vector<Connection> conns(kConnections);
  // Half the connections start near the top of sequence space so their
  // queues wrap past zero.
  auto restart = [&](Connection& c, std::uint16_t port) {
    c.pcb = std::make_unique<core::Pcb>(
        net::FlowKey{{10, 0, 0, 1}, 80, {10, 1, 0, 2}, port});
    c.ref.clear();
    c.snd_nxt = (port % 2 == 0) ? 0xffff0000u + rng() % 0x10000u : rng();
    c.snd_una = c.snd_nxt;
  };
  for (std::size_t i = 0; i < kConnections; ++i) {
    restart(conns[i], static_cast<std::uint16_t>(1000 + i));
  }

  std::uint64_t sends = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t samples = 0;
  std::uint64_t releases = 0;
  double now = 0.0;

  for (std::uint64_t op = 0; op < ops; ++op) {
    SCOPED_TRACE("op=" + std::to_string(op));
    Connection& c = conns[rng() % kConnections];
    core::Pcb& pcb = *c.pcb;
    now += static_cast<double>(rng() % 1000) * 1e-4;  // 0..100 ms steps
    const unsigned kind = rng() % 100;

    if (kind < 40 && c.ref.size() < kMaxQueue) {
      // Send: SYN/FIN-sized, tiny, or full-MSS payloads.
      const unsigned shape = rng() % 4;
      const std::uint32_t len =
          shape == 0 ? 1u : shape == 1 ? 1u + rng() % 64u : 1460u;
      pool.on_send(pcb, c.snd_nxt, len, now);
      c.ref.on_send(c.snd_nxt, len, now);
      c.snd_nxt += len;
      ++sends;
    } else if (kind < 75) {
      // Cumulative ACK: everything sent, a segment boundary, anywhere
      // (mostly mid-segment: partial), or a repeat of the last (duplicate).
      std::uint32_t ack = c.snd_una;
      const unsigned shape = rng() % 4;
      if (shape == 0) {
        ack = c.snd_nxt;
      } else if (shape == 1 && c.ref.size() != 0) {
        ack = c.ref.end_of(rng() % c.ref.size());
      } else if (shape == 2 && c.snd_una != c.snd_nxt) {
        ack = c.snd_una + 1 + rng() % (c.snd_nxt - c.snd_una);
      }
      if (seq_gt(ack, c.snd_una)) c.snd_una = ack;
      const auto got = pool.on_ack(pcb, ack, now);
      const auto want = c.ref.on_ack(ack, now);
      ASSERT_EQ(got.segments, want.segments);
      ASSERT_EQ(got.rtt.has_value(), want.rtt.has_value());
      if (got.rtt) {
        ASSERT_EQ(*got.rtt, *want.rtt);
        ++samples;
      }
    } else if (kind < 88) {
      const double rto = static_cast<double>(rng() % 20) * 0.05;
      expect_same_segment(pool.take_expired(pcb, now, rto),
                          c.ref.take_expired(now, rto), retransmits);
    } else if (kind < 95) {
      expect_same_segment(pool.take_front(pcb, now), c.ref.take_front(now),
                          retransmits);
    } else {
      // The connection goes away mid-queue; its slot restarts as a new one.
      const std::uint16_t port = pcb.key.foreign_port;
      pool.release(pcb);
      ASSERT_EQ(pcb.rtx, 0u);
      restart(c, port);
      ++releases;
    }

    if (HasFailure()) return;
    std::size_t live = 0;
    for (const Connection& other : conns) {
      ASSERT_EQ(pool.outstanding(*other.pcb), other.ref.outstanding());
      ASSERT_EQ(pool.size(*other.pcb), other.ref.size());
      ASSERT_EQ(other.pcb->rtx == 0, other.ref.size() == 0);
      if (other.pcb->rtx != 0) {
        ASSERT_EQ(pool.owner_at(other.pcb->rtx), other.pcb.get());
      }
      live += other.ref.size();
    }
    ASSERT_EQ(pool.live(), live);
    ASSERT_TRUE(pool.consistent());
  }

  // The mix must actually reach every path.
  if (ops >= 10000) {
    EXPECT_GT(sends, ops / 4);
    EXPECT_GT(samples, 0u);
    EXPECT_GT(releases, 0u);
    EXPECT_GT(retransmits, 0u);
  }
  // The pool never grows beyond the peak live count.
  EXPECT_LE(pool.slots() - 1, kConnections * kMaxQueue);
}

}  // namespace
}  // namespace tcpdemux::tcp

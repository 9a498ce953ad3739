// Retransmission queue: the unacknowledged-segment bookkeeping a real TCP
// sender keeps per connection, held for a whole socket table in one pool.
//
// The demultiplexing study itself runs lossless, but a credible TCP
// substrate needs the send side's reliability machinery: segments enter
// when transmitted, leave when cumulatively acknowledged, and come back
// for retransmission when their RTO expires. Karn's algorithm is applied:
// a segment that has been retransmitted never produces an RTT sample.
//
// Layout. Every segment record of every connection lives in one vector,
// addressed by a 32-bit index (0 is the null index). A connection's
// records form an index-linked FIFO whose head is `core::Pcb::rtx`; the
// head also holds the FIFO's tail and its owning PCB, so the pool can be
// walked by owner. Freed records go onto an index free list and are
// reused last-in first-out, so the next send reuses a record that is
// still in cache. Reaching a connection's state costs no hash probe, and
// once the pool has grown a send costs no allocation.
#ifndef TCPDEMUX_TCP_RETRANSMIT_QUEUE_H_
#define TCPDEMUX_TCP_RETRANSMIT_QUEUE_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "core/pcb.h"

namespace tcpdemux::tcp {

class RetransmitQueue {
 public:
  struct Segment {
    std::uint32_t seq = 0;
    std::uint32_t len = 0;  ///< payload bytes (SYN/FIN count as 1)
    double first_sent = 0.0;
    double last_sent = 0.0;
    std::uint32_t transmissions = 1;
  };

  /// What a cumulative acknowledgement did to one connection's queue.
  struct Acked {
    std::uint32_t segments = 0;  ///< fully acknowledged segments dropped
    /// now - first_sent of the newest dropped, never-retransmitted
    /// segment; nullopt when Karn's rule or an empty ack forbids sampling.
    std::optional<double> rtt;
  };

  RetransmitQueue() : records_(1) {}  // index 0 is the null record

  /// Records a segment transmitted on `pcb`. Segments must be offered in
  /// sequence order (as a sender emits them).
  void on_send(core::Pcb& pcb, std::uint32_t seq, std::uint32_t len,
               double now);

  /// Processes a cumulative acknowledgement on `pcb`: drops its fully
  /// acked segments and reports the RTT sample.
  Acked on_ack(core::Pcb& pcb, std::uint32_t ack, double now);

  /// `pcb`'s oldest segment, if its age exceeds `rto` at `now`. Marks it
  /// retransmitted and returns a copy.
  std::optional<Segment> take_expired(core::Pcb& pcb, double now,
                                      double rto);

  /// Unconditionally marks `pcb`'s oldest outstanding segment
  /// retransmitted (fast retransmit on duplicate ACKs) and returns a copy;
  /// nullopt when nothing is outstanding.
  std::optional<Segment> take_front(core::Pcb& pcb, double now);

  /// Bytes (plus SYN/FIN units) still unacknowledged on `pcb`.
  [[nodiscard]] std::uint64_t outstanding(const core::Pcb& pcb) const noexcept;

  /// Segments still unacknowledged on `pcb`.
  [[nodiscard]] std::size_t size(const core::Pcb& pcb) const noexcept;

  /// Frees every record of `pcb` (the connection is going away).
  void release(core::Pcb& pcb) noexcept;

  /// Owner walk: slots are indexed [1, slots()); owner_at is the PCB whose
  /// queue starts at that slot, or nullptr. Re-read slots() after every
  /// call that may send, since a send can grow the pool.
  [[nodiscard]] std::uint32_t slots() const noexcept {
    return static_cast<std::uint32_t>(records_.size());
  }
  [[nodiscard]] core::Pcb* owner_at(std::uint32_t slot) const noexcept {
    return records_[slot].owner;
  }

  /// Records holding a live segment, across all connections.
  [[nodiscard]] std::size_t live() const noexcept { return live_; }

  /// Structural check: every slot is on exactly one connection's FIFO or
  /// the free list, each head names its owner and tail, and each owner's
  /// handle points back at its head. O(slots).
  [[nodiscard]] bool consistent() const;

 private:
  struct Record {
    Segment segment;
    std::uint32_t next = 0;      ///< next in the FIFO or the free list
    std::uint32_t tail = 0;      ///< head only: the FIFO's last record
    core::Pcb* owner = nullptr;  ///< head only: the connection
  };

  std::uint32_t allocate();
  void free_record(std::uint32_t index) noexcept;

  std::vector<Record> records_;
  std::uint32_t free_ = 0;  ///< free-list head (LIFO)
  std::size_t live_ = 0;
};

}  // namespace tcpdemux::tcp

#endif  // TCPDEMUX_TCP_RETRANSMIT_QUEUE_H_

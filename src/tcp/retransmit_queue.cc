#include "tcp/retransmit_queue.h"

#include "tcp/seq_math.h"

namespace tcpdemux::tcp {

std::uint32_t RetransmitQueue::allocate() {
  ++live_;
  if (free_ != 0) {
    const std::uint32_t index = free_;
    free_ = records_[index].next;
    return index;
  }
  records_.emplace_back();
  return static_cast<std::uint32_t>(records_.size() - 1);
}

void RetransmitQueue::free_record(std::uint32_t index) noexcept {
  Record& r = records_[index];
  r.owner = nullptr;
  r.next = free_;
  free_ = index;
  --live_;
}

void RetransmitQueue::on_send(core::Pcb& pcb, std::uint32_t seq,
                              std::uint32_t len, double now) {
  const std::uint32_t index = allocate();  // may reallocate records_
  Record& r = records_[index];
  r.segment = Segment{seq, len, now, now, 1};
  r.next = 0;
  if (pcb.rtx == 0) {
    r.owner = &pcb;
    r.tail = index;
    pcb.rtx = index;
    return;
  }
  Record& head = records_[pcb.rtx];
  records_[head.tail].next = index;
  head.tail = index;
}

RetransmitQueue::Acked RetransmitQueue::on_ack(core::Pcb& pcb,
                                               std::uint32_t ack,
                                               double now) {
  Acked acked;
  while (pcb.rtx != 0) {
    const std::uint32_t index = pcb.rtx;
    Record& front = records_[index];
    const Segment& s = front.segment;
    if (!seq_leq(s.seq + s.len, ack)) break;  // not fully covered
    if (s.transmissions == 1) {
      acked.rtt = now - s.first_sent;  // Karn: only clean transmissions
    }
    ++acked.segments;
    const std::uint32_t next = front.next;
    if (next != 0) {
      records_[next].owner = &pcb;
      records_[next].tail = front.tail;
    }
    pcb.rtx = next;
    free_record(index);
  }
  return acked;
}

std::optional<RetransmitQueue::Segment> RetransmitQueue::take_expired(
    core::Pcb& pcb, double now, double rto) {
  if (pcb.rtx == 0) return std::nullopt;
  if (now - records_[pcb.rtx].segment.last_sent < rto) return std::nullopt;
  return take_front(pcb, now);
}

std::optional<RetransmitQueue::Segment> RetransmitQueue::take_front(
    core::Pcb& pcb, double now) {
  if (pcb.rtx == 0) return std::nullopt;
  Segment& oldest = records_[pcb.rtx].segment;
  oldest.last_sent = now;
  ++oldest.transmissions;
  return oldest;
}

std::uint64_t RetransmitQueue::outstanding(
    const core::Pcb& pcb) const noexcept {
  std::uint64_t total = 0;
  for (std::uint32_t i = pcb.rtx; i != 0; i = records_[i].next) {
    total += records_[i].segment.len;
  }
  return total;
}

std::size_t RetransmitQueue::size(const core::Pcb& pcb) const noexcept {
  std::size_t n = 0;
  for (std::uint32_t i = pcb.rtx; i != 0; i = records_[i].next) ++n;
  return n;
}

void RetransmitQueue::release(core::Pcb& pcb) noexcept {
  std::uint32_t i = pcb.rtx;
  pcb.rtx = 0;
  while (i != 0) {
    const std::uint32_t next = records_[i].next;
    free_record(i);
    i = next;
  }
}

bool RetransmitQueue::consistent() const {
  // 0 = unseen, 1 = on a FIFO, 2 = on the free list.
  std::vector<std::uint8_t> seen(records_.size(), 0);
  std::size_t on_fifos = 0;
  for (std::uint32_t h = 1; h < records_.size(); ++h) {
    const Record& head = records_[h];
    if (head.owner == nullptr) continue;
    if (head.owner->rtx != h) return false;
    std::uint32_t last = 0;
    for (std::uint32_t i = h; i != 0; i = records_[i].next) {
      if (i >= records_.size() || seen[i] != 0) return false;
      if (i != h && records_[i].owner != nullptr) return false;
      seen[i] = 1;
      last = i;
      ++on_fifos;
    }
    if (head.tail != last) return false;
  }
  std::size_t on_free = 0;
  for (std::uint32_t i = free_; i != 0; i = records_[i].next) {
    if (i >= records_.size() || seen[i] != 0) return false;
    if (records_[i].owner != nullptr) return false;
    seen[i] = 2;
    ++on_free;
  }
  return on_fifos == live_ && on_fifos + on_free == records_.size() - 1;
}

}  // namespace tcpdemux::tcp

#include "tcp/socket_table.h"

#include <algorithm>

#include "tcp/rtt.h"

namespace tcpdemux::tcp {

using core::Pcb;
using net::TcpFlag;

namespace {

// The window every connection advertises: delivered bytes go straight to
// the application, so no receive buffer ever fills.
constexpr std::uint16_t kReceiveWindow = 65535;

}  // namespace

SocketTable::SocketTable(const core::DemuxConfig& demux_config,
                         TransmitFn transmit)
    : demuxer_(core::make_demuxer(demux_config)),
      transmit_(std::move(transmit)),
      machine_([this](Pcb& pcb, const Emit& emit) {
        transmit_segment(pcb, emit);
      }) {}

bool SocketTable::listen(net::Ipv4Addr addr, std::uint16_t port) {
  for (const Listener& l : listeners_) {
    if (l.addr == addr && l.port == port) return false;
  }
  listeners_.push_back(Listener{addr, port});
  return true;
}

Pcb* SocketTable::connect(const net::FlowKey& key) {
  Pcb* pcb = demuxer_->insert(key);
  if (pcb == nullptr) return nullptr;
  machine_.open_active(*pcb);
  return pcb;
}

Pcb* SocketTable::accept() {
  if (accept_queue_.empty()) return nullptr;
  Pcb* pcb = accept_queue_.front();
  accept_queue_.pop_front();
  return pcb;
}

bool SocketTable::erase(const net::FlowKey& key) {
  Pcb* const pcb = find(key);
  return pcb != nullptr && release(*pcb);
}

bool SocketTable::release(Pcb& pcb) {
  std::erase(accept_queue_, &pcb);
  retransmit_.release(pcb);
  closing_since_.erase(&pcb);
  const net::FlowKey key = pcb.key;  // erase() destroys the PCB
  return demuxer_->erase(key);
}

std::size_t SocketTable::reap_closed(double msl) {
  if (!clock_) return 0;
  const double now = clock_();
  reap_victims_.clear();
  for (const auto& [pcb, since] : closing_since_) {
    const bool expired = pcb->state == core::TcpState::kClosed ||
                         (pcb->state == core::TcpState::kTimeWait &&
                          now - since >= 2.0 * msl);
    if (expired) reap_victims_.push_back(pcb);
  }
  std::size_t reaped = 0;
  for (Pcb* pcb : reap_victims_) {
    if (release(*pcb)) ++reaped;
  }
  return reaped;
}

const SocketTable::Listener* SocketTable::find_listener(
    const net::FlowKey& packet_key) const noexcept {
  const Listener* best = nullptr;
  for (const Listener& l : listeners_) {
    if (l.port != packet_key.local_port) continue;
    if (l.addr == packet_key.local_addr) return &l;  // exact beats wildcard
    if (l.addr.is_any() && best == nullptr) best = &l;
  }
  return best;
}

SocketTable::DeliverResult SocketTable::deliver_wire(
    std::span<const std::uint8_t> wire) {
  const auto packet = net::Packet::parse(wire);
  if (!packet) {
    ++counters_.parse_errors;
    return DeliverResult{};
  }
  return deliver(*packet);
}

SocketTable::DeliverResult SocketTable::deliver(const net::Packet& packet) {
  DeliverResult result;
  const net::FlowKey key = packet.receiver_flow_key();

  // Pure ACKs probe the send-side cache first (paper §3.3 footnote 5);
  // anything carrying payload or SYN/FIN counts as data.
  const bool pure_ack = packet.payload.empty() &&
                        packet.tcp.has(TcpFlag::kAck) &&
                        !packet.tcp.has(TcpFlag::kSyn) &&
                        !packet.tcp.has(TcpFlag::kFin);
  const auto lookup = demuxer_->lookup(
      key, pure_ack ? core::SegmentKind::kAck : core::SegmentKind::kData);
  result.pcbs_examined = lookup.examined;

  if (lookup.pcb != nullptr) {
    const core::TcpState before = lookup.pcb->state;
    machine_.process(*lookup.pcb, packet.tcp,
                     static_cast<std::uint32_t>(packet.payload.size()));
    if (before == core::TcpState::kSynReceived &&
        lookup.pcb->state == core::TcpState::kEstablished) {
      accept_queue_.push_back(lookup.pcb);
    }
    if (clock_ && lookup.pcb->state != before &&
        (lookup.pcb->state == core::TcpState::kTimeWait ||
         lookup.pcb->state == core::TcpState::kClosed)) {
      closing_since_.emplace(lookup.pcb, clock_());
    }
    note_acked(*lookup.pcb);
    ++counters_.delivered;
    result.status = Delivery::kDelivered;
    result.pcb = lookup.pcb;
    return result;
  }

  if (packet.tcp.has(TcpFlag::kSyn) && !packet.tcp.has(TcpFlag::kAck) &&
      find_listener(key) != nullptr) {
    if (syn_cache_) {
      // Park the embryo; no PCB until the handshake completes. A
      // retransmitted SYN finds its existing entry and reuses its ISS.
      const SynCache::Entry* entry = syn_cache_->add(
          key, packet.tcp.seq, machine_.next_iss(), clock_ ? clock_() : 0.0);
      net::PacketBuilder builder;
      builder.from({key.local_addr, key.local_port})
          .to({key.foreign_addr, key.foreign_port})
          .seq(entry->iss)
          .ack_seq(entry->irs + 1)
          .flags(TcpFlag::kSyn);
      static thread_local core::Pcb embryo_pcb{net::FlowKey{}};
      embryo_pcb.key = key;
      transmit_(builder.build(), embryo_pcb);
      result.status = Delivery::kSynCached;
      return result;
    }
    Pcb* child = demuxer_->insert(key);
    if (child != nullptr) {
      machine_.open_passive(*child, packet.tcp);
      ++counters_.new_connections;
      result.status = Delivery::kNewConnection;
      result.pcb = child;
      return result;
    }
  }

  // A pure ACK that matched no PCB may complete a SYN-cached handshake.
  if (syn_cache_ && pure_ack) {
    SynCache::Entry entry;
    if (syn_cache_->take(key, &entry)) {
      if (packet.tcp.ack == entry.iss + 1 &&
          packet.tcp.seq == entry.irs + 1) {
        Pcb* child = demuxer_->insert(key);
        if (child != nullptr) {
          child->snd_una = entry.iss + 1;
          child->snd_nxt = entry.iss + 1;
          child->rcv_nxt = entry.irs + 1;
          child->state = core::TcpState::kEstablished;
          accept_queue_.push_back(child);
          ++counters_.new_connections;
          result.status = Delivery::kNewConnection;
          result.pcb = child;
          return result;
        }
      }
      // Bad ACK for an embryo: fall through to the RST path.
    }
  }

  transmit_rst(packet);
  ++counters_.resets_sent;
  result.status = Delivery::kReset;
  return result;
}

void SocketTable::note_acked(Pcb& pcb) {
  if (!clock_ || pcb.rtx == 0) return;
  const auto acked = retransmit_.on_ack(pcb, pcb.snd_una, clock_());
  if (acked.segments > 0) {
    pcb.dupacks = 0;
    if (acked.rtt.has_value() && *acked.rtt >= 0.0) {
      update_pcb_rtt(pcb, static_cast<std::uint32_t>(*acked.rtt * 1e6));
    } else {
      // Forward progress acknowledged via a retransmission: Karn forbids a
      // sample, but the backed-off RTO may return to the estimator's value
      // — or the 1 s default when no sample ever succeeded — so recovery
      // keeps a steady cadence (RFC 6298 §5.7's allowance).
      pcb.rto_us =
          pcb.srtt_us != 0
              ? std::clamp(pcb.srtt_us + std::max(1000u, 4 * pcb.rttvar_us),
                           1'000'000u, 60'000'000u)
              : 1'000'000u;
    }
  } else {
    // A non-advancing ACK while data is outstanding: a duplicate. Three in
    // a row trigger fast retransmit of the oldest segment (RFC 5681 §3.2,
    // without the congestion-window machinery).
    if (++pcb.dupacks >= 3) {
      pcb.dupacks = 0;
      if (const auto segment = retransmit_.take_front(pcb, clock_())) {
        retransmit_segment(pcb, *segment);
      }
    }
  }
}

void SocketTable::retransmit_segment(Pcb& pcb,
                                     const RetransmitQueue::Segment& segment) {
  // Rebuild the segment; the receiver's cumulative ACK logic treats a
  // duplicate seq as an old friend.
  net::PacketBuilder builder;
  builder.from({pcb.key.local_addr, pcb.key.local_port})
      .to({pcb.key.foreign_addr, pcb.key.foreign_port})
      .seq(segment.seq)
      .ack_seq(pcb.rcv_nxt)
      .flags(TcpFlag::kPsh)
      .window(kReceiveWindow)
      .payload_size(segment.len);
  demuxer_->note_sent(&pcb);
  transmit_(builder.build(), pcb);
  ++counters_.retransmissions;
}

std::size_t SocketTable::poll_retransmits() {
  if (!clock_) return 0;
  const double now = clock_();
  std::size_t resent = 0;
  // Walk the pool by slot, re-reading its size: the transmit callback may
  // send on another connection and grow the pool. take_expired returns a
  // copy, so no reference into the pool is held across the transmit.
  for (std::uint32_t slot = 1; slot < retransmit_.slots(); ++slot) {
    Pcb* pcb = retransmit_.owner_at(slot);
    if (pcb == nullptr) continue;
    const double rto = pcb->rto_us / 1e6;
    // Classic RTO behavior: resend only the oldest outstanding segment and
    // back the timer off once; the cumulative ACK it provokes re-arms
    // recovery for the rest (retransmitting the whole queue would mark
    // every segment with Karn's bit and starve the RTT estimator forever).
    if (const auto segment = retransmit_.take_expired(*pcb, now, rto)) {
      retransmit_segment(*pcb, *segment);
      ++resent;
      pcb->rto_us = std::min<std::uint32_t>(pcb->rto_us * 2, 60'000'000u);
    }
  }
  return resent;
}

void SocketTable::transmit_segment(Pcb& pcb, const Emit& emit) {
  net::PacketBuilder builder;
  builder.from({pcb.key.local_addr, pcb.key.local_port})
      .to({pcb.key.foreign_addr, pcb.key.foreign_port})
      .seq(emit.seq)
      .flags(emit.flags)
      .window(kReceiveWindow)
      .payload_size(emit.payload_len);
  if ((emit.flags & static_cast<std::uint8_t>(TcpFlag::kAck)) != 0) {
    builder.ack_seq(emit.ack);
  }
  if (clock_ && emit.payload_len > 0) {
    retransmit_.on_send(pcb, emit.seq, emit.payload_len, clock_());
  }
  demuxer_->note_sent(&pcb);
  transmit_(builder.build(), pcb);
}

void SocketTable::transmit_rst(const net::Packet& packet) {
  // RFC 793: if the incoming segment has an ACK, the RST takes its seq from
  // the segment's ack field; otherwise seq 0 with ACK covering the segment.
  const net::FlowKey key = packet.receiver_flow_key();
  net::PacketBuilder builder;
  builder.from({key.local_addr, key.local_port})
      .to({key.foreign_addr, key.foreign_port})
      .flags(TcpFlag::kRst);
  if (packet.tcp.has(TcpFlag::kAck)) {
    builder.seq(packet.tcp.ack);
  } else {
    const std::uint32_t syn_fin =
        (packet.tcp.has(TcpFlag::kSyn) ? 1 : 0) +
        (packet.tcp.has(TcpFlag::kFin) ? 1 : 0);
    builder.seq(0).ack_seq(packet.tcp.seq +
                           static_cast<std::uint32_t>(packet.payload.size()) +
                           syn_fin);
  }
  // A RST belongs to no PCB; report it against a synthetic closed one.
  static thread_local Pcb rst_pcb{net::FlowKey{}};
  rst_pcb.key = key;
  transmit_(builder.build(), rst_pcb);
}

}  // namespace tcpdemux::tcp

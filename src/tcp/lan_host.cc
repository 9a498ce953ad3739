#include "tcp/lan_host.h"

namespace tcpdemux::tcp {

void LanHost::receive_frame(std::span<const std::uint8_t> frame) {
  const double now = clock_ ? clock_() : 0.0;
  if (const auto reply = arp_.handle_frame(frame, now)) {
    transmit_(std::move(*reply));
  }
  flush_pending();
  const auto header = net::EthernetHeader::parse(frame);
  if (!header) return;
  if (!(header->dst == mac_) && !header->dst.is_broadcast()) {
    return;  // flooded unicast for another host
  }
  if (const auto inner = net::ethernet_decapsulate_ipv4(frame)) {
    host_.input(*inner, now);
  }
}

void LanHost::send_ipv4(net::Ipv4Addr next_hop,
                        std::vector<std::uint8_t> datagram) {
  const double now = clock_ ? clock_() : 0.0;
  const auto dst_mac = arp_.resolve(next_hop, now);
  if (!dst_mac) {
    pending_.push_back({next_hop, std::move(datagram)});
    // A flush in progress compacts by index; it trims when it is done.
    if (!flushing_) trim_pending();
    transmit_(arp_.make_request(next_hop));
    return;
  }
  transmit_(net::ethernet_encapsulate(*dst_mac, mac_, datagram));
}

void LanHost::flush_pending() {
  // One stable compaction pass: resolved datagrams go out in arrival
  // order and the rest slide down, keeping theirs. Indices, not iterators,
  // so a send_ipv4 from inside transmit_ may append safely.
  const double now = clock_ ? clock_() : 0.0;
  flushing_ = true;
  std::size_t kept = 0;
  for (std::size_t i = 0; i < pending_.size(); ++i) {
    const auto dst_mac = arp_.resolve(pending_[i].next_hop, now);
    if (dst_mac) {
      transmit_(net::ethernet_encapsulate(*dst_mac, mac_,
                                          pending_[i].datagram));
    } else {
      if (kept != i) pending_[kept] = std::move(pending_[i]);
      ++kept;
    }
  }
  pending_.resize(kept);
  flushing_ = false;
  trim_pending();
}

void LanHost::trim_pending() {
  while (pending_.size() > kMaxPending) {
    pending_.pop_front();
    ++pending_dropped_;
  }
}

}  // namespace tcpdemux::tcp

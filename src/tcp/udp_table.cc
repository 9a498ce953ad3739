#include "tcp/udp_table.h"

#include "net/byte_order.h"

namespace tcpdemux::tcp {

bool UdpTable::bind(net::Ipv4Addr addr, std::uint16_t port) {
  for (const BoundSocket& s : bound_) {
    if (s.addr == addr && s.port == port) return false;
  }
  bound_.push_back(BoundSocket{addr, port, 0, 0});
  return true;
}

UdpTable::DeliverResult UdpTable::deliver_wire(
    std::span<const std::uint8_t> wire) {
  DeliverResult result;
  const auto ip = net::Ipv4Header::parse(wire);
  if (!ip || ip->protocol != 17) return result;
  if (ip->more_fragments || ip->fragment_offset != 0) return result;
  const auto datagram =
      wire.subspan(net::Ipv4Header::kSize,
                   ip->total_length - net::Ipv4Header::kSize);
  const auto udp = net::UdpHeader::parse(datagram);
  if (!udp) return result;
  // RFC 768: a zero wire checksum means "not computed". A present
  // checksum must verify — recomputing over the datagram (embedded
  // checksum included) yields complement 0, which udp_checksum's
  // zero-substitution reports as 0xffff.
  const std::uint16_t wire_sum = net::load_be16(datagram.data() + 6);
  if (wire_sum != 0 &&
      net::udp_checksum(ip->src, ip->dst, datagram) != 0xffff) {
    return result;
  }

  const net::FlowKey key{ip->dst, udp->dst_port, ip->src, udp->src_port};
  const auto lookup = demuxer_->lookup(key, core::SegmentKind::kData);
  result.pcbs_examined = lookup.examined;
  if (lookup.pcb != nullptr) {
    lookup.pcb->bytes_in += udp->length - net::UdpHeader::kSize;
    result.status = Delivery::kConnected;
    result.pcb = lookup.pcb;
    return result;
  }

  // Bound-socket fallback: exact address beats wildcard.
  BoundSocket* best = nullptr;
  for (BoundSocket& s : bound_) {
    if (s.port != udp->dst_port) continue;
    if (s.addr == ip->dst) {
      best = &s;
      break;
    }
    if (s.addr.is_any() && best == nullptr) best = &s;
  }
  if (best != nullptr) {
    ++best->datagrams;
    best->bytes += udp->length - net::UdpHeader::kSize;
    result.status = Delivery::kBound;
    return result;
  }

  ++unreachable_;
  result.status = Delivery::kUnreachable;
  return result;
}

}  // namespace tcpdemux::tcp

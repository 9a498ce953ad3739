#include "net/packet.h"

#include "net/byte_order.h"
#include "net/checksum.h"

namespace tcpdemux::net {

std::optional<Packet> Packet::parse(std::span<const std::uint8_t> wire) {
  auto ip = Ipv4Header::parse(wire);
  if (!ip) return std::nullopt;
  if (ip->protocol != 6) return std::nullopt;
  if (ip->more_fragments || ip->fragment_offset != 0) return std::nullopt;

  const auto segment = wire.subspan(Ipv4Header::kSize,
                                    ip->total_length - Ipv4Header::kSize);
  auto tcp = TcpHeader::parse(segment);
  if (!tcp) return std::nullopt;
  if (tcp_checksum(ip->src, ip->dst, segment) != 0) return std::nullopt;

  Packet p;
  p.ip = *ip;
  p.tcp = *tcp;
  p.payload = segment.subspan(p.tcp.size());
  return p;
}

std::vector<std::uint8_t> PacketBuilder::build() const {
  TcpHeader tcp = tcp_;
  tcp.src_port = src_.port;
  tcp.dst_port = dst_.port;

  Ipv4Header ip;
  ip.src = src_.addr;
  ip.dst = dst_.addr;
  ip.ttl = ttl_;
  ip.identification = ip_id_;
  const std::size_t segment_len = tcp.size() + payload_.size();
  ip.total_length =
      static_cast<std::uint16_t>(Ipv4Header::kSize + segment_len);

  std::vector<std::uint8_t> wire(ip.total_length);
  ip.serialize(std::span(wire).subspan(0, Ipv4Header::kSize));
  auto segment = std::span(wire).subspan(Ipv4Header::kSize);
  tcp.serialize(segment);
  for (std::size_t i = 0; i < payload_.size(); ++i) {
    segment[tcp.size() + i] = payload_[i];
  }
  const std::uint16_t sum = tcp_checksum(ip.src, ip.dst, segment);
  store_be16(segment.data() + 16, sum);
  return wire;
}

}  // namespace tcpdemux::net

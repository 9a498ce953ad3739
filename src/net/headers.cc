#include "net/headers.h"

#include <algorithm>

#include "net/byte_order.h"
#include "net/checksum.h"

namespace tcpdemux::net {

std::size_t Ipv4Header::serialize(std::span<std::uint8_t> out) const {
  out[0] = 0x45;  // version 4, IHL 5
  out[1] = dscp_ecn;
  store_be16(out.data() + 2, total_length);
  store_be16(out.data() + 4, identification);
  std::uint16_t frag = fragment_offset & 0x1fff;
  if (dont_fragment) frag |= 0x4000;
  if (more_fragments) frag |= 0x2000;
  store_be16(out.data() + 6, frag);
  out[8] = ttl;
  out[9] = protocol;
  store_be16(out.data() + 10, 0);  // checksum placeholder
  store_be32(out.data() + 12, src.value());
  store_be32(out.data() + 16, dst.value());
  const std::uint16_t sum = internet_checksum(out.subspan(0, kSize));
  store_be16(out.data() + 10, sum);
  return kSize;
}

std::optional<Ipv4Header> Ipv4Header::parse(
    std::span<const std::uint8_t> bytes) {
  if (bytes.size() < kSize) return std::nullopt;
  if ((bytes[0] >> 4) != 4) return std::nullopt;
  if ((bytes[0] & 0x0f) != 5) return std::nullopt;  // options unsupported
  if (!verify_checksum(bytes.subspan(0, kSize))) return std::nullopt;

  Ipv4Header h;
  h.dscp_ecn = bytes[1];
  h.total_length = load_be16(bytes.data() + 2);
  if (h.total_length < kSize || h.total_length > bytes.size()) {
    return std::nullopt;
  }
  h.identification = load_be16(bytes.data() + 4);
  const std::uint16_t frag = load_be16(bytes.data() + 6);
  h.dont_fragment = (frag & 0x4000) != 0;
  h.more_fragments = (frag & 0x2000) != 0;
  h.fragment_offset = frag & 0x1fff;
  h.ttl = bytes[8];
  h.protocol = bytes[9];
  h.src = Ipv4Addr(load_be32(bytes.data() + 12));
  h.dst = Ipv4Addr(load_be32(bytes.data() + 16));
  return h;
}

std::size_t TcpHeader::serialize(std::span<std::uint8_t> out) const {
  store_be16(out.data() + 0, src_port);
  store_be16(out.data() + 2, dst_port);
  store_be32(out.data() + 4, seq);
  store_be32(out.data() + 8, ack);
  const std::size_t data_offset_words = size() / 4;
  out[12] = static_cast<std::uint8_t>(data_offset_words << 4);
  out[13] = flags;
  store_be16(out.data() + 14, window);
  store_be16(out.data() + 16, 0);  // checksum patched by caller
  store_be16(out.data() + 18, urgent_pointer);
  std::copy(options.begin(), options.end(), out.begin() + kMinSize);
  return size();
}

std::optional<TcpHeader> TcpHeader::parse(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < kMinSize) return std::nullopt;
  const std::size_t data_offset =
      static_cast<std::size_t>(bytes[12] >> 4) * 4;
  if (data_offset < kMinSize || data_offset > bytes.size()) {
    return std::nullopt;
  }
  TcpHeader h;
  h.src_port = load_be16(bytes.data() + 0);
  h.dst_port = load_be16(bytes.data() + 2);
  h.seq = load_be32(bytes.data() + 4);
  h.ack = load_be32(bytes.data() + 8);
  h.flags = bytes[13];
  h.window = load_be16(bytes.data() + 14);
  h.urgent_pointer = load_be16(bytes.data() + 18);
  h.options = bytes.subspan(kMinSize, data_offset - kMinSize);
  return h;
}

std::string TcpHeader::flags_to_string() const {
  struct Named {
    TcpFlag flag;
    const char* name;
  };
  static constexpr Named kNames[] = {
      {TcpFlag::kFin, "FIN"}, {TcpFlag::kSyn, "SYN"}, {TcpFlag::kRst, "RST"},
      {TcpFlag::kPsh, "PSH"}, {TcpFlag::kAck, "ACK"}, {TcpFlag::kUrg, "URG"},
  };
  std::string out;
  for (const auto& [flag, name] : kNames) {
    if (has(flag)) {
      if (!out.empty()) out += '|';
      out += name;
    }
  }
  if (out.empty()) out = "none";
  return out;
}

}  // namespace tcpdemux::net

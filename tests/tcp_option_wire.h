// Option-bearing TCP/IPv4 datagrams for tests. PacketBuilder sets no TCP
// options (no receive-path caller needs one), so a test that wants a data
// offset above 5 builds the datagram as usual and passes it through
// with_tcp_options(), which splices the option bytes in behind the fixed
// TCP header and fixes the data offset, the IPv4 total length and both
// checksums.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "net/byte_order.h"
#include "net/checksum.h"
#include "net/headers.h"

namespace tcpdemux::net::test {

/// NOP, NOP, timestamps (TSval 0x01020304, TSecr 0x05060708): the 12 option
/// bytes every segment of a timestamped connection carries after the SYN.
inline constexpr std::array<std::uint8_t, 12> kTimestampOptions = {
    1, 1, 8, 10, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08};

/// MSS 1460, SACK permitted, timestamps, NOP, window scale 7: a 20-byte
/// SYN option block, which takes the data offset to 10 words.
inline constexpr std::array<std::uint8_t, 20> kSynOptions = {
    2, 4, 0x05, 0xb4, 4, 2, 8, 10, 0, 0, 0, 1, 0, 0, 0, 0, 1, 3, 3, 7};

/// Returns `datagram` (a valid option-free TCP/IPv4 datagram, e.g. from
/// PacketBuilder) with `options` (a multiple of 4 bytes) as its TCP options.
inline std::vector<std::uint8_t> with_tcp_options(
    std::span<const std::uint8_t> datagram,
    std::span<const std::uint8_t> options) {
  Ipv4Header ip = *Ipv4Header::parse(datagram);
  const auto old_segment = datagram.subspan(
      Ipv4Header::kSize, ip.total_length - Ipv4Header::kSize);
  TcpHeader tcp = *TcpHeader::parse(old_segment);
  const auto payload = old_segment.subspan(tcp.size());
  tcp.options = options;
  ip.total_length = static_cast<std::uint16_t>(Ipv4Header::kSize +
                                               tcp.size() + payload.size());

  std::vector<std::uint8_t> wire(ip.total_length);
  ip.serialize(wire);
  const auto segment = std::span(wire).subspan(Ipv4Header::kSize);
  tcp.serialize(segment);
  std::ranges::copy(payload, segment.begin() +
                                 static_cast<std::ptrdiff_t>(tcp.size()));
  store_be16(segment.data() + 16, tcp_checksum(ip.src, ip.dst, segment));
  return wire;
}

}  // namespace tcpdemux::net::test

// FlowKey: the 96-bit connection identity a TCP demultiplexer searches on.
//
// The paper (§1): "The algorithm does this by mapping the packet's source
// and destination Internet Protocol (IP) addresses and TCP ports to the
// proper PCB. Since the addresses and ports total 96 bits, simple indexing
// schemes are not feasible."
//
// Keys are expressed from the receiving host's point of view:
// (local addr, local port, foreign addr, foreign port). In the classic BSD
// PCB these are (inp_laddr, inp_lport, inp_faddr, inp_fport). Demuxers
// match keys exactly; listening sockets, whose keys would carry wildcards,
// are kept beside the demuxer by the socket tables.
#ifndef TCPDEMUX_NET_FLOW_KEY_H_
#define TCPDEMUX_NET_FLOW_KEY_H_

#include <compare>
#include <cstdint>
#include <functional>
#include <string>

#include "net/ip_addr.h"

namespace tcpdemux::net {

struct FlowKey {
  Ipv4Addr local_addr;
  std::uint16_t local_port = 0;
  Ipv4Addr foreign_addr;
  std::uint16_t foreign_port = 0;

  friend constexpr auto operator<=>(const FlowKey&,
                                    const FlowKey&) noexcept = default;

  /// True if every field is concrete (no wildcard address or port).
  [[nodiscard]] constexpr bool fully_specified() const noexcept {
    return !local_addr.is_any() && local_port != 0 &&
           !foreign_addr.is_any() && foreign_port != 0;
  }

  /// The same flow seen from the peer: local and foreign halves swapped.
  [[nodiscard]] constexpr FlowKey reversed() const noexcept {
    return FlowKey{foreign_addr, foreign_port, local_addr, local_port};
  }

  /// "10.0.0.1:5001 <- 10.9.8.7:40001"
  [[nodiscard]] std::string to_string() const;
};

}  // namespace tcpdemux::net

template <>
struct std::hash<tcpdemux::net::FlowKey> {
  std::size_t operator()(const tcpdemux::net::FlowKey& k) const noexcept {
    // 64-bit mix of all 96 key bits (splitmix64 finalizer).
    std::uint64_t x =
        (static_cast<std::uint64_t>(k.local_addr.value()) << 32) |
        k.foreign_addr.value();
    x ^= (static_cast<std::uint64_t>(k.local_port) << 16) | k.foreign_port;
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return static_cast<std::size_t>(x ^ (x >> 31));
  }
};

#endif  // TCPDEMUX_NET_FLOW_KEY_H_

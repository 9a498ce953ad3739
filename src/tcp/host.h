// Host: the complete receive pipeline — IPv4 reassembly in front of the
// socket table.
//
//   wire bytes -> Reassembler (fragments) -> SocketTable (demux + TCP)
//
// This is the composition a driver's input routine performs; the
// fragmented-query tests drive it end to end. Everything SocketTable
// exposes is reachable through table().
#ifndef TCPDEMUX_TCP_HOST_H_
#define TCPDEMUX_TCP_HOST_H_

#include <cstdint>
#include <span>
#include <vector>

#include "net/fragment.h"
#include "tcp/socket_table.h"

namespace tcpdemux::tcp {

class Host {
 public:
  Host(const core::DemuxConfig& demux_config,
       SocketTable::TransmitFn transmit,
       net::Reassembler::Options reassembly = {})
      : table_(demux_config, std::move(transmit)),
        reassembler_(reassembly) {}

  /// Receives raw bytes from the wire at time `now`. Fragments are held
  /// for reassembly; complete datagrams flow into the socket table. A whole
  /// datagram is parsed and checksummed in place, so `wire` is read during
  /// the call and never copied or kept.
  /// Returns the delivery result, or a kParseError-status result while a
  /// datagram is still incomplete (pending() tells the two apart).
  SocketTable::DeliverResult input(std::span<const std::uint8_t> wire,
                                   double now) {
    const auto datagram = reassembler_.offer(wire, now);
    if (!datagram.has_value()) return SocketTable::DeliverResult{};
    return table_.deliver_wire(*datagram);
  }

  /// Drops reassembly state older than the timeout (call periodically).
  std::size_t expire_fragments(double now) {
    return reassembler_.expire(now);
  }

  [[nodiscard]] SocketTable& table() noexcept { return table_; }
  [[nodiscard]] const SocketTable& table() const noexcept { return table_; }
  [[nodiscard]] std::size_t pending_fragments() const noexcept {
    return reassembler_.pending_datagrams();
  }

 private:
  SocketTable table_;
  net::Reassembler reassembler_;
};

}  // namespace tcpdemux::tcp

#endif  // TCPDEMUX_TCP_HOST_H_

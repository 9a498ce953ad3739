// LanHost: a complete simulated LAN endpoint — NIC framing, ARP
// resolution with an output hold queue, and the receive pipeline of a
// tcp::Host (IPv4 reassembly in front of the socket table).
//
//   frames in  -> ARP handling -> decapsulate -> Host::input
//   IPv4 out   -> ARP resolve (queue + request on miss) -> encapsulate
//
// This is the composition a real driver + stack performs, packaged so
// examples and integration tests can stand up switched-LAN topologies in
// a few lines (see examples/lan_simulation.cpp and tests/integration/
// lan_test.cc).
#ifndef TCPDEMUX_TCP_LAN_HOST_H_
#define TCPDEMUX_TCP_LAN_HOST_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <span>
#include <vector>

#include "net/arp.h"
#include "net/ethernet.h"
#include "tcp/host.h"
#include "tcp/socket_table.h"

namespace tcpdemux::tcp {

class LanHost {
 public:
  /// Transmits a frame onto the host's cable.
  using TransmitFn = std::function<void(std::vector<std::uint8_t> frame)>;
  /// Supplies the current simulation time (for ARP entry ageing).
  using ClockFn = std::function<double()>;

  LanHost(net::Ipv4Addr ip, const core::DemuxConfig& demux, ClockFn clock)
      : ip_(ip),
        mac_(net::MacAddr::from_ipv4(ip.value())),
        clock_(std::move(clock)),
        arp_(mac_, ip),
        host_(demux, [this](std::vector<std::uint8_t> wire,
                            const core::Pcb& pcb) {
          send_ipv4(pcb.key.foreign_addr, std::move(wire));
        }) {}

  /// Attaches the cable. Must be called before any traffic moves.
  void set_transmit(TransmitFn fn) { transmit_ = std::move(fn); }

  /// Frame arrival from the wire: ARP is answered and learned, queued
  /// datagrams unblocked, IPv4-for-us handed to the host's receive
  /// pipeline (fragments are reassembled there). The frame is only read,
  /// and only during the call.
  void receive_frame(std::span<const std::uint8_t> frame);

  /// Sends an IPv4 datagram toward `next_hop`, resolving its MAC first
  /// (datagrams wait in the hold queue behind an ARP request on a miss).
  void send_ipv4(net::Ipv4Addr next_hop, std::vector<std::uint8_t> datagram);

  [[nodiscard]] SocketTable& table() noexcept { return host_.table(); }
  [[nodiscard]] const SocketTable& table() const noexcept {
    return host_.table();
  }
  [[nodiscard]] const net::MacAddr& mac() const noexcept { return mac_; }
  [[nodiscard]] net::Ipv4Addr ip() const noexcept { return ip_; }
  [[nodiscard]] std::size_t arp_entries() const noexcept {
    return arp_.size();
  }
  [[nodiscard]] std::size_t pending() const noexcept {
    return pending_.size();
  }
  /// Held datagrams dropped because the hold queue was full.
  [[nodiscard]] std::uint64_t pending_dropped() const noexcept {
    return pending_dropped_;
  }

  /// Bound on the ARP hold queue, across all next hops. An IPv4 frame
  /// never teaches the ARP table, so every spoofed-source segment would
  /// otherwise leave its SYN-ACK or RST held forever; when full, the
  /// oldest held datagram is dropped (TCP retransmits what matters).
  static constexpr std::size_t kMaxPending = 256;

 private:
  void flush_pending();
  /// Drops the oldest held datagrams until the queue is within its bound.
  void trim_pending();

  struct Pending {
    net::Ipv4Addr next_hop;
    std::vector<std::uint8_t> datagram;
  };

  net::Ipv4Addr ip_;
  net::MacAddr mac_;
  ClockFn clock_;
  net::ArpTable arp_;
  Host host_;
  TransmitFn transmit_;
  std::deque<Pending> pending_;
  std::uint64_t pending_dropped_ = 0;
  bool flushing_ = false;
};

}  // namespace tcpdemux::tcp

#endif  // TCPDEMUX_TCP_LAN_HOST_H_

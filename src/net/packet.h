// A parsed TCP/IPv4 packet plus a builder for constructing valid wire bytes.
#ifndef TCPDEMUX_NET_PACKET_H_
#define TCPDEMUX_NET_PACKET_H_

#include <cstdint>
#include <optional>
#include <span>
#include <type_traits>
#include <vector>

#include "net/flow_key.h"
#include "net/headers.h"
#include "net/ip_addr.h"

namespace tcpdemux::net {

/// A fully parsed and checksum-verified TCP/IPv4 packet.
///
/// `payload` and `tcp.options` are views into the bytes given to parse(),
/// not copies: a Packet must not outlive them. On the receive path those
/// are the frame itself, or the Reassembler's buffer until its next
/// offer()/expire().
struct Packet {
  Ipv4Header ip;
  TcpHeader tcp;
  std::span<const std::uint8_t> payload;  ///< aliases the parsed datagram

  /// The demultiplexing key as seen by the packet's *receiver*: the
  /// packet's destination is the local half, its source the foreign half.
  [[nodiscard]] FlowKey receiver_flow_key() const noexcept {
    return FlowKey{ip.dst, tcp.dst_port, ip.src, tcp.src_port};
  }

  /// Parses and verifies a wire-format TCP/IPv4 packet. Fails on any IPv4
  /// parse failure, non-TCP protocol, fragmentation, TCP parse failure, or
  /// bad TCP checksum.
  [[nodiscard]] static std::optional<Packet> parse(
      std::span<const std::uint8_t> wire);
  /// A temporary buffer would die while the payload view still points in.
  static std::optional<Packet> parse(std::vector<std::uint8_t>&& wire) = delete;
};
static_assert(std::is_trivially_copyable_v<Packet>,
              "a Packet views its datagram and owns no memory");

/// Builds wire-format TCP/IPv4 packets with correct lengths and checksums.
///
///   auto wire = PacketBuilder()
///                   .from({Ipv4Addr(10,0,0,2), 40001})
///                   .to({Ipv4Addr(10,0,0,1), 5001})
///                   .seq(1000).ack_seq(2000)
///                   .flags(TcpFlag::kAck | TcpFlag::kPsh)
///                   .payload(query_bytes)
///                   .build();
class PacketBuilder {
 public:
  struct Endpoint {
    Ipv4Addr addr;
    std::uint16_t port = 0;
  };

  PacketBuilder& from(Endpoint src) noexcept {
    src_ = src;
    return *this;
  }
  PacketBuilder& to(Endpoint dst) noexcept {
    dst_ = dst;
    return *this;
  }
  PacketBuilder& seq(std::uint32_t s) noexcept {
    tcp_.seq = s;
    return *this;
  }
  PacketBuilder& ack_seq(std::uint32_t a) noexcept {
    tcp_.ack = a;
    tcp_.set(TcpFlag::kAck);
    return *this;
  }
  PacketBuilder& flags(std::uint8_t f) noexcept {
    tcp_.flags |= f;
    return *this;
  }
  PacketBuilder& flags(TcpFlag f) noexcept {
    tcp_.set(f);
    return *this;
  }
  PacketBuilder& window(std::uint16_t w) noexcept {
    tcp_.window = w;
    return *this;
  }
  PacketBuilder& ttl(std::uint8_t t) noexcept {
    ttl_ = t;
    return *this;
  }
  PacketBuilder& ip_id(std::uint16_t id) noexcept {
    ip_id_ = id;
    return *this;
  }
  PacketBuilder& payload(std::span<const std::uint8_t> bytes) {
    payload_.assign(bytes.begin(), bytes.end());
    return *this;
  }
  PacketBuilder& payload_size(std::size_t n) {
    payload_.assign(n, 0xab);
    return *this;
  }

  /// Serializes to wire bytes (IPv4 header, TCP header, payload) with both
  /// checksums computed.
  [[nodiscard]] std::vector<std::uint8_t> build() const;

 private:
  Endpoint src_;
  Endpoint dst_;
  TcpHeader tcp_;
  std::uint8_t ttl_ = 64;
  std::uint16_t ip_id_ = 0;
  std::vector<std::uint8_t> payload_;
};

}  // namespace tcpdemux::net

#endif  // TCPDEMUX_NET_PACKET_H_

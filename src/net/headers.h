// Wire-format IPv4 and TCP headers: typed representations plus
// parse/serialize to network byte order.
//
// Only the fields a demultiplexer and a minimal TCP machine need are modeled
// as first-class members; IPv4 options are rejected on parse (the simulated
// stack never emits them) and TCP options are a view of the segment's
// option bytes, so the data offset round-trips exactly and a parsed header
// owns no memory.
#ifndef TCPDEMUX_NET_HEADERS_H_
#define TCPDEMUX_NET_HEADERS_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <type_traits>

#include "net/ip_addr.h"

namespace tcpdemux::net {

/// TCP flag bits, matching their wire positions in the flags octet.
enum class TcpFlag : std::uint8_t {
  kFin = 0x01,
  kSyn = 0x02,
  kRst = 0x04,
  kPsh = 0x08,
  kAck = 0x10,
  kUrg = 0x20,
};

[[nodiscard]] constexpr std::uint8_t operator|(TcpFlag a, TcpFlag b) noexcept {
  return static_cast<std::uint8_t>(static_cast<std::uint8_t>(a) |
                                   static_cast<std::uint8_t>(b));
}
[[nodiscard]] constexpr std::uint8_t operator|(std::uint8_t a,
                                               TcpFlag b) noexcept {
  return static_cast<std::uint8_t>(a | static_cast<std::uint8_t>(b));
}

/// IPv4 header (20-byte, option-free form).
struct Ipv4Header {
  static constexpr std::size_t kSize = 20;

  std::uint8_t dscp_ecn = 0;
  std::uint16_t total_length = kSize;  ///< header + payload, bytes
  std::uint16_t identification = 0;
  bool dont_fragment = true;
  bool more_fragments = false;
  std::uint16_t fragment_offset = 0;  ///< in 8-byte units
  std::uint8_t ttl = 64;
  std::uint8_t protocol = 6;  ///< 6 = TCP
  Ipv4Addr src;
  Ipv4Addr dst;

  /// Serializes into `out` (must be >= kSize bytes) with a freshly computed
  /// header checksum. Returns bytes written.
  std::size_t serialize(std::span<std::uint8_t> out) const;

  /// Parses a header. Fails (nullopt) on: short buffer, version != 4,
  /// IHL != 5 (options unsupported), bad header checksum, or total_length
  /// smaller than the header or larger than the buffer.
  [[nodiscard]] static std::optional<Ipv4Header> parse(
      std::span<const std::uint8_t> bytes);
};

/// TCP header. `options` must be a multiple of 4 bytes (pre-padded). It is
/// a view: parse() points it into the segment, serialize() copies it out
/// (lifetime: see Packet).
struct TcpHeader {
  static constexpr std::size_t kMinSize = 20;
  static constexpr std::size_t kMaxSize = 60;

  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint32_t seq = 0;
  std::uint32_t ack = 0;
  std::uint8_t flags = 0;
  std::uint16_t window = 65535;
  std::uint16_t urgent_pointer = 0;
  std::span<const std::uint8_t> options;  ///< padded to 4-byte multiple

  [[nodiscard]] bool has(TcpFlag f) const noexcept {
    return (flags & static_cast<std::uint8_t>(f)) != 0;
  }
  void set(TcpFlag f) noexcept { flags |= static_cast<std::uint8_t>(f); }

  /// Header length in bytes (20 + options).
  [[nodiscard]] std::size_t size() const noexcept {
    return kMinSize + options.size();
  }

  /// Serializes the header into `out` (must be >= size() bytes) with the
  /// checksum field zeroed; the caller computes the TCP checksum over
  /// pseudo-header + header + payload and patches bytes 16..17.
  /// Returns bytes written.
  std::size_t serialize(std::span<std::uint8_t> out) const;

  /// Parses a header. Fails on: short buffer, data offset < 5 or beyond the
  /// buffer. Does not verify the checksum (that needs the pseudo-header;
  /// see Packet::parse).
  [[nodiscard]] static std::optional<TcpHeader> parse(
      std::span<const std::uint8_t> bytes);

  /// Human-readable flag string, e.g. "SYN|ACK".
  [[nodiscard]] std::string flags_to_string() const;
};
static_assert(std::is_trivially_copyable_v<TcpHeader>,
              "a parsed header views its segment; parse copies nothing");

}  // namespace tcpdemux::net

#endif  // TCPDEMUX_NET_HEADERS_H_

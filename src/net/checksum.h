// RFC 1071 Internet checksum, used by both the IPv4 header checksum and the
// TCP checksum (over pseudo-header + segment).
#ifndef TCPDEMUX_NET_CHECKSUM_H_
#define TCPDEMUX_NET_CHECKSUM_H_

#include <cstdint>
#include <span>

#include "net/ip_addr.h"

namespace tcpdemux::net {

/// Accumulates 16-bit one's-complement sums over arbitrary byte ranges.
///
/// The bytes are summed as native 32-bit words into 64-bit registers and
/// folded (and swapped to network order) once, in finish(): RFC 1071
/// §2(B) byte-order independence plus §2(C) deferred carries. The result is
/// bit-identical to a big-endian 16-bit word loop. Data may be fed in any
/// number of chunks; every chunk but the last must have even length (an
/// odd final byte is padded with zero per RFC 1071). One accumulator holds
/// up to 16 GiB before its register could overflow.
class ChecksumAccumulator {
 public:
  /// Adds a byte range to the running sum. If `bytes.size()` is odd the last
  /// byte is treated as the high octet of a zero-padded 16-bit word, so only
  /// the final chunk may legitimately have odd length.
  void add(std::span<const std::uint8_t> bytes) noexcept;

  /// Adds a single 16-bit word (host order value treated as one wire word).
  void add_word(std::uint16_t word) noexcept;

  /// Folds carries and returns the one's-complement checksum.
  [[nodiscard]] std::uint16_t finish() const noexcept;

 private:
  std::uint64_t sum_ = 0;  ///< native-order sum, carries not yet folded
};

/// One-shot checksum of a byte range.
[[nodiscard]] std::uint16_t internet_checksum(
    std::span<const std::uint8_t> bytes) noexcept;

/// TCP checksum: pseudo-header (src, dst, protocol 6, tcp_length) followed by
/// the TCP header + payload bytes in `segment`.
[[nodiscard]] std::uint16_t tcp_checksum(
    Ipv4Addr src, Ipv4Addr dst,
    std::span<const std::uint8_t> segment) noexcept;

/// True if `bytes` (which must embed its own checksum field) sums to the
/// all-ones pattern, i.e. verifies correctly.
[[nodiscard]] bool verify_checksum(std::span<const std::uint8_t> bytes) noexcept;

}  // namespace tcpdemux::net

#endif  // TCPDEMUX_NET_CHECKSUM_H_

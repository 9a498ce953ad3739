// IPv4 fragmentation and reassembly (RFC 791 §3.2).
//
// The demultiplexing fast path (Packet::parse) deliberately rejects
// fragments — a real receive path reassembles them first. This module
// provides both directions: splitting an IPv4 datagram into valid
// fragments for a given MTU, and a Reassembler that accepts fragments in
// any order, tolerates duplicates and overlaps (last writer wins), times
// out stale datagrams, and bounds its memory.
#ifndef TCPDEMUX_NET_FRAGMENT_H_
#define TCPDEMUX_NET_FRAGMENT_H_

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <vector>

#include "net/headers.h"

namespace tcpdemux::net {

/// Splits a wire-format IPv4 datagram into fragments whose total length
/// does not exceed `mtu`. Returns the datagram unchanged (one element) if
/// it already fits. Returns empty on: unparseable input, an MTU too small
/// to carry any payload (< header + 8), or a don't-fragment datagram that
/// does not fit.
[[nodiscard]] std::vector<std::vector<std::uint8_t>> fragment_packet(
    std::span<const std::uint8_t> wire, std::size_t mtu);

/// Reassembles IPv4 fragments into complete datagrams.
class Reassembler {
 public:
  struct Options {
    double timeout = 30.0;            ///< seconds a partial datagram lives
    std::size_t max_datagrams = 256;  ///< concurrent partial datagrams
    std::size_t max_bytes = 65535;    ///< per-datagram reassembly buffer
  };

  Reassembler() : Reassembler(Options()) {}
  explicit Reassembler(Options options) : options_(options) {}

  /// Offers one wire-format IPv4 packet at time `now` and returns a view of
  /// the datagram it completes, or nullopt.
  ///
  /// - A whole (unfragmented) datagram comes back as
  ///   `wire.subspan(0, total_length)`: no copy, valid as long as `wire`.
  /// - A fragment that completes its datagram returns the reassembled wire
  ///   bytes (header from the first fragment, offset 0, MF clear, checksum
  ///   recomputed). They live in one buffer this reassembler owns and stay
  ///   valid until the next offer() or expire() call; copy them to keep
  ///   them longer.
  std::optional<std::span<const std::uint8_t>> offer(
      std::span<const std::uint8_t> wire, double now);
  /// A temporary buffer would die before the returned view is used.
  std::optional<std::span<const std::uint8_t>> offer(
      std::vector<std::uint8_t>&& wire, double now) = delete;

  /// Discards partial datagrams older than the timeout. Returns how many
  /// were dropped. A reassembled view from offer() is not used past this.
  std::size_t expire(double now);

  [[nodiscard]] std::size_t pending_datagrams() const noexcept {
    return pending_.size();
  }

  /// Fragments rejected for any reason (parse failure, overflow, over
  /// capacity) — a real stack would bump a MIB counter.
  [[nodiscard]] std::uint64_t rejected() const noexcept { return rejected_; }

 private:
  struct DatagramKey {
    std::uint32_t src = 0;
    std::uint32_t dst = 0;
    std::uint16_t id = 0;
    std::uint8_t protocol = 0;
    friend auto operator<=>(const DatagramKey&,
                            const DatagramKey&) = default;
  };
  struct Partial {
    double first_seen = 0.0;
    /// The datagram being rebuilt: an IPv4 header slot, then the payload
    /// bytes by offset.
    std::vector<std::uint8_t> data =
        std::vector<std::uint8_t>(Ipv4Header::kSize);
    std::vector<bool> present;        ///< per-payload-byte fill map
    std::size_t total_length = 0;     ///< payload length; 0 until MF=0 seen
    std::optional<Ipv4Header> header; ///< from the offset-0 fragment
  };

  std::optional<std::span<const std::uint8_t>> try_complete(
      std::map<DatagramKey, Partial>::iterator it);

  Options options_;
  std::map<DatagramKey, Partial> pending_;
  std::vector<std::uint8_t> assembled_;  ///< the last completed datagram
  std::uint64_t rejected_ = 0;
};

}  // namespace tcpdemux::net

#endif  // TCPDEMUX_NET_FRAGMENT_H_

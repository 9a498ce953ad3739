// Frame streams for the receive-path benchmark.
//
// A Traffic object plays every client of one server host. It writes the
// IPv4/TCP frames those clients send into one contiguous buffer, and for
// each frame records what the host must do with it: the Delivery status,
// the PCB state and rcv_nxt afterwards, and what the server application
// does next (answer a query, close). The generator mirrors the server's
// sequence numbers itself, including the deterministic ISS that
// TcpMachine::next_iss() hands out per SYN, so a whole stream can be built
// before any of it is offered to the host and checked frame by frame.
//
// The stream has two parts: setup() emits the handshakes that establish
// the initial population, next() emits the timed traffic in chunks. Both
// are functions of the workload and the seed alone.
#ifndef RXBENCH_TRAFFIC_H_
#define RXBENCH_TRAFFIC_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "core/demuxer.h"
#include "core/pcb.h"
#include "net/flow_key.h"
#include "sim/rng.h"
#include "tcp/socket_table.h"

namespace rxbench {

using tcpdemux::core::SegmentKind;
using tcpdemux::core::TcpState;
using tcpdemux::net::FlowKey;
using Delivery = tcpdemux::tcp::SocketTable::Delivery;

/// What the server application does once the host has taken a frame.
enum class Action : std::uint8_t {
  kNone,
  kRespond,  ///< SocketTable::send_data(pcb, response bytes)
  kClose,    ///< SocketTable::close(pcb)
};

/// One frame of the stream and the outcome the generator expects.
struct FrameMeta {
  FlowKey key;                ///< receiver's view (local = server)
  std::uint32_t offset = 0;   ///< into FrameBatch::bytes
  std::uint16_t length = 0;   ///< wire bytes
  std::uint16_t response = 0; ///< bytes sent back for Action::kRespond
  std::uint32_t rcv_nxt = 0;  ///< the PCB's rcv_nxt after input
  std::uint32_t goodput = 0;  ///< in-sequence payload bytes delivered
  double time = 0.0;          ///< simulated arrival time, seconds
  Delivery status = Delivery::kDelivered;
  TcpState state = TcpState::kEstablished;  ///< the PCB's state after input
  SegmentKind kind = SegmentKind::kData;    ///< the lookup deliver() makes
  Action action = Action::kNone;
  bool tick = false;  ///< run the timers (accept, reap, expire) first
};

/// A run of frames in one contiguous buffer.
struct FrameBatch {
  std::vector<std::uint8_t> bytes;
  std::vector<FrameMeta> frames;

  void clear() {
    bytes.clear();
    frames.clear();
  }
  [[nodiscard]] std::span<const std::uint8_t> wire(const FrameMeta& f) const {
    return {bytes.data() + f.offset, f.length};
  }
};

class Traffic {
 public:
  /// The server every client talks to.
  static constexpr std::uint16_t kServerPort = 1521;

  virtual ~Traffic() = default;

  /// Handshakes (SYN, then the ACK that completes it) for the initial
  /// population. Call once, before next().
  virtual void setup(FrameBatch& out) = 0;

  /// Appends `frames` frames of timed traffic to `out`.
  virtual void next(FrameBatch& out, std::size_t frames) = 0;

  /// Connections the host holds once every frame emitted so far has been
  /// delivered and the timers have run.
  [[nodiscard]] virtual std::size_t live_connections() const = 0;

  /// Connections established by setup().
  [[nodiscard]] virtual std::size_t population() const = 0;

  /// Digest of every frame emitted so far: header bytes (whose TCP
  /// checksum covers the payload) and the expectations.
  [[nodiscard]] std::uint64_t fingerprint() const noexcept {
    return fingerprint_;
  }

  /// "oltp", "bulk" or "churn"; nullptr for any other name.
  [[nodiscard]] static std::unique_ptr<Traffic> make(std::string_view name,
                                                     std::uint64_t seed);

 protected:
  /// Client-side view of one connection.
  struct Conn {
    FlowKey key;
    std::uint32_t cli_seq = 0;  ///< client's next sequence number
    std::uint32_t srv_seq = 0;  ///< server's snd_nxt, as the client acks it
  };

  /// Writes one client->server segment and records its expectation.
  void put(FrameBatch& out, const Conn& conn, std::uint8_t flags,
           std::uint32_t seq, std::uint32_t payload_len, FrameMeta meta);

  /// The SYN that opens `conn` (parked in the SYN cache), with a random
  /// ISN; sets conn.cli_seq past it and conn.srv_seq to the server's
  /// predicted ISS + 1.
  void put_syn(FrameBatch& out, Conn& conn, double time, bool tick,
               tcpdemux::sim::Rng& rng);
  /// The ACK that completes the handshake (promotes the SYN-cache entry).
  void put_handshake_ack(FrameBatch& out, const Conn& conn, double time,
                         bool tick);

  /// SYN then handshake ACK for `conns`, in groups of eight with a timer
  /// tick between groups, so the accept queue and SYN cache stay short.
  void put_handshakes(FrameBatch& out, std::span<Conn> conns,
                      tcpdemux::sim::Rng& rng);

 private:
  /// Mirrors TcpMachine::next_iss(): 0x1000 + 64000 per SYN.
  std::uint32_t iss_ = 0x1000;
  std::uint64_t fingerprint_ = 0x9e3779b97f4a7c15ULL;
};

}  // namespace rxbench

#endif  // RXBENCH_TRAFFIC_H_

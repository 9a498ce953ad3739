// A minimal RFC 793 TCP state machine over core::Pcb.
//
// This is the substrate that makes the demultiplexers part of a working
// receive path rather than a bare data structure: the socket table
// demultiplexes an arriving segment to a PCB, then hands it here to run the
// connection state. Covered: three-way handshake (both directions),
// in-order data transfer with cumulative acknowledgements, duplicate-ACK
// generation for out-of-order segments, RST handling, and the full
// close sequence (FIN_WAIT_1/2, CLOSE_WAIT, LAST_ACK, CLOSING, TIME_WAIT).
// The machine keeps no timers. Loss recovery lives one layer up:
// SocketTable (with a clock installed) queues every data segment it
// transmits in its RetransmitQueue, samples RTTs from the ACKs, and
// re-sends on RTO expiry or the third duplicate ACK. Not modeled at all:
// reassembly queues, window scaling, congestion control dynamics — none of
// which affect demultiplexing.
#ifndef TCPDEMUX_TCP_TCP_MACHINE_H_
#define TCPDEMUX_TCP_TCP_MACHINE_H_

#include <cstdint>
#include <functional>

#include "core/pcb.h"
#include "net/headers.h"

namespace tcpdemux::tcp {

/// A segment the machine asks the host to transmit.
struct Emit {
  std::uint8_t flags = 0;
  std::uint32_t seq = 0;
  std::uint32_t ack = 0;
  std::uint32_t payload_len = 0;
};

class TcpMachine {
 public:
  /// `send` transmits an Emit on the given PCB's connection. It is invoked
  /// synchronously from within the processing functions.
  using SendFn = std::function<void(core::Pcb&, const Emit&)>;

  struct Options {
    /// RFC 1122 §4.2.3.2 delayed acknowledgements: ack every second
    /// in-order data segment instead of every one; the owed ACK for an
    /// odd segment is flushed by flush_delayed_acks() (the 200 ms timer)
    /// or piggybacked on the next transmission. Halves the pure-ACK
    /// traffic a bulk receiver generates — visible to the demultiplexer.
    bool delayed_ack = false;
  };

  explicit TcpMachine(SendFn send) : TcpMachine(std::move(send), Options()) {}
  TcpMachine(SendFn send, Options options)
      : send_(std::move(send)), options_(options) {}

  /// Emits the owed ACK, if any (the delayed-ack timer). Returns true if
  /// one was sent.
  bool flush_delayed_acks(core::Pcb& pcb);

  /// Active open: chooses an ISS, emits SYN, moves to SYN_SENT.
  void open_active(core::Pcb& pcb);

  /// Passive open of a child PCB for an arriving SYN (the socket table has
  /// already created the PCB with the peer's concrete flow key): records
  /// the peer's ISN, emits SYN|ACK, moves to SYN_RCVD.
  void open_passive(core::Pcb& pcb, const net::TcpHeader& syn);

  /// Queues application data for transmission: emits one data segment of
  /// `len` bytes and advances snd_nxt. Only legal in ESTABLISHED or
  /// CLOSE_WAIT.  Returns false otherwise.
  bool send_data(core::Pcb& pcb, std::uint32_t len);

  /// Application close: emits FIN and advances the state machine.
  /// Returns false if the state cannot close (e.g. already closing).
  bool close(core::Pcb& pcb);

  /// Runs the arrival processing for a segment already demultiplexed to
  /// `pcb`. `payload_len` is the number of data bytes the segment carries.
  void process(core::Pcb& pcb, const net::TcpHeader& seg,
               std::uint32_t payload_len);

  /// Next initial send sequence; deterministic for reproducible tests.
  [[nodiscard]] std::uint32_t next_iss() noexcept {
    iss_seq_ += 64000;
    return iss_seq_;
  }

 private:
  void emit(core::Pcb& pcb, std::uint8_t flags, std::uint32_t seq,
            std::uint32_t ack, std::uint32_t payload_len = 0);
  void emit_ack(core::Pcb& pcb);
  void process_ack(core::Pcb& pcb, const net::TcpHeader& seg);
  void process_data(core::Pcb& pcb, const net::TcpHeader& seg,
                    std::uint32_t payload_len);

  SendFn send_;
  Options options_;
  std::uint32_t iss_seq_ = 0x1000;
};

}  // namespace tcpdemux::tcp

#endif  // TCPDEMUX_TCP_TCP_MACHINE_H_

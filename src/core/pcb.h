// The protocol control block (PCB): per-connection TCP state.
//
// This is the object every demultiplexing algorithm in this library
// searches for. Its layout mirrors the classic BSD inpcb + tcpcb pair: the
// demultiplexing identity (the 96-bit flow key), list linkage owned by
// whichever demuxer holds the PCB, and the transport state the TCP machine
// (src/tcp) maintains. The paper's figure of merit — PCBs examined per
// lookup — is a memory-traffic surrogate because examining a PCB costs a
// memory reference: each one is exactly one 64-byte cache line (pinned
// below), and a million of them do not fit in an on-chip cache.
#ifndef TCPDEMUX_CORE_PCB_H_
#define TCPDEMUX_CORE_PCB_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "net/flow_key.h"

namespace tcpdemux::core {

/// RFC 793 connection states.
enum class TcpState : std::uint8_t {
  kClosed,
  kListen,
  kSynSent,
  kSynReceived,
  kEstablished,
  kFinWait1,
  kFinWait2,
  kCloseWait,
  kClosing,
  kLastAck,
  kTimeWait,
};

[[nodiscard]] std::string_view to_string(TcpState state) noexcept;

/// Protocol control block. Created and owned by a Demuxer, which draws it
/// from its PcbSlab (core/pcb_slab.h); the embedded list linkage (`next`)
/// belongs to the owning demuxer's PcbList and must not be touched by
/// other code.
struct Pcb {
  explicit Pcb(const net::FlowKey& k) noexcept : key(k) {}

  Pcb(const Pcb&) = delete;
  Pcb& operator=(const Pcb&) = delete;

  // --- demultiplexing identity -------------------------------------------
  net::FlowKey key;  ///< 16 B: two addresses, two ports, alignment padding

  // --- intrusive list linkage (owned by the demuxer) ----------------------
  Pcb* next = nullptr;

  // --- transport state (maintained by tcp::TcpMachine) --------------------
  std::uint32_t snd_una = 0;  ///< oldest unacknowledged sequence number
  std::uint32_t snd_nxt = 0;  ///< next sequence number to send
  std::uint32_t rcv_nxt = 0;  ///< next sequence number expected
  TcpState state = TcpState::kClosed;
  bool delack_pending = false;  ///< delayed ACK owed (TF_DELACK)
  std::uint16_t dupacks = 0;    ///< consecutive non-advancing ACKs (t_dupacks)

  // --- RTT / retransmission bookkeeping -----------------------------------
  std::uint32_t srtt_us = 0;
  std::uint32_t rttvar_us = 0;
  std::uint32_t rto_us = 1'000'000;
  /// Head of this connection's unacknowledged segments in the socket
  /// table's tcp::RetransmitQueue pool; 0 = nothing outstanding.
  std::uint32_t rtx = 0;

  /// Payload bytes delivered in order to the application.
  std::uint64_t bytes_in = 0;
};

// 64 B is one PcbSlab slot and one cache line, with no allocator header
// beside it: examining a PCB, or running the TCP fast path on it, touches
// exactly one line. One more byte would cost a second line per
// connection, so a new field must replace an existing one.
static_assert(sizeof(Pcb) == 64, "Pcb outgrew its one-line budget");
static_assert(offsetof(Pcb, key) == 0, "the key must open the line");
static_assert(offsetof(Pcb, next) + sizeof(Pcb*) <= 64,
              "a chain step must read only the PCB's line");
static_assert(offsetof(Pcb, snd_una) == 24 && offsetof(Pcb, state) == 36 &&
                  offsetof(Pcb, srtt_us) == 40 &&
                  offsetof(Pcb, bytes_in) == 56,
              "the transport state packs the rest of the line");

}  // namespace tcpdemux::core

#endif  // TCPDEMUX_CORE_PCB_H_

// The protocol control block (PCB): per-connection TCP state.
//
// This is the object every demultiplexing algorithm in this library
// searches for. Its layout mirrors the classic BSD inpcb + tcpcb pair: the
// demultiplexing identity (the 96-bit flow key), list linkage owned by
// whichever demuxer holds the PCB, and the transport state the TCP machine
// (src/tcp) maintains. The paper's figure of merit — PCBs examined per
// lookup — is a memory-traffic surrogate precisely because these objects
// take two cache lines each (128 bytes, pinned below) and thousands of
// them do not fit in an on-chip cache.
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
/// from its PcbSlab (core/pcb_slab.h); the embedded list linkage
/// (`next`/`prev`) belongs to the owning demuxer's PcbList and must not be
/// touched by other code.
struct Pcb {
  explicit Pcb(const net::FlowKey& k, std::uint64_t id) noexcept
      : key(k), conn_id(id) {}

  Pcb(const Pcb&) = delete;
  Pcb& operator=(const Pcb&) = delete;

  // --- demultiplexing identity -------------------------------------------
  net::FlowKey key;
  std::uint64_t conn_id = 0;  ///< dense id assigned at insert time

  // --- intrusive list linkage (owned by the demuxer) ----------------------
  Pcb* next = nullptr;
  Pcb* prev = nullptr;

  // --- transport state (maintained by tcp::TcpMachine) --------------------
  TcpState state = TcpState::kClosed;
  bool delack_pending = false;  ///< delayed ACK owed (TF_DELACK)
  std::uint32_t iss = 0;      ///< initial send sequence number
  std::uint32_t irs = 0;      ///< initial receive sequence number
  std::uint32_t snd_una = 0;  ///< oldest unacknowledged sequence number
  std::uint32_t snd_nxt = 0;  ///< next sequence number to send
  std::uint32_t rcv_nxt = 0;  ///< next sequence number expected
  std::uint16_t snd_wnd = 65535;
  std::uint16_t rcv_wnd = 65535;

  // --- RTT / congestion bookkeeping (gives the PCB its realistic bulk) ----
  std::uint32_t srtt_us = 0;
  std::uint32_t rttvar_us = 0;
  std::uint32_t cwnd = 4380;
  std::uint32_t ssthresh = 0xffffffff;
  std::uint32_t rto_us = 1'000'000;
  std::uint32_t dupacks = 0;  ///< consecutive non-advancing ACKs (t_dupacks)
  /// Head of this connection's unacknowledged segments in the socket
  /// table's tcp::RetransmitQueue pool; 0 = nothing outstanding.
  std::uint32_t rtx = 0;

  // --- counters ------------------------------------------------------------
  std::uint64_t segs_in = 0;
  std::uint64_t segs_out = 0;
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
};

// 128 B is one PcbSlab slot: two 64-byte lines, with no allocator header
// beside it. One more byte would cost a third line per connection. New
// fields go into padding or replace an existing one.
static_assert(sizeof(Pcb) == 128, "Pcb outgrew its 128-byte budget");
// Slots are line-aligned, so examining a PCB — comparing its key and
// following its chain link — reads exactly one line, as the paper's
// figure of merit assumes.
static_assert(offsetof(Pcb, key) == 0, "the key must open the first line");
static_assert(offsetof(Pcb, next) + sizeof(Pcb*) <= 64,
              "a chain step must read only the PCB's first line");

}  // namespace tcpdemux::core

#endif  // TCPDEMUX_CORE_PCB_H_

// SocketTable: a host's TCP receive path — demultiplexer + listening
// sockets + state machine — over real wire-format packets.
//
// This is the integration layer the paper's algorithms plug into. An
// arriving packet is parsed and checksum-verified, demultiplexed through
// the configured algorithm (counting examined PCBs), and processed by the
// TCP machine; SYNs that match no connection are matched against listening
// sockets, spawning new PCBs. Outbound segments are serialized with real
// checksums and handed to the caller's transmit function, and the
// demultiplexer's send-side cache is notified.
#ifndef TCPDEMUX_TCP_SOCKET_TABLE_H_
#define TCPDEMUX_TCP_SOCKET_TABLE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include <optional>

#include "core/demux_registry.h"
#include "core/demuxer.h"
#include "net/packet.h"
#include "tcp/retransmit_queue.h"
#include "tcp/syn_cache.h"
#include "tcp/tcp_machine.h"

namespace tcpdemux::tcp {

class SocketTable {
 public:
  /// Receives every outbound wire packet (IPv4 + TCP + payload, checksums
  /// valid). `pcb` is the connection it belongs to.
  using TransmitFn =
      std::function<void(std::vector<std::uint8_t> wire, const core::Pcb& pcb)>;

  enum class Delivery : std::uint8_t {
    kDelivered,      ///< matched an existing connection
    kNewConnection,  ///< SYN accepted by a listening socket (PCB created)
    kSynCached,      ///< SYN parked in the SYN cache; no PCB yet
    kReset,          ///< no match; RST transmitted
    kParseError,     ///< malformed or checksum-failed packet
  };

  struct DeliverResult {
    Delivery status = Delivery::kParseError;
    core::Pcb* pcb = nullptr;
    std::uint32_t pcbs_examined = 0;
  };

  /// Host-level counters a real stack would export as MIB variables.
  struct Counters {
    std::uint64_t delivered = 0;
    std::uint64_t new_connections = 0;
    std::uint64_t resets_sent = 0;
    std::uint64_t parse_errors = 0;
    std::uint64_t retransmissions = 0;
  };

  SocketTable(const core::DemuxConfig& demux_config, TransmitFn transmit);

  /// Opens a passive (listening) socket on addr:port. `addr` may be the
  /// wildcard 0.0.0.0. Returns false if an identical listener exists.
  bool listen(net::Ipv4Addr addr, std::uint16_t port);

  /// Active open to a remote endpoint; emits the SYN. Returns nullptr if
  /// the flow key is already in use.
  core::Pcb* connect(const net::FlowKey& key);

  /// Delivers a raw wire packet (as a NIC would).
  DeliverResult deliver_wire(std::span<const std::uint8_t> wire);

  /// Delivers an already-parsed packet.
  DeliverResult deliver(const net::Packet& packet);

  /// Sends `len` bytes of application data on `pcb`.
  bool send_data(core::Pcb& pcb, std::uint32_t len) {
    return machine_.send_data(pcb, len);
  }

  /// Application close (FIN).
  bool close(core::Pcb& pcb) { return machine_.close(pcb); }

  /// Pops the oldest connection that completed its passive handshake and
  /// has not been accepted yet (the BSD accept(2) queue). nullptr if none.
  [[nodiscard]] core::Pcb* accept();

  /// Connections waiting in the accept queue.
  [[nodiscard]] std::size_t accept_backlog() const noexcept {
    return accept_queue_.size();
  }

  /// Destroys a connection's PCB (e.g. after reaching CLOSED).
  bool erase(const net::FlowKey& key);

  // --- reliability (optional) ---------------------------------------------
  // When a clock is installed, data segments enter the connection's
  // retransmission queue (a FIFO in the table-wide pool, headed by
  // Pcb::rtx), cumulative ACKs produce RTT samples feeding the
  // PCB's RFC 6298 estimator (Karn's rule applied), and poll_retransmits()
  // re-emits segments whose RTO expired, backing the RTO off per timeout.

  /// Enables loss recovery. `clock` returns the current time in seconds.
  void set_clock(std::function<double()> clock) {
    clock_ = std::move(clock);
  }

  /// Retransmits every expired segment (call periodically, e.g. from an
  /// event-queue timer). Returns the number of segments re-sent.
  std::size_t poll_retransmits();

  /// Destroys PCBs whose connections have ended: CLOSED immediately,
  /// TIME_WAIT after 2*MSL (RFC 793 suggests MSL = 2 minutes; simulations
  /// pass something shorter). Requires a clock. Returns PCBs reaped.
  std::size_t reap_closed(double msl = 120.0);

  // --- SYN cache (optional) -------------------------------------------
  // When enabled, an arriving SYN for a listener is parked as a ~40-byte
  // embryonic entry instead of a full PCB; the handshake-completing ACK
  // promotes it. Protects the demuxer's table from SYN floods.

  void enable_syn_cache(SynCache::Options options = SynCache::Options()) {
    syn_cache_.emplace(options);
  }

  /// Drops embryonic entries older than the cache timeout.
  std::size_t expire_embryonic(double now) {
    return syn_cache_ ? syn_cache_->expire(now) : 0;
  }

  [[nodiscard]] const SynCache* syn_cache() const noexcept {
    return syn_cache_ ? &*syn_cache_ : nullptr;
  }

  /// Finds a connection without disturbing the demuxer's caches or stats
  /// (Demuxer::find, the ledger-free exact probe).
  [[nodiscard]] core::Pcb* find(const net::FlowKey& key) const {
    return demuxer_->find(key);
  }

  [[nodiscard]] core::Demuxer& demuxer() noexcept { return *demuxer_; }
  [[nodiscard]] const core::Demuxer& demuxer() const noexcept {
    return *demuxer_;
  }
  [[nodiscard]] std::size_t listener_count() const noexcept {
    return listeners_.size();
  }
  [[nodiscard]] const Counters& counters() const noexcept {
    return counters_;
  }
  [[nodiscard]] std::size_t connection_count() const noexcept {
    return demuxer_->size();
  }

 private:
  struct Listener {
    net::Ipv4Addr addr;  ///< may be wildcard
    std::uint16_t port;
  };

  /// Drops every reference the table holds to `pcb` (accept queue,
  /// retransmission and closing state), then destroys it in the demuxer.
  bool release(core::Pcb& pcb);
  void transmit_segment(core::Pcb& pcb, const Emit& emit);
  void transmit_rst(const net::Packet& packet);
  [[nodiscard]] const Listener* find_listener(
      const net::FlowKey& packet_key) const noexcept;
  void note_acked(core::Pcb& pcb);
  void retransmit_segment(core::Pcb& pcb,
                          const RetransmitQueue::Segment& segment);

  std::unique_ptr<core::Demuxer> demuxer_;
  std::vector<Listener> listeners_;
  TransmitFn transmit_;
  TcpMachine machine_;
  Counters counters_;
  std::deque<core::Pcb*> accept_queue_;
  std::function<double()> clock_;
  RetransmitQueue retransmit_;  ///< every connection's, reached via Pcb::rtx
  std::unordered_map<core::Pcb*, double> closing_since_;
  /// reap_closed()'s victims: cleared on every call, capacity kept.
  std::vector<core::Pcb*> reap_victims_;
  std::optional<SynCache> syn_cache_;
};

}  // namespace tcpdemux::tcp

#endif  // TCPDEMUX_TCP_SOCKET_TABLE_H_

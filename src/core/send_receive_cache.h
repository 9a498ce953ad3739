// Partridge & Pink's last-sent/last-received cache (paper §3.3).
//
// The BSD linear list augmented with *two* one-entry caches: the PCB of the
// last packet received and the PCB of the last packet sent. Probe order is
// segment-kind aware (footnote 5): data segments probe the receive-side
// cache first; pure acknowledgements probe the send-side cache first.
//
// The miss penalty is (N+5)/2 — both caches plus the (N+1)/2 average chain
// scan — which is why the algorithm converges to (slightly worse than) BSD
// as the TPC/A user count grows and packet trains disappear.
#ifndef TCPDEMUX_CORE_SEND_RECEIVE_CACHE_H_
#define TCPDEMUX_CORE_SEND_RECEIVE_CACHE_H_

#include "core/demuxer.h"
#include "core/pcb_list.h"
#include "core/pcb_slab.h"

namespace tcpdemux::core {

class SendReceiveCacheDemuxer final : public Demuxer {
 public:
  Pcb* insert(const net::FlowKey& key) override;
  bool erase(const net::FlowKey& key) override;
  using Demuxer::lookup;
  LookupResult lookup(const net::FlowKey& key, SegmentKind kind) override;
  void note_sent(Pcb* pcb) override { send_cache_ = pcb; }
  LookupResult lookup_wildcard(const net::FlowKey& key) override;
  [[nodiscard]] std::size_t size() const override { return size_; }
  void for_each_pcb(
      const std::function<void(const Pcb&)>& fn) const override;
  [[nodiscard]] std::string name() const override { return "srcache"; }
  [[nodiscard]] std::size_t memory_bytes() const override {
    return slab_.bytes() + sizeof(*this);
  }

  [[nodiscard]] const Pcb* receive_cached() const noexcept {
    return recv_cache_;
  }
  [[nodiscard]] const Pcb* send_cached() const noexcept { return send_cache_; }

 private:
  friend class StructuralValidator;   // src/core/validate.h
  friend struct ValidatorTestAccess;  // negative validator tests only

  /// Probes one cache slot; returns true on hit.
  static bool probe(Pcb* slot, const net::FlowKey& key,
                    LookupResult& r) noexcept;

  PcbList list_;
  Pcb* recv_cache_ = nullptr;
  Pcb* send_cache_ = nullptr;
  std::size_t size_ = 0;
  PcbSlab slab_;
};

}  // namespace tcpdemux::core

#endif  // TCPDEMUX_CORE_SEND_RECEIVE_CACHE_H_

// The 4.3BSD-Reno PCB lookup algorithm (paper §3.1).
//
// A single linear list of PCBs plus a one-entry cache holding the PCB last
// found. New PCBs are inserted at the head. Expected cost under uniformly
// random lookups over N connections: C(N) = 1 + (N²−1)/(2N)  (Equation 1),
// approaching N/2 — 1001 examined PCBs for a 2,000-user TPC/A run.
#ifndef TCPDEMUX_CORE_BSD_LIST_H_
#define TCPDEMUX_CORE_BSD_LIST_H_

#include "core/demuxer.h"
#include "core/pcb_list.h"
#include "core/pcb_slab.h"

namespace tcpdemux::core {

class BsdListDemuxer final : public Demuxer {
 public:
  Pcb* insert(const net::FlowKey& key) override;
  bool erase(const net::FlowKey& key) override;
  using Demuxer::lookup;
  LookupResult lookup(const net::FlowKey& key, SegmentKind kind) override;
  [[nodiscard]] Pcb* find(const net::FlowKey& key) const override {
    return list_.find_scan(key).pcb;
  }
  [[nodiscard]] std::size_t size() const override { return size_; }
  void for_each_pcb(
      const std::function<void(const Pcb&)>& fn) const override;
  [[nodiscard]] std::string name() const override { return "bsd"; }
  [[nodiscard]] std::size_t memory_bytes() const override {
    return slab_.bytes() + sizeof(*this);
  }

  /// The PCB currently held by the one-entry cache (test hook).
  [[nodiscard]] const Pcb* cached() const noexcept { return cache_; }

 private:
  friend class StructuralValidator;   // src/core/validate.h
  friend struct ValidatorTestAccess;  // negative validator tests only

  PcbList list_;
  Pcb* cache_ = nullptr;
  std::size_t size_ = 0;
  PcbSlab slab_;
};

}  // namespace tcpdemux::core

#endif  // TCPDEMUX_CORE_BSD_LIST_H_

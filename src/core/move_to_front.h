// Crowcroft's move-to-front PCB lookup (paper §3.2).
//
// A single linear list; whenever a PCB is found it is unlinked and relinked
// at the head. No cache (the head of the list *is* the cache). Under TPC/A
// this beats BSD on transport-level acknowledgements (the response-time
// window is short, so few other PCBs have jumped ahead) but is slightly
// worse than BSD on transaction entries; its worst case — deterministic
// think times, e.g. a central server polling point-of-sale terminals —
// scans the entire list every time.
#ifndef TCPDEMUX_CORE_MOVE_TO_FRONT_H_
#define TCPDEMUX_CORE_MOVE_TO_FRONT_H_

#include "core/demuxer.h"
#include "core/pcb_list.h"
#include "core/pcb_slab.h"

namespace tcpdemux::core {

class MoveToFrontDemuxer final : public Demuxer {
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
  [[nodiscard]] std::string name() const override { return "mtf"; }
  [[nodiscard]] std::size_t memory_bytes() const override {
    return slab_.bytes() + sizeof(*this);
  }

  /// Head of the list (test hook: most recently used PCB).
  [[nodiscard]] const Pcb* front() const noexcept { return list_.head(); }

 private:
  friend class StructuralValidator;   // src/core/validate.h
  friend struct ValidatorTestAccess;  // negative validator tests only

  PcbList list_;
  std::size_t size_ = 0;
  PcbSlab slab_;
};

}  // namespace tcpdemux::core

#endif  // TCPDEMUX_CORE_MOVE_TO_FRONT_H_

#include "core/move_to_front.h"

#include "core/fault_inject.h"

namespace tcpdemux::core {

Pcb* MoveToFrontDemuxer::insert(const net::FlowKey& key) {
  if (list_.find_scan(key).pcb != nullptr) return nullptr;
  if (FaultInjector::instance().poll_alloc()) return nullptr;
  Pcb* pcb = slab_.make(key);
  list_.link_front(pcb);
  ++size_;
  telemetry_->on_insert();
  return pcb;
}

bool MoveToFrontDemuxer::erase(const net::FlowKey& key) {
  const auto scan = list_.find_link(key);
  Pcb* const pcb = scan.pcb();
  if (pcb == nullptr) return false;
  list_.unlink(scan.link);
  slab_.destroy(pcb);
  --size_;
  telemetry_->on_erase();
  return true;
}

LookupResult MoveToFrontDemuxer::lookup(const net::FlowKey& key,
                                        SegmentKind /*kind*/) {
  LookupResult r;
  const auto scan = list_.find_link(key);
  r.examined = scan.examined;
  r.pcb = scan.pcb();
  // A hit on the head node is the MTF analogue of a cache hit.
  r.cache_hit = (r.pcb != nullptr && scan.examined == 1);
  if (r.pcb != nullptr) list_.move_to_front(scan.link);
  note_lookup(r);
  return r;
}

void MoveToFrontDemuxer::for_each_pcb(
    const std::function<void(const Pcb&)>& fn) const {
  list_.for_each(fn);
}

}  // namespace tcpdemux::core

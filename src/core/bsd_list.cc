#include "core/bsd_list.h"

#include "core/fault_inject.h"

namespace tcpdemux::core {

Pcb* BsdListDemuxer::insert(const net::FlowKey& key) {
  if (list_.find_scan(key).pcb != nullptr) return nullptr;
  if (FaultInjector::instance().poll_alloc()) return nullptr;
  Pcb* pcb = slab_.make(key);
  list_.link_front(pcb);
  ++size_;
  telemetry_->on_insert();
  return pcb;
}

bool BsdListDemuxer::erase(const net::FlowKey& key) {
  const auto scan = list_.find_link(key);
  Pcb* const pcb = scan.pcb();
  if (pcb == nullptr) return false;
  if (cache_ == pcb) cache_ = nullptr;
  list_.unlink(scan.link);
  slab_.destroy(pcb);
  --size_;
  telemetry_->on_erase();
  return true;
}

LookupResult BsdListDemuxer::lookup(const net::FlowKey& key,
                                    SegmentKind /*kind*/) {
  LookupResult r;
  if (cache_ != nullptr) {
    ++r.examined;
    if (cache_->key == key) {
      r.pcb = cache_;
      r.cache_hit = true;
      note_lookup(r);
      return r;
    }
  }
  const auto scan = list_.find_scan(key);
  r.examined += scan.examined;
  r.pcb = scan.pcb;
  if (scan.pcb != nullptr) cache_ = scan.pcb;
  note_lookup(r);
  return r;
}

void BsdListDemuxer::for_each_pcb(
    const std::function<void(const Pcb&)>& fn) const {
  list_.for_each(fn);
}

}  // namespace tcpdemux::core

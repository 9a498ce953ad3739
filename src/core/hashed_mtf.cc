#include "core/hashed_mtf.h"

#include "core/fault_inject.h"

#include <stdexcept>

namespace tcpdemux::core {

HashedMtfDemuxer::HashedMtfDemuxer(Options options) : options_(options) {
  if (options_.chains == 0) {
    throw std::invalid_argument("HashedMtfDemuxer: chain count must be >= 1");
  }
  buckets_.resize(options_.chains);
}

Pcb* HashedMtfDemuxer::insert(const net::FlowKey& key) {
  PcbList& list = buckets_[chain_of(key)];
  if (list.find_scan(key).pcb != nullptr) return nullptr;
  if (FaultInjector::instance().poll_alloc()) return nullptr;
  Pcb* pcb = slab_.make(key);
  list.link_front(pcb);
  ++size_;
  telemetry_->on_insert();
  return pcb;
}

bool HashedMtfDemuxer::erase(const net::FlowKey& key) {
  PcbList& list = buckets_[chain_of(key)];
  const auto scan = list.find_link(key);
  Pcb* const pcb = scan.pcb();
  if (pcb == nullptr) return false;
  list.unlink(scan.link);
  slab_.destroy(pcb);
  --size_;
  telemetry_->on_erase();
  return true;
}

LookupResult HashedMtfDemuxer::lookup(const net::FlowKey& key,
                                      SegmentKind /*kind*/) {
  PcbList& list = buckets_[chain_of(key)];
  LookupResult r;
  const auto scan = list.find_link(key);
  r.examined = scan.examined;
  r.pcb = scan.pcb();
  r.cache_hit = (r.pcb != nullptr && scan.examined == 1);
  if (r.pcb != nullptr) list.move_to_front(scan.link);
  note_lookup(r);
  return r;
}

void HashedMtfDemuxer::for_each_pcb(
    const std::function<void(const Pcb&)>& fn) const {
  for (const PcbList& list : buckets_) {
    list.for_each(fn);
  }
}

std::string HashedMtfDemuxer::name() const {
  std::string n = "hashed_mtf(h=";
  n += std::to_string(options_.chains);
  n += ',';
  n += net::hasher_name(options_.hasher);
  n += ')';
  return n;
}

}  // namespace tcpdemux::core

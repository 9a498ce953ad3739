#include "core/connection_id.h"

#include "core/fault_inject.h"

#include <stdexcept>

namespace tcpdemux::core {

ConnectionIdDemuxer::ConnectionIdDemuxer(std::size_t capacity)
    : capacity_(capacity), slots_(capacity) {
  if (capacity == 0) {
    throw std::invalid_argument("ConnectionIdDemuxer: capacity must be >= 1");
  }
  free_ids_.reserve(capacity);
  for (std::size_t i = capacity; i-- > 0;) {
    free_ids_.push_back(static_cast<std::uint32_t>(i));
  }
}

Pcb* ConnectionIdDemuxer::insert(const net::FlowKey& key) {
  if (id_by_key_.contains(key)) return nullptr;
  if (free_ids_.empty()) return nullptr;  // ID space exhausted
  if (FaultInjector::instance().poll_alloc()) return nullptr;
  const std::uint32_t id = free_ids_.back();
  free_ids_.pop_back();
  slots_[id] = slab_.make(key);
  id_by_key_.emplace(key, id);
  telemetry_->on_insert();
  return slots_[id];
}

bool ConnectionIdDemuxer::erase(const net::FlowKey& key) {
  const auto it = id_by_key_.find(key);
  if (it == id_by_key_.end()) return false;
  const std::uint32_t id = it->second;
  slab_.destroy(slots_[id]);
  slots_[id] = nullptr;
  free_ids_.push_back(id);
  id_by_key_.erase(it);
  telemetry_->on_erase();
  return true;
}

LookupResult ConnectionIdDemuxer::lookup(const net::FlowKey& key,
                                         SegmentKind /*kind*/) {
  // One examined PCB: the single array slot the carried ID indexes.
  const LookupResult r{find(key), 1, false};
  note_lookup(r);
  return r;
}

Pcb* ConnectionIdDemuxer::find(const net::FlowKey& key) const {
  const auto it = id_by_key_.find(key);
  return it == id_by_key_.end() ? nullptr : slots_[it->second];
}

Pcb* ConnectionIdDemuxer::lookup_by_id(std::uint32_t id) const noexcept {
  if (id >= capacity_) return nullptr;
  return slots_[id];
}

void ConnectionIdDemuxer::for_each_pcb(
    const std::function<void(const Pcb&)>& fn) const {
  for (const Pcb* slot : slots_) {
    if (slot != nullptr) fn(*slot);
  }
}

}  // namespace tcpdemux::core

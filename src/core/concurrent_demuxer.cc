#include "core/concurrent_demuxer.h"

#include <stdexcept>

namespace tcpdemux::core {

ConcurrentSequentDemuxer::ConcurrentSequentDemuxer(Options options)
    : options_(options) {
  if (options_.chains == 0) {
    throw std::invalid_argument(
        "ConcurrentSequentDemuxer: chain count must be >= 1");
  }
  buckets_.reserve(options_.chains);
  for (std::uint32_t i = 0; i < options_.chains; ++i) {
    buckets_.push_back(std::make_unique<Bucket>());
  }
}

Pcb* ConcurrentSequentDemuxer::insert(const net::FlowKey& key) {
  Bucket& b = *buckets_[chain_of(key)];
  const MutexLock lock(b.mutex);
  if (b.list.find_scan(key).pcb != nullptr) return nullptr;
  Pcb* pcb = nullptr;
  {
    const MutexLock slab_lock(slab_mutex_);
    pcb = slab_.make(key);
  }
  b.list.link_front(pcb);
  size_.fetch_add(1, std::memory_order_relaxed);
  return pcb;
}

bool ConcurrentSequentDemuxer::erase(const net::FlowKey& key) {
  Bucket& b = *buckets_[chain_of(key)];
  const MutexLock lock(b.mutex);
  const auto scan = b.list.find_link(key);
  Pcb* const pcb = scan.pcb();
  if (pcb == nullptr) return false;
  if (b.cache == pcb) b.cache = nullptr;
  b.list.unlink(scan.link);
  {
    const MutexLock slab_lock(slab_mutex_);
    slab_.destroy(pcb);
  }
  size_.fetch_sub(1, std::memory_order_relaxed);
  return true;
}

LookupResult ConcurrentSequentDemuxer::lookup(const net::FlowKey& key,
                                              SegmentKind /*kind*/) {
  Bucket& b = *buckets_[chain_of(key)];
  LookupResult r;
  {
    const MutexLock lock(b.mutex);
    if (options_.per_chain_cache && b.cache != nullptr) {
      ++r.examined;
      if (b.cache->key == key) {
        r.pcb = b.cache;
        r.cache_hit = true;
      }
    }
    if (r.pcb == nullptr) {
      const auto scan = b.list.find_scan(key);
      r.examined += scan.examined;
      r.pcb = scan.pcb;
      if (options_.per_chain_cache && scan.pcb != nullptr) {
        b.cache = scan.pcb;
      }
    }
  }
  lookups_.fetch_add(1, std::memory_order_relaxed);
  examined_.fetch_add(r.examined, std::memory_order_relaxed);
  return r;
}

std::string ConcurrentSequentDemuxer::name() const {
  return "concurrent_sequent(h=" + std::to_string(options_.chains) + "," +
         std::string(net::hasher_name(options_.hasher)) + ")";
}

}  // namespace tcpdemux::core

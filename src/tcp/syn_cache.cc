#include "tcp/syn_cache.h"

#include <stdexcept>

#include "core/fault_inject.h"

namespace tcpdemux::tcp {

SynCache::SynCache(Options options) : options_(options) {
  if (options_.buckets == 0 || options_.bucket_limit == 0) {
    throw std::invalid_argument("SynCache: buckets and limit must be >= 1");
  }
  buckets_.resize(options_.buckets);
}

const SynCache::Entry* SynCache::add(const net::FlowKey& key,
                                     std::uint32_t irs, std::uint32_t iss,
                                     double now) {
  Bucket& bucket = bucket_of(key);
  for (const Entry& e : bucket) {
    if (e.key == key) {
      ++stats_.duplicates;
      return &e;
    }
  }
  if (core::FaultInjector::instance().poll_alloc()) {
    // Allocation pressure gets the same answer as the global cap: the
    // globally oldest embryo is the least defensible ~40 bytes in the
    // cache, so shed it to free room and retry the admission once. A
    // persistent failure (or an already-empty cache) still refuses — but
    // a transient one must not, or a memory spike silently disables the
    // handshake path while old embryos sit on the budget.
    ++stats_.alloc_failed;
    if (size_ == 0) return nullptr;
    shed_oldest();
    if (core::FaultInjector::instance().poll_alloc()) {
      ++stats_.alloc_failed;
      return nullptr;
    }
  }
  if (options_.max_entries != 0 && size_ >= options_.max_entries) {
    shed_oldest();
  }
  if (bucket.size() >= options_.bucket_limit) {
    bucket.pop_front();  // evict the oldest embryo in this bucket
    --size_;
    ++stats_.evicted;
  }
  bucket.push_back(Entry{key, irs, iss, now});
  ++size_;
  ++stats_.added;
  return &bucket.back();
}

void SynCache::shed_oldest() {
  // Embryos are in arrival order within each bucket, so the globally
  // oldest is some bucket's front. One scan over bucket heads — H is
  // small and this only runs at the cap, i.e. already under attack.
  Bucket* victim = nullptr;
  for (Bucket& b : buckets_) {
    if (b.empty()) continue;
    if (victim == nullptr || b.front().created < victim->front().created) {
      victim = &b;
    }
  }
  if (victim == nullptr) return;  // cap is 0-sized relative to occupancy
  victim->pop_front();
  --size_;
  ++stats_.shed;
}

const SynCache::Entry* SynCache::find(const net::FlowKey& key) const {
  for (const Entry& e : bucket_of(key)) {
    if (e.key == key) return &e;
  }
  return nullptr;
}

bool SynCache::take(const net::FlowKey& key, Entry* out) {
  Bucket& bucket = bucket_of(key);
  for (auto it = bucket.begin(); it != bucket.end(); ++it) {
    if (it->key == key) {
      if (out != nullptr) *out = *it;
      bucket.erase(it);
      --size_;
      ++stats_.promoted;
      return true;
    }
  }
  return false;
}

std::size_t SynCache::expire(double now) {
  std::size_t dropped = 0;
  for (Bucket& bucket : buckets_) {
    // Entries are in arrival order, so expired ones cluster at the front.
    while (!bucket.empty() &&
           now - bucket.front().created > options_.timeout) {
      bucket.pop_front();
      --size_;
      ++dropped;
    }
  }
  stats_.expired += dropped;
  return dropped;
}

}  // namespace tcpdemux::tcp

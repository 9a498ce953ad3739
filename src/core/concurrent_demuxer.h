// Thread-safe PCB lookup with per-chain lock striping.
//
// The paper's algorithm was built for Sequent's *parallel* TCP [Dov90,
// Gar90]: on a shared-memory multiprocessor, hashing does double duty —
// it shortens scans AND partitions the lock. ConcurrentSequentDemuxer
// guards each chain (list + its one-entry cache) with its own mutex, so
// packets for different chains demultiplex fully in parallel;
// GloballyLockedDemuxer wraps any single-threaded algorithm behind one
// mutex as the contention baseline (what a naive parallel port of the BSD
// list would do). wallclock_parallel measures the difference.
//
// Concurrency contract: insert/erase/lookup/size/stats may be called from
// any thread. A Pcb* returned by lookup remains valid until some thread
// erases that key; callers coordinate erasure with use, exactly as a
// kernel does with PCB reference counting (out of scope here).
#ifndef TCPDEMUX_CORE_CONCURRENT_DEMUXER_H_
#define TCPDEMUX_CORE_CONCURRENT_DEMUXER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/demuxer.h"
#include "core/pcb_list.h"
#include "core/pcb_slab.h"
#include "core/thread_annotations.h"
#include "net/hashers.h"

namespace tcpdemux::core {

/// Lock-striped variant of the Sequent algorithm.
class ConcurrentSequentDemuxer {
 public:
  struct Options {
    std::uint32_t chains = 19;
    net::HasherKind hasher = net::HasherKind::kXorFold;
    bool per_chain_cache = true;
  };

  ConcurrentSequentDemuxer() : ConcurrentSequentDemuxer(Options()) {}
  explicit ConcurrentSequentDemuxer(Options options);

  Pcb* insert(const net::FlowKey& key);
  bool erase(const net::FlowKey& key);
  LookupResult lookup(const net::FlowKey& key,
                      SegmentKind kind = SegmentKind::kData);

  [[nodiscard]] std::size_t size() const noexcept {
    return size_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t lookups() const noexcept {
    return lookups_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t pcbs_examined() const noexcept {
    return examined_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::string name() const;
  [[nodiscard]] std::uint32_t chains() const noexcept {
    return options_.chains;
  }

 private:
  struct alignas(64) Bucket {  // avoid false sharing between chains
    Mutex mutex;
    PcbList list GUARDED_BY(mutex);
    Pcb* cache GUARDED_BY(mutex) = nullptr;
  };

  [[nodiscard]] std::uint32_t chain_of(const net::FlowKey& key) const noexcept {
    return net::hash_chain(options_.hasher, key, options_.chains);
  }

  Options options_;
  std::vector<std::unique_ptr<Bucket>> buckets_;
  /// One slab for every chain. insert/erase take its mutex while holding
  /// their bucket's (lock order: bucket, then slab); lookup never does.
  Mutex slab_mutex_;
  PcbSlab slab_ GUARDED_BY(slab_mutex_);
  std::atomic<std::size_t> size_{0};
  std::atomic<std::uint64_t> lookups_{0};
  std::atomic<std::uint64_t> examined_{0};
};

/// Any single-threaded demuxer behind one big lock — the baseline a naive
/// SMP port would use.
class GloballyLockedDemuxer {
 public:
  explicit GloballyLockedDemuxer(std::unique_ptr<Demuxer> inner)
      : inner_(std::move(inner)) {}

  Pcb* insert(const net::FlowKey& key) {
    const MutexLock lock(mutex_);
    return inner_->insert(key);
  }
  bool erase(const net::FlowKey& key) {
    const MutexLock lock(mutex_);
    return inner_->erase(key);
  }
  LookupResult lookup(const net::FlowKey& key,
                      SegmentKind kind = SegmentKind::kData) {
    const MutexLock lock(mutex_);
    return inner_->lookup(key, kind);
  }
  [[nodiscard]] std::size_t size() const {
    const MutexLock lock(mutex_);
    return inner_->size();
  }
  [[nodiscard]] std::string name() const {
    const MutexLock lock(mutex_);
    return "locked(" + inner_->name() + ")";
  }

 private:
  mutable Mutex mutex_;
  std::unique_ptr<Demuxer> inner_ GUARDED_BY(mutex_);
};

}  // namespace tcpdemux::core

#endif  // TCPDEMUX_CORE_CONCURRENT_DEMUXER_H_

#include "core/sequent_hash.h"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <utility>

#include "core/fault_inject.h"
#include "core/prefetch.h"

namespace tcpdemux::core {
namespace {

// Primes that roughly double; the ladder a kernel hashtable would bake in.
constexpr std::array<std::uint32_t, 20> kPrimes = {
    19,    41,    83,     167,    337,    673,    1361,
    2729,  5471,  10949,  21911,  43853,  87719,  175447,
    350899, 701819, 1403641, 2807303, 5614657, 11229331};

/// Polls the fault injector, then runs `alloc`, which may throw
/// std::bad_alloc and must touch nothing live. False on a refusal,
/// injected or real.
template <class Alloc>
bool try_alloc(Alloc alloc) {
  if (FaultInjector::instance().poll_alloc()) return false;
  try {
    alloc();
  } catch (const std::bad_alloc&) {
    return false;
  }
  return true;
}

}  // namespace

std::uint32_t SequentDemuxer::next_table_size(std::uint32_t n) noexcept {
  for (const std::uint32_t p : kPrimes) {
    if (p >= 2 * n) return p;
  }
  return kPrimes.back();
}

SequentDemuxer::SequentDemuxer(Options options) : options_(options) {
  if (options_.chains == 0) {
    throw std::invalid_argument("SequentDemuxer: chain count must be >= 1");
  }
  if (options_.grow && options_.max_load <= 0.0) {
    throw std::invalid_argument("SequentDemuxer: max_load must be > 0");
  }
  buckets_.resize(options_.chains);
}

Pcb* SequentDemuxer::insert(const net::FlowKey& key) {
  Bucket* b = &buckets_[chain_of(key)];
  const auto scan = b->list.find_scan(key);
  if (scan.pcb != nullptr) return nullptr;
  // The miss walked the whole chain, so the chain's length once this PCB
  // is linked — the watermark's signal — is already known.
  std::uint64_t chain_length = scan.examined + 1;
  if (old_ != nullptr &&
      old_->table[chain_in(old_->table, key)].list.find_scan(key).pcb !=
          nullptr) {
    return nullptr;
  }
  if (options_.max_pcbs != 0 && size_ >= options_.max_pcbs) {
    telemetry_->on_shed();
    return nullptr;
  }
  if (FaultInjector::instance().poll_alloc()) return nullptr;
  // Ladder rung 2: growth is allocation-blocked and mean load has reached
  // twice the growth trigger — shed rather than let chains degrade toward
  // the linear scan the paper set out to kill. The refused attempt still
  // runs maybe_grow() first: at this load the growth trigger is long
  // past, so each shed burns down the backoff and eventually retries the
  // doubling. Without it a table wedged at the watermark would stay
  // blocked forever (no insert succeeds, so the post-insert maybe_grow
  // never runs again).
  if (sheds_at_load()) {
    maybe_grow();
    if (blocked_) {
      telemetry_->on_shed();
      return nullptr;
    }
    b = &buckets_[chain_of(key)];  // a new table was swung in
    chain_length = b->list.count() + 1;
  }
  Pcb* pcb = slab_.make(key);
  b->list.link_front(pcb);
  ++size_;
  telemetry_->on_insert();
  note_insert(chain_length);
  return pcb;
}

void SequentDemuxer::note_insert(std::uint64_t chain_length) {
  watermark_ = std::max(watermark_, chain_length);
  ++since_rotation_;
  if (options_.rehash_on_overload && watermark_ > watermark_limit() &&
      since_rotation_ >= cooldown_) {
    rotate_seed();
  }
  if (options_.grow) maybe_grow();
  if (old_ != nullptr) [[unlikely]] {
    migrate_batch(kMigrateBatch);
  }
}

void SequentDemuxer::maybe_grow() {
  if (static_cast<double>(size_) <=
      options_.max_load * static_cast<double>(buckets_.size())) {
    return;
  }
  if (next_table_size(chains()) <= chains()) return;  // ladder exhausted
  finish_migration();
  if (blocked_ && retry_in_ > 0) {
    --retry_in_;
    return;
  }
  start_migration();
}

void SequentDemuxer::start_migration() {
  std::unique_ptr<Outgoing> old;
  Table fresh;
  if (!try_alloc([&] {
        old = std::make_unique<Outgoing>();
        fresh = Table(next_table_size(chains()));
      })) {
    blocked_ = true;
    backoff_ = backoff_ == 0 ? kGrowBackoffMin
                             : std::min(backoff_ * 2, kGrowBackoffMax);
    retry_in_ = backoff_;
    telemetry_->on_resize_defer();
    return;
  }
  old->table = std::move(buckets_);
  old->residents = size_;
  buckets_ = std::move(fresh);
  old_ = std::move(old);
  blocked_ = false;
  backoff_ = 0;
  retry_in_ = 0;
  telemetry_->on_resize_start();
}

void SequentDemuxer::rotate_seed() {
  finish_migration();
  since_rotation_ = 0;
  const std::uint64_t backoff = 2 * cooldown_;
  cooldown_ = watermark_limit();
  Outgoing old;
  if (!try_alloc([&] { old.table = Table(chains()); })) return;
  options_.hasher.seed = net::next_seed(options_.hasher.seed);
  std::swap(old.table, buckets_);
  old.residents = size_;
  sweep(old);
  watermark_ = 0;
  for (const Bucket& b : buckets_) {
    watermark_ = std::max<std::uint64_t>(watermark_, b.list.count());
  }
  if (watermark_ > watermark_limit()) {
    cooldown_ = std::max(backoff, cooldown_);
  }
  telemetry_->on_rehash();
}

bool SequentDemuxer::migrate_unit(Table& old, std::size_t c) {
  Bucket& ob = old[c];
  Pcb* pcb = ob.list.pop_front();
  if (pcb == nullptr) return false;
  // Nothing is ever inserted into the outgoing chains, so the cache can
  // only reference old residents; draining the bucket retires it.
  ob.cache = nullptr;
  buckets_[chain_of(pcb->key)].list.link_front(pcb);
  return true;
}

void SequentDemuxer::migrate_batch(std::size_t budget) {
  if (old_ == nullptr) return;
  Outgoing& old = *old_;
  std::size_t moved = 0;
  std::size_t scanned = 0;
  const std::size_t scan_budget = budget * kMigrateScanFactor;
  while (moved < budget && old.residents > 0) {
    if (!migrate_unit(old.table, old.cursor)) {
      ++old.cursor;
      if (++scanned >= scan_budget) break;
      continue;
    }
    --old.residents;
    ++moved;
  }
  telemetry_->on_resize_step(moved, old.residents);
  if (old.residents == 0) complete_migration();
}

void SequentDemuxer::sweep(Outgoing& old) {
  while (old.residents > 0) {
    if (migrate_unit(old.table, old.cursor)) {
      --old.residents;
    } else {
      ++old.cursor;
    }
  }
}

void SequentDemuxer::finish_migration() {
  if (old_ == nullptr) return;
  const std::size_t moved = old_->residents;
  sweep(*old_);
  telemetry_->on_resize_step(moved, 0);
  complete_migration();
}

void SequentDemuxer::complete_migration() {
  old_.reset();
  telemetry_->on_resize_complete();
}

bool SequentDemuxer::migration_step() {
  migrate_batch(kMigrateBatch);
  return old_ != nullptr;
}

bool SequentDemuxer::erase(const net::FlowKey& key) {
  Bucket& b = buckets_[chain_of(key)];
  const auto scan = b.list.find_link(key);
  if (Pcb* const pcb = scan.pcb()) {
    if (b.cache == pcb) b.cache = nullptr;
    b.list.unlink(scan.link);
    slab_.destroy(pcb);
  } else {
    if (old_ == nullptr) return false;
    Bucket& ob = old_->table[chain_in(old_->table, key)];
    const auto old_scan = ob.list.find_link(key);
    Pcb* const old_pcb = old_scan.pcb();
    if (old_pcb == nullptr) return false;
    if (ob.cache == old_pcb) ob.cache = nullptr;
    ob.list.unlink(old_scan.link);
    slab_.destroy(old_pcb);
    if (--old_->residents == 0) complete_migration();
  }
  --size_;
  telemetry_->on_erase();
  if (old_ != nullptr) [[unlikely]] {
    migrate_batch(kMigrateBatch);
  }
  return true;
}

LookupResult SequentDemuxer::lookup_in_bucket(Bucket& b,
                                              const net::FlowKey& key) {
  LookupResult r;
  if (options_.per_chain_cache && b.cache != nullptr) {
    ++r.examined;
    if (b.cache->key == key) {
      r.pcb = b.cache;
      r.cache_hit = true;
      return r;
    }
  }
  const auto scan = b.list.find_scan(key);
  r.examined += scan.examined;
  r.pcb = scan.pcb;
  if (options_.per_chain_cache && scan.pcb != nullptr) b.cache = scan.pcb;
  return r;
}

void SequentDemuxer::lookup_outgoing(const net::FlowKey& key,
                                     LookupResult& r) {
  if (r.pcb == nullptr) {
    Table& old = old_->table;
    Bucket& ob = old[chain_in(old, key)];
    const auto old_scan = ob.list.find_scan(key);
    r.examined += old_scan.examined;
    r.pcb = old_scan.pcb;
    if (options_.per_chain_cache && old_scan.pcb != nullptr) {
      ob.cache = old_scan.pcb;
    }
  }
  migrate_batch(kMigrateLookupBatch);
}

LookupResult SequentDemuxer::lookup(const net::FlowKey& key,
                                    SegmentKind /*kind*/) {
  LookupResult r = lookup_in_bucket(buckets_[chain_of(key)], key);
  // A cache hit is final: it neither probes the outgoing chains nor pays
  // a drain step.
  if (old_ != nullptr && !r.cache_hit) [[unlikely]] {
    lookup_outgoing(key, r);
  }
  note_lookup(r);
  return r;
}

void SequentDemuxer::lookup_batch(std::span<const net::FlowKey> keys,
                                  std::span<LookupResult> results,
                                  SegmentKind kind) {
  if (old_ != nullptr) [[unlikely]] {
    // Mid-migration each lookup may probe the outgoing chains and relink
    // PCBs as it drains them; the scalar loop keeps that order exact.
    Demuxer::lookup_batch(keys, results, kind);
    return;
  }
  // Three-stage pipeline per chunk: (1) hash every key and prefetch its
  // bucket header (cache pointer + chain head); (2) with the headers
  // landing, prefetch the first PCB each probe will touch — the cached
  // entry when the cache is armed, else the chain head; (3) probe. The
  // dependent loads of a whole burst overlap instead of serializing.
  constexpr std::size_t kChunk = 16;
  std::array<Bucket*, kChunk> bucket;
  for (std::size_t base = 0; base < keys.size(); base += kChunk) {
    const std::size_t n = std::min(kChunk, keys.size() - base);
    for (std::size_t i = 0; i < n; ++i) {
      bucket[i] = &buckets_[chain_of(keys[base + i])];
      prefetch_read(bucket[i]);
    }
    for (std::size_t i = 0; i < n; ++i) {
      const Bucket& b = *bucket[i];
      const Pcb* const first =
          (options_.per_chain_cache && b.cache != nullptr) ? b.cache
                                                           : b.list.head();
      if (first != nullptr) prefetch_read(first);
    }
    for (std::size_t i = 0; i < n; ++i) {
      const LookupResult r = lookup_in_bucket(*bucket[i], keys[base + i]);
      note_lookup(r);
      results[base + i] = r;
    }
  }
}

Pcb* SequentDemuxer::find(const net::FlowKey& key) const {
  if (Pcb* const pcb = buckets_[chain_of(key)].list.find_scan(key).pcb) {
    return pcb;
  }
  if (old_ == nullptr) return nullptr;
  const Table& old = old_->table;
  return old[chain_in(old, key)].list.find_scan(key).pcb;
}

void SequentDemuxer::for_each_pcb(
    const std::function<void(const Pcb&)>& fn) const {
  for (const Bucket& b : buckets_) b.list.for_each(fn);
  if (old_ != nullptr) {
    for (const Bucket& b : old_->table) b.list.for_each(fn);
  }
}

std::size_t SequentDemuxer::memory_bytes() const {
  std::size_t bytes = slab_.bytes() + sizeof(*this) +
                      buckets_.capacity() * sizeof(Bucket);
  if (old_ != nullptr) {
    bytes += sizeof(*old_) + old_->table.capacity() * sizeof(Bucket);
  }
  return bytes;
}

std::string SequentDemuxer::name() const {
  std::string n = options_.grow ? "dynamic(h=" : "sequent(h=";
  n += std::to_string(chains());
  n += ',';
  n += net::hash_spec_name(options_.hasher);
  if (!options_.per_chain_cache) n += ",nocache";
  if (options_.rehash_on_overload) n += ",rehash";
  if (options_.max_pcbs != 0) n += ",max=" + std::to_string(options_.max_pcbs);
  n += ')';
  return n;
}

std::vector<std::size_t> SequentDemuxer::chain_sizes() const {
  std::vector<std::size_t> sizes;
  sizes.reserve(buckets_.size());
  for (const Bucket& b : buckets_) sizes.push_back(b.list.count());
  return sizes;
}

std::vector<std::size_t> SequentDemuxer::occupancy() const {
  std::vector<std::size_t> sizes = chain_sizes();
  if (old_ != nullptr) {
    for (const Bucket& b : old_->table) sizes.push_back(b.list.count());
  }
  return sizes;
}

}  // namespace tcpdemux::core

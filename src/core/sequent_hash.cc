#include "core/sequent_hash.h"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "core/fault_inject.h"
#include "core/prefetch.h"

namespace tcpdemux::core {
namespace {

// Primes that roughly double; the ladder a kernel hashtable would bake in.
constexpr std::array<std::uint32_t, 20> kPrimes = {
    19,    41,    83,     167,    337,    673,    1361,
    2729,  5471,  10949,  21911,  43853,  87719,  175447,
    350899, 701819, 1403641, 2807303, 5614657, 11229331};

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
  if (const auto* old = resize_.old();
      old != nullptr &&
      old->table[chain_in(old->table, key)].list.find_scan(key).pcb !=
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
  if (resize_.sheds_at_load(size_, buckets_.size(), options_.max_load)) {
    maybe_grow();
    if (resize_.blocked()) {
      telemetry_->on_shed();
      return nullptr;
    }
    b = &buckets_[chain_of(key)];  // a new table was swung in
    chain_length = b->list.count() + 1;
  }
  Pcb* pcb = slab_.make(key, next_conn_id());
  b->list.link_front(pcb);
  ++size_;
  telemetry_->on_insert();
  note_insert(chain_length);
  return pcb;
}

void SequentDemuxer::note_insert(std::uint64_t chain_length) {
  resize_.note_insert(chain_length);
  if (options_.rehash_on_overload && resize_.watermark() > watermark_limit() &&
      resize_.cooled_down()) {
    resize_.rotate_seed(*this, buckets_);
  }
  if (options_.grow) maybe_grow();
  if (resize_.migrating()) [[unlikely]] {
    resize_.migrate_batch(*this, kMigrateBatch);
  }
}

std::uint64_t SequentDemuxer::rotated_watermark() const noexcept {
  std::uint64_t longest = 0;
  for (const Bucket& b : buckets_) {
    longest = std::max<std::uint64_t>(longest, b.list.count());
  }
  return longest;
}

void SequentDemuxer::maybe_grow() {
  if (static_cast<double>(size_) <=
      options_.max_load * static_cast<double>(buckets_.size())) {
    return;
  }
  if (next_table_size(chains()) <= chains()) return;  // ladder exhausted
  resize_.grow(*this, buckets_);
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

bool SequentDemuxer::migration_step() {
  resize_.migrate_batch(*this, kMigrateBatch);
  return resize_.migrating();
}

ResilienceStats SequentDemuxer::resilience() const {
  return resize_.resilience(*this);
}

bool SequentDemuxer::erase(const net::FlowKey& key) {
  Bucket& b = buckets_[chain_of(key)];
  const auto scan = b.list.find_scan(key);
  if (scan.pcb != nullptr) {
    if (b.cache == scan.pcb) b.cache = nullptr;
    b.list.unlink(scan.pcb);
    slab_.destroy(scan.pcb);
  } else {
    auto* old = resize_.old();
    if (old == nullptr) return false;
    Bucket& ob = old->table[chain_in(old->table, key)];
    const auto old_scan = ob.list.find_scan(key);
    if (old_scan.pcb == nullptr) return false;
    if (ob.cache == old_scan.pcb) ob.cache = nullptr;
    ob.list.unlink(old_scan.pcb);
    slab_.destroy(old_scan.pcb);
    resize_.note_erased(*this);
  }
  --size_;
  telemetry_->on_erase();
  if (resize_.migrating()) [[unlikely]] {
    resize_.migrate_batch(*this, kMigrateBatch);
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
    Table& old = resize_.old()->table;
    Bucket& ob = old[chain_in(old, key)];
    const auto old_scan = ob.list.find_scan(key);
    r.examined += old_scan.examined;
    r.pcb = old_scan.pcb;
    if (options_.per_chain_cache && old_scan.pcb != nullptr) {
      ob.cache = old_scan.pcb;
    }
  }
  resize_.migrate_batch(*this, kMigrateLookupBatch);
}

LookupResult SequentDemuxer::lookup(const net::FlowKey& key,
                                    SegmentKind /*kind*/) {
  LookupResult r = lookup_in_bucket(buckets_[chain_of(key)], key);
  // A cache hit is final: it neither probes the outgoing chains nor pays
  // a drain step.
  if (resize_.migrating() && !r.cache_hit) [[unlikely]] {
    lookup_outgoing(key, r);
  }
  note_lookup(r);
  return r;
}

void SequentDemuxer::lookup_batch(std::span<const net::FlowKey> keys,
                                  std::span<LookupResult> results,
                                  SegmentKind kind) {
  if (resize_.migrating()) [[unlikely]] {
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

LookupResult SequentDemuxer::lookup_wildcard(const net::FlowKey& key) {
  // A wildcard-bearing PCB may live on a different chain than the packet's
  // hash (its foreign half is zero), so all chains must be consulted; exact
  // matches still short-circuit within the packet's own chain first.
  LookupResult best;
  int best_score = -1;
  const auto sweep = [&](const Table& table) {
    const auto n = static_cast<std::uint32_t>(table.size());
    const std::uint32_t home = chain_in(table, key);
    for (std::uint32_t i = 0; i < n; ++i) {
      const auto scan = table[(home + i) % n].list.find_best_match(key);
      best.examined += scan.examined;
      if (scan.pcb == nullptr) continue;
      const int score = scan.pcb->key.match_score(key);
      if (score == 0) {
        best.pcb = scan.pcb;
        return true;
      }
      if (best_score < 0 || score < best_score) {
        best_score = score;
        best.pcb = scan.pcb;
      }
    }
    return false;
  };
  if (sweep(buckets_)) return best;
  if (const auto* old = resize_.old()) sweep(old->table);
  return best;
}

void SequentDemuxer::for_each_pcb(
    const std::function<void(const Pcb&)>& fn) const {
  for (const Bucket& b : buckets_) b.list.for_each(fn);
  if (const auto* old = resize_.old()) {
    for (const Bucket& b : old->table) b.list.for_each(fn);
  }
}

std::size_t SequentDemuxer::memory_bytes() const {
  std::size_t bytes = slab_.bytes() + sizeof(*this) +
                      buckets_.capacity() * sizeof(Bucket);
  if (const auto* old = resize_.old()) {
    bytes += sizeof(*old) + old->table.capacity() * sizeof(Bucket);
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
  if (const auto* old = resize_.old()) {
    for (const Bucket& b : old->table) sizes.push_back(b.list.count());
  }
  return sizes;
}

}  // namespace tcpdemux::core

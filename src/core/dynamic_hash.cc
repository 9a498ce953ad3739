#include "core/dynamic_hash.h"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "core/fault_inject.h"

namespace tcpdemux::core {
namespace {

// Primes that roughly double; the ladder a kernel hashtable would bake in.
constexpr std::array<std::uint32_t, 20> kPrimes = {
    19,    41,    83,     167,    337,    673,    1361,
    2729,  5471,  10949,  21911,  43853,  87719,  175447,
    350899, 701819, 1403641, 2807303, 5614657, 11229331};

}  // namespace

std::uint32_t DynamicHashDemuxer::next_table_size(std::uint32_t n) noexcept {
  for (const std::uint32_t p : kPrimes) {
    if (p >= 2 * n) return p;
  }
  return kPrimes.back();
}

DynamicHashDemuxer::DynamicHashDemuxer(Options options) : options_(options) {
  if (options_.initial_chains == 0) {
    throw std::invalid_argument(
        "DynamicHashDemuxer: chain count must be >= 1");
  }
  if (options_.max_load <= 0.0) {
    throw std::invalid_argument("DynamicHashDemuxer: max_load must be > 0");
  }
  buckets_.resize(options_.initial_chains);
}

void DynamicHashDemuxer::maybe_grow() {
  if (static_cast<double>(size_) <=
      options_.max_load * static_cast<double>(buckets_.size())) {
    return;
  }
  if (next_table_size(chains()) <= chains()) return;  // ladder exhausted
  if (resize_.grow(*this, buckets_, options_.incremental)) ++doublings_;
}

bool DynamicHashDemuxer::migrate_unit(Table& old, std::size_t c,
                                      DrainMode /*mode*/) {
  Bucket& ob = old[c];
  Pcb* pcb = ob.list.extract_front();
  if (pcb == nullptr) return false;
  // Nothing is ever inserted into the old array, so the cache can only
  // reference old residents; draining the bucket retires it.
  ob.cache = nullptr;
  buckets_[chain_of(pcb->key)].list.adopt_front(pcb);
  return true;
}

bool DynamicHashDemuxer::migration_step() {
  resize_.migrate_batch(*this, kMigrateBatch);
  return resize_.migrating();
}

Pcb* DynamicHashDemuxer::insert(const net::FlowKey& key) {
  if (buckets_[chain_of(key)].list.find_scan(key).pcb != nullptr) {
    return nullptr;
  }
  if (const auto* old = resize_.old();
      old != nullptr &&
      old->table[chain_in(old->table, key)].list.find_scan(key).pcb !=
          nullptr) {
    return nullptr;
  }
  if (options_.max_pcbs != 0 && size_ >= options_.max_pcbs) {
    ++inserts_shed_;
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
  // below never runs again).
  if (resize_.sheds_at_load(size_, buckets_.size(), options_.max_load)) {
    maybe_grow();
    if (resize_.blocked()) {
      ++inserts_shed_;
      telemetry_->on_shed();
      return nullptr;
    }
  }
  Bucket& b = buckets_[chain_of(key)];
  Pcb* pcb = b.list.emplace_front(key, next_conn_id());
  ++size_;
  telemetry_->on_insert();
  watermark_ = std::max<std::uint64_t>(watermark_, b.list.size());
  maybe_grow();
  if (resize_.migrating()) [[unlikely]] {
    resize_.migrate_batch(*this, kMigrateBatch);
  }
  return pcb;
}

ResilienceStats DynamicHashDemuxer::resilience() const {
  return {0, inserts_shed_, watermark_, watermark_limit()};
}

bool DynamicHashDemuxer::erase(const net::FlowKey& key) {
  Bucket& b = buckets_[chain_of(key)];
  const auto scan = b.list.find_scan(key);
  if (scan.pcb != nullptr) {
    if (b.cache == scan.pcb) b.cache = nullptr;
    b.list.erase(scan.pcb);
  } else {
    auto* old = resize_.old();
    if (old == nullptr) return false;
    Bucket& ob = old->table[chain_in(old->table, key)];
    const auto old_scan = ob.list.find_scan(key);
    if (old_scan.pcb == nullptr) return false;
    if (ob.cache == old_scan.pcb) ob.cache = nullptr;
    ob.list.erase(old_scan.pcb);
    resize_.note_erased(*this);
  }
  --size_;
  telemetry_->on_erase();
  if (resize_.migrating()) [[unlikely]] {
    resize_.migrate_batch(*this, kMigrateBatch);
  }
  return true;
}

LookupResult DynamicHashDemuxer::lookup(const net::FlowKey& key,
                                        SegmentKind /*kind*/) {
  Bucket& b = buckets_[chain_of(key)];
  LookupResult r;
  if (options_.per_chain_cache && b.cache != nullptr) {
    ++r.examined;
    if (b.cache->key == key) {
      r.pcb = b.cache;
      r.cache_hit = true;
      note_lookup(r);
      return r;
    }
  }
  const auto scan = b.list.find_scan(key);
  r.examined += scan.examined;
  r.pcb = scan.pcb;
  if (options_.per_chain_cache && scan.pcb != nullptr) b.cache = scan.pcb;
  if (r.pcb == nullptr && resize_.migrating()) [[unlikely]] {
    // Mid-migration a PCB may still sit on its outgoing chain; both
    // scans' examined counts are charged (the paper's metric counts every
    // PCB compared, whichever array holds it).
    Table& old = resize_.old()->table;
    Bucket& ob = old[chain_in(old, key)];
    const auto old_scan = ob.list.find_scan(key);
    r.examined += old_scan.examined;
    r.pcb = old_scan.pcb;
    if (options_.per_chain_cache && old_scan.pcb != nullptr) {
      ob.cache = old_scan.pcb;
    }
  }
  note_lookup(r);
  if (resize_.migrating()) [[unlikely]] {
    resize_.migrate_batch(*this, kMigrateLookupBatch);
  }
  return r;
}

LookupResult DynamicHashDemuxer::lookup_wildcard(const net::FlowKey& key) {
  LookupResult best;
  int best_score = -1;
  const auto sweep = [&](Table& buckets) {
    for (Bucket& b : buckets) {
      const auto scan = b.list.find_best_match(key);
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
  if (auto* old = resize_.old()) sweep(old->table);
  return best;
}

void DynamicHashDemuxer::for_each_pcb(
    const std::function<void(const Pcb&)>& fn) const {
  for (const Bucket& b : buckets_) {
    b.list.for_each(fn);
  }
  if (const auto* old = resize_.old()) {
    for (const Bucket& b : old->table) b.list.for_each(fn);
  }
}

std::size_t DynamicHashDemuxer::memory_bytes() const {
  std::size_t bytes = size() * sizeof(Pcb) + sizeof(*this) +
                      buckets_.capacity() * sizeof(Bucket);
  if (const auto* old = resize_.old()) {
    bytes += sizeof(*old) + old->table.capacity() * sizeof(Bucket);
  }
  return bytes;
}

std::vector<std::size_t> DynamicHashDemuxer::occupancy() const {
  const auto* old = resize_.old();
  std::vector<std::size_t> sizes;
  sizes.reserve(buckets_.size() + (old == nullptr ? 0 : old->table.size()));
  for (const auto& b : buckets_) sizes.push_back(b.list.size());
  if (old != nullptr) {
    for (const auto& b : old->table) sizes.push_back(b.list.size());
  }
  return sizes;
}

std::string DynamicHashDemuxer::name() const {
  std::string n = "dynamic(h=";
  n += std::to_string(buckets_.size());
  n += ',';
  n += net::hash_spec_name(options_.hasher);
  if (options_.max_pcbs != 0) n += ",max=" + std::to_string(options_.max_pcbs);
  if (options_.incremental) n += ",incremental";
  n += ')';
  return n;
}

}  // namespace tcpdemux::core

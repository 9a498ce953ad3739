#include "core/flat_demuxer.h"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <utility>

#include "core/fault_inject.h"
#include "core/prefetch.h"

namespace tcpdemux::core {
namespace {

constexpr std::size_t round_up_pow2(std::size_t n) noexcept {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

FlatDemuxer::FlatDemuxer(Options options) : options_(options) {
  if (options_.initial_capacity == 0) {
    throw std::invalid_argument("FlatDemuxer: capacity must be >= 1");
  }
  table_ = Table(
      round_up_pow2(std::max(options_.initial_capacity, kMinCapacity)));
}

FlatDemuxer::Table::Table(std::size_t capacity)
    : mask(capacity - 1),
      tags(capacity, 0),
      hashes(capacity, 0),
      keys(capacity, net::FlowKey{}),
      pcbs(capacity) {}

FlatDemuxer::Probe FlatDemuxer::find_slot(
    const Table& t, std::uint32_t h, const net::FlowKey& key) noexcept {
  Probe r;
  const std::uint8_t tag = tag_of(h);
  std::size_t i = h & t.mask;
  std::size_t dist = 0;
  while (dist <= t.mask) {
    const std::uint8_t slot_tag = t.tags[i];
    if (slot_tag == 0) return r;  // empty slot terminates the probe run
    if (slot_tag == tag) {
      ++r.examined;
      if (t.keys[i] == key) {
        r.slot = i;
        return r;
      }
    }
    // Robin-hood bound: residents are ordered by displacement, so a
    // resident closer to its own home than we are to ours proves the key
    // was never placed at or beyond this slot.
    if (t.probe_distance(i) < dist) return r;
    i = (i + 1) & t.mask;
    ++dist;
  }
  return r;  // unreachable in a well-formed table (load factor < 1)
}

Pcb* FlatDemuxer::insert(const net::FlowKey& key) {
  std::uint32_t h = hash_of(key);
  if (find_slot(table_, h, key).slot != kNpos) return nullptr;
  if (const auto* old = resize_.old();
      old != nullptr && find_slot(old->table, h, key).slot != kNpos) {
    return nullptr;
  }
  if (options_.max_pcbs != 0 && size_ >= options_.max_pcbs) {
    telemetry_->on_shed();
    return nullptr;
  }
  if (FaultInjector::instance().poll_alloc()) return nullptr;
  maybe_grow();
  if (resize_.sheds_at_watermark(size_, capacity())) {
    telemetry_->on_shed();
    return nullptr;
  }
  Pcb* const pcb = slab_.make(key, next_conn_id());
  const std::size_t dist = place(table_, h, key, pcb);
  ++size_;
  telemetry_->on_insert();
  note_insert(dist);
  if (resize_.migrating()) [[unlikely]] {
    resize_.migrate_batch(*this, kMigrateBatch);
  }
  return pcb;
}

void FlatDemuxer::maybe_grow() {
  // Grow at 7/8 occupancy: beyond that, probe runs lengthen sharply and
  // the tag array stops saving traffic.
  if ((size_ + 1) * 8 <= capacity() * 7) return;
  resize_.grow(*this, table_);
}

bool FlatDemuxer::migrate_unit(Table& old, std::size_t i, DrainMode mode) {
  if (old.tags[i] == 0) return false;
  // Place into the new array first, then clear the old slot; placement
  // into the preallocated array cannot allocate. A step backward-shifts
  // the old run so lookups can still probe it; a closing sweep discards
  // the whole array, so clearing the tag is enough.
  const std::uint32_t h =
      mode == DrainMode::kRehash ? hash_of(old.keys[i]) : old.hashes[i];
  place(table_, h, old.keys[i], old.pcbs[i]);
  if (mode == DrainMode::kStep) {
    remove_at(old, i);
  } else {
    old.tags[i] = 0;
  }
  return true;
}

bool FlatDemuxer::migration_step() {
  resize_.migrate_batch(*this, kMigrateBatch);
  return resize_.migrating();
}

std::size_t FlatDemuxer::place(Table& t, std::uint32_t h, net::FlowKey key,
                               Pcb* pcb) {
  std::size_t i = h & t.mask;
  std::size_t dist = 0;
  std::size_t max_dist = 0;
  while (t.tags[i] != 0) {
    const std::size_t d = t.probe_distance(i);
    if (d < dist) {
      // Rob the rich: the resident is closer to home than we are, so it
      // can better afford the longer walk. Swap and keep placing it.
      std::swap(h, t.hashes[i]);
      std::swap(key, t.keys[i]);
      std::swap(pcb, t.pcbs[i]);
      t.tags[i] = tag_of(t.hashes[i]);
      dist = d;
    }
    i = (i + 1) & t.mask;
    ++dist;
    max_dist = std::max(max_dist, dist);
  }
  t.tags[i] = tag_of(h);
  t.hashes[i] = h;
  t.keys[i] = key;
  t.pcbs[i] = pcb;
  return max_dist;
}

void FlatDemuxer::note_insert(std::size_t place_distance) {
  resize_.note_insert(place_distance);
  if (options_.rehash_on_overload && resize_.watermark() > watermark_limit() &&
      resize_.cooled_down()) {
    resize_.rotate_seed(*this, table_);
  }
}

ResilienceStats FlatDemuxer::resilience() const {
  return resize_.resilience(*this);
}

bool FlatDemuxer::erase(const net::FlowKey& key) {
  const std::uint32_t h = hash_of(key);
  const Probe p = find_slot(table_, h, key);
  if (p.slot != kNpos) {
    slab_.destroy(table_.pcbs[p.slot]);
    remove_at(table_, p.slot);
  } else {
    auto* old = resize_.old();
    if (old == nullptr) return false;
    const Probe q = find_slot(old->table, h, key);
    if (q.slot == kNpos) return false;
    slab_.destroy(old->table.pcbs[q.slot]);
    remove_at(old->table, q.slot);
    resize_.note_erased(*this);
  }
  --size_;
  telemetry_->on_erase();
  if (resize_.migrating()) [[unlikely]] {
    resize_.migrate_batch(*this, kMigrateBatch);
  }
  return true;
}

void FlatDemuxer::remove_at(Table& t, std::size_t i) {
  // Backward shift: slide the rest of the probe run down one slot so no
  // tombstone is needed. The run ends at an empty slot or a resident
  // already sitting in its home slot (which a shift would only hurt).
  std::size_t j = i;
  while (true) {
    const std::size_t n = (j + 1) & t.mask;
    if (t.tags[n] == 0 || t.probe_distance(n) == 0) break;
    t.tags[j] = t.tags[n];
    t.hashes[j] = t.hashes[n];
    t.keys[j] = t.keys[n];
    t.pcbs[j] = t.pcbs[n];
    j = n;
  }
  t.tags[j] = 0;
  t.pcbs[j] = nullptr;
}

LookupResult FlatDemuxer::lookup(const net::FlowKey& key,
                                 SegmentKind /*kind*/) {
  const std::uint32_t h = hash_of(key);
  const Probe p = find_slot(table_, h, key);
  LookupResult r;
  r.examined = p.examined;
  if (p.slot != kNpos) {
    r.pcb = table_.pcbs[p.slot];
  } else if (resize_.migrating()) [[unlikely]] {
    // Mid-migration a resident may still sit in the draining array; both
    // probes' examined counts are charged (the paper's metric counts every
    // key compared, whichever array holds it).
    const Table& old = resize_.old()->table;
    const Probe q = find_slot(old, h, key);
    r.examined += q.examined;
    if (q.slot != kNpos) r.pcb = old.pcbs[q.slot];
  }
  note_lookup(r);
  if (resize_.migrating()) [[unlikely]] {
    resize_.migrate_batch(*this, kMigrateLookupBatch);
  }
  return r;
}

void FlatDemuxer::lookup_batch(std::span<const net::FlowKey> keys,
                               std::span<LookupResult> results,
                               SegmentKind kind) {
  if (resize_.migrating()) [[unlikely]] {
    // Mid-migration the pipelined prefetch would have to target both
    // arrays; take the scalar path, which also paces the drain (one
    // migrated entry per lookup). Results and stats stay bit-identical
    // to per-packet lookup() by construction.
    for (std::size_t i = 0; i < keys.size(); ++i) {
      results[i] = lookup(keys[i], kind);
    }
    return;
  }
  // Pipeline: hash the whole chunk and issue prefetches for every home
  // slot's tag and key lines, then probe. By the time the first probe
  // dereferences its slot the remaining loads are already in flight, so a
  // burst pays ~one DRAM latency instead of one per packet.
  constexpr std::size_t kChunk = 16;
  std::array<std::uint32_t, kChunk> h;
  for (std::size_t base = 0; base < keys.size(); base += kChunk) {
    const std::size_t n = std::min(kChunk, keys.size() - base);
    for (std::size_t i = 0; i < n; ++i) {
      h[i] = hash_of(keys[base + i]);
      const std::size_t home = h[i] & table_.mask;
      prefetch_read(&table_.tags[home]);
      prefetch_read(&table_.hashes[home]);
    }
    for (std::size_t i = 0; i < n; ++i) {
      prefetch_read(&table_.keys[h[i] & table_.mask]);
    }
    for (std::size_t i = 0; i < n; ++i) {
      const Probe p = find_slot(table_, h[i], keys[base + i]);
      LookupResult r;
      r.examined = p.examined;
      if (p.slot != kNpos) r.pcb = table_.pcbs[p.slot];
      note_lookup(r);
      results[base + i] = r;
    }
  }
}

LookupResult FlatDemuxer::lookup_wildcard(const net::FlowKey& key) {
  // Exact probe first (cheap), then BSD best-match over every resident:
  // wildcard-bearing keys hash elsewhere, so nothing short of a sweep can
  // find them — exactly the chained demuxers' all-chains fallback. Both
  // arrays are probed and swept while a migration drains.
  const std::uint32_t h = hash_of(key);
  const Probe p = find_slot(table_, h, key);
  LookupResult best;
  best.examined = p.examined;
  if (p.slot != kNpos) {
    best.pcb = table_.pcbs[p.slot];
    return best;
  }
  const Table* old = resize_.migrating() ? &resize_.old()->table : nullptr;
  if (old != nullptr) {
    const Probe q = find_slot(*old, h, key);
    best.examined += q.examined;
    if (q.slot != kNpos) {
      best.pcb = old->pcbs[q.slot];
      return best;
    }
  }
  int best_score = -1;
  const auto sweep = [&](const Table& t) {
    for (std::size_t i = 0; i < t.capacity(); ++i) {
      if (t.tags[i] == 0) continue;
      ++best.examined;
      const int score = t.keys[i].match_score(key);
      if (score < 0) continue;
      if (score == 0) {
        best.pcb = t.pcbs[i];
        return true;
      }
      if (best_score < 0 || score < best_score) {
        best_score = score;
        best.pcb = t.pcbs[i];
      }
    }
    return false;
  };
  if (sweep(table_)) return best;
  if (old != nullptr) sweep(*old);
  return best;
}

void FlatDemuxer::for_each_pcb(
    const std::function<void(const Pcb&)>& fn) const {
  const auto visit = [&fn](const Table& t) {
    for (std::size_t i = 0; i < t.capacity(); ++i) {
      if (t.tags[i] != 0) fn(*t.pcbs[i]);
    }
  };
  visit(table_);
  if (const auto* old = resize_.old()) visit(old->table);
}

std::size_t FlatDemuxer::max_probe_distance() const noexcept {
  std::size_t max = 0;
  const auto scan = [&max](const Table& t) {
    for (std::size_t i = 0; i < t.capacity(); ++i) {
      if (t.tags[i] != 0) max = std::max(max, t.probe_distance(i));
    }
  };
  scan(table_);
  if (const auto* old = resize_.old()) scan(old->table);
  return max;
}

std::vector<std::size_t> FlatDemuxer::occupancy() const {
  std::vector<std::size_t> runs;
  if (size_ == 0) return runs;
  // Start at an empty slot so a run wrapping the table end is not split
  // in two; a full table is one run. During a migration the old array's
  // runs are appended after the live array's, so the total still sums to
  // size() and skew reflects both generations.
  const auto append_runs = [&runs](const Table& t) {
    const std::size_t cap = t.capacity();
    std::size_t start = 0;
    while (start < cap && t.tags[start] != 0) ++start;
    if (start == cap) {
      runs.push_back(cap);
      return;
    }
    std::size_t run = 0;
    for (std::size_t n = 0; n < cap; ++n) {
      const std::size_t i = (start + n) & t.mask;
      if (t.tags[i] != 0) {
        ++run;
      } else if (run != 0) {
        runs.push_back(run);
        run = 0;
      }
    }
    if (run != 0) runs.push_back(run);
  };
  append_runs(table_);
  if (const auto* old = resize_.old()) append_runs(old->table);
  return runs;
}

std::size_t FlatDemuxer::memory_bytes() const {
  constexpr std::size_t kPerSlot =
      sizeof(std::uint8_t) + sizeof(std::uint32_t) + sizeof(net::FlowKey) +
      sizeof(Pcb*);
  std::size_t bytes = slab_.bytes() + sizeof(*this) +
                      capacity() * kPerSlot;
  if (const auto* old = resize_.old()) {
    bytes += sizeof(*old) + old->table.capacity() * kPerSlot;
  }
  return bytes;
}

std::string FlatDemuxer::name() const {
  std::string n = "flat(cap=";
  n += std::to_string(capacity());
  n += ',';
  n += net::hash_spec_name(options_.hasher);
  if (options_.rehash_on_overload) n += ",rehash";
  if (options_.max_pcbs != 0) n += ",max=" + std::to_string(options_.max_pcbs);
  n += ')';
  return n;
}

}  // namespace tcpdemux::core

#include "core/cuckoo_demuxer.h"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <utility>

#include "core/fault_inject.h"
#include "core/prefetch.h"
#include "core/simd.h"

namespace tcpdemux::core {
namespace {

constexpr std::size_t round_up_pow2(std::size_t n) noexcept {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

CuckooDemuxer::CuckooDemuxer(Options options) : options_(options) {
  if (options_.initial_capacity == 0) {
    throw std::invalid_argument("CuckooDemuxer: capacity must be >= 1");
  }
  const std::size_t slots = round_up_pow2(
      std::max(options_.initial_capacity, kMinBuckets * kBucketWidth));
  table_ = Table(slots / kBucketWidth);
}

CuckooDemuxer::Table::Table(std::size_t buckets)
    : bucket_mask(buckets - 1),
      meta(buckets),
      hashes(buckets * kBucketWidth, 0),
      keys(buckets * kBucketWidth, net::FlowKey{}),
      pcbs(buckets * kBucketWidth),
      filter_counts(buckets) {}

CuckooDemuxer::Probe CuckooDemuxer::find_slot(
    const Table& t, std::uint32_t h, const net::FlowKey& key) noexcept {
  Probe r;
  const std::uint8_t tag = tag_of(h);
  const std::size_t b1 = h & t.bucket_mask;
  std::uint32_t match = bucket_match(t.meta[b1].tags.data(), tag);
  while (match != 0) {
    const auto s = static_cast<std::size_t>(std::countr_zero(match));
    ++r.examined;
    if (t.keys[b1 * kBucketWidth + s] == key) {
      r.slot = b1 * kBucketWidth + s;
      return r;
    }
    match &= match - 1;
  }
  // Cuckoo++ filter: the alternate bucket can hold this key only if some
  // resident with this fingerprint nibble overflowed out of b1 — which
  // registered the bit. No bit, no second probe: the common negative
  // lookup ends after one bucket's metadata.
  if ((t.meta[b1].filter & (1U << filter_index(tag))) == 0) return r;
  r.buckets = 2;
  const std::size_t b2 = t.alt_bucket(b1, tag);
  match = bucket_match(t.meta[b2].tags.data(), tag);
  while (match != 0) {
    const auto s = static_cast<std::size_t>(std::countr_zero(match));
    ++r.examined;
    if (t.keys[b2 * kBucketWidth + s] == key) {
      r.slot = b2 * kBucketWidth + s;
      return r;
    }
    match &= match - 1;
  }
  return r;
}

void CuckooDemuxer::filter_add(Table& t, std::size_t bucket,
                               std::uint8_t tag) noexcept {
  const std::uint32_t idx = filter_index(tag);
  ++t.filter_counts[bucket][idx];
  t.meta[bucket].filter |= static_cast<std::uint16_t>(1U << idx);
}

void CuckooDemuxer::filter_remove(Table& t, std::size_t bucket,
                                  std::uint8_t tag) noexcept {
  const std::uint32_t idx = filter_index(tag);
  if (--t.filter_counts[bucket][idx] == 0) {
    t.meta[bucket].filter &= static_cast<std::uint16_t>(~(1U << idx));
  }
}

void CuckooDemuxer::clear_slot(Table& t, std::size_t slot) noexcept {
  const std::size_t bucket = slot / kBucketWidth;
  const std::uint8_t tag = t.tag_at(slot);
  const std::size_t primary = t.hashes[slot] & t.bucket_mask;
  if (bucket != primary) filter_remove(t, primary, tag);
  t.meta[bucket].tags[slot % kBucketWidth] = 0;
  t.pcbs[slot] = nullptr;
}

void CuckooDemuxer::set_slot(Table& t, std::size_t slot, std::uint32_t h,
                             const net::FlowKey& key, Pcb* pcb) noexcept {
  t.meta[slot / kBucketWidth].tags[slot % kBucketWidth] = tag_of(h);
  t.hashes[slot] = h;
  t.keys[slot] = key;
  t.pcbs[slot] = pcb;
}

void CuckooDemuxer::move_slot(Table& t, std::size_t from,
                              std::size_t to) noexcept {
  const std::size_t from_bucket = from / kBucketWidth;
  const std::uint8_t tag = t.tag_at(from);
  const std::size_t primary = t.hashes[from] & t.bucket_mask;
  t.meta[to / kBucketWidth].tags[to % kBucketWidth] = tag;
  t.meta[from_bucket].tags[from % kBucketWidth] = 0;
  t.hashes[to] = t.hashes[from];
  t.keys[to] = t.keys[from];
  t.pcbs[to] = t.pcbs[from];
  t.pcbs[from] = nullptr;
  // A move is always between the entry's two candidate buckets, so it
  // either leaves home (register in the filter) or returns home
  // (deregister). The counted backing store keeps shared bits exact.
  if (from_bucket == primary) {
    filter_add(t, primary, tag);
  } else {
    filter_remove(t, primary, tag);
  }
}

bool CuckooDemuxer::place_entry(Table& t, std::uint32_t h,
                                const net::FlowKey& key, Pcb* pcb,
                                std::size_t* effort) {
  const std::uint8_t tag = tag_of(h);
  const std::size_t b1 = h & t.bucket_mask;
  const std::size_t b2 = t.alt_bucket(b1, tag);
  *effort = 0;
  for (std::size_t s = 0; s < kBucketWidth; ++s) {
    if (t.meta[b1].tags[s] == 0) {
      set_slot(t, b1 * kBucketWidth + s, h, key, pcb);
      return true;
    }
  }
  for (std::size_t s = 0; s < kBucketWidth; ++s) {
    if (t.meta[b2].tags[s] == 0) {
      set_slot(t, b2 * kBucketWidth + s, h, key, pcb);
      filter_add(t, b1, tag);
      return true;
    }
  }
  // Both candidate buckets full: breadth-first search of the kick graph
  // finds the *shortest* displacement path (random-walk cuckoo can wander
  // arbitrarily). node.via is the slot within the parent's bucket whose
  // resident can vacate into node.bucket; the alternate of a resident is
  // recomputed from its current bucket and tag alone (the xor involution),
  // never from its key.
  struct Node {
    std::size_t bucket;
    std::int16_t parent;
    std::uint8_t via;
  };
  std::array<Node, kMaxBfsNodes> nodes;
  std::size_t count = 0;
  nodes[count++] = Node{b1, -1, 0};
  nodes[count++] = Node{b2, -1, 0};
  for (std::size_t qi = 0; qi < count; ++qi) {
    const std::size_t from_bucket = nodes[qi].bucket;
    for (std::size_t s = 0; s < kBucketWidth; ++s) {
      const std::uint8_t rtag = t.meta[from_bucket].tags[s];
      if (rtag == 0) continue;  // only full buckets are ever expanded
      const std::size_t other = t.alt_bucket(from_bucket, rtag);
      std::size_t empty = kNpos;
      for (std::size_t e = 0; e < kBucketWidth; ++e) {
        if (t.meta[other].tags[e] == 0) {
          empty = e;
          break;
        }
      }
      if (empty != kNpos) {
        *effort = count;
        // Unwind: vacate along the parent chain, then install the new
        // entry in the freed root slot (root is b1 or b2 by construction).
        move_slot(t, from_bucket * kBucketWidth + s,
                  other * kBucketWidth + empty);
        std::size_t free = from_bucket * kBucketWidth + s;
        std::size_t cur = qi;
        while (nodes[cur].parent >= 0) {
          const auto p = static_cast<std::size_t>(nodes[cur].parent);
          const std::size_t from =
              nodes[p].bucket * kBucketWidth + nodes[cur].via;
          move_slot(t, from, free);
          free = from;
          cur = p;
        }
        set_slot(t, free, h, key, pcb);
        if (free / kBucketWidth != b1) filter_add(t, b1, tag);
        return true;
      }
      if (count < kMaxBfsNodes) {
        bool seen = false;
        for (std::size_t n = 0; n < count && !seen; ++n) {
          seen = nodes[n].bucket == other;
        }
        if (!seen) {
          nodes[count++] = Node{other, static_cast<std::int16_t>(qi),
                                static_cast<std::uint8_t>(s)};
        }
      }
    }
  }
  *effort = count;
  return false;
}

Pcb* CuckooDemuxer::insert(const net::FlowKey& key) {
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
  std::size_t effort = 0;
  bool placed = place_entry(table_, h, key, pcb, &effort);
  for (int attempt = 0; attempt < 2 && !placed; ++attempt) {
    resize_.raise_watermark(effort);
    // Kick search exhausted its budget. A keyed-seed rotation scatters
    // bucket-targeted floods; growth absorbs honest local saturation. A
    // table that stays unplaceable while at most half full is under a
    // crafted full-hash collision set (> 2*kBucketWidth keys sharing both
    // buckets at any geometry), which only shedding answers.
    if (options_.rehash_on_overload && resize_.cooled_down()) {
      resize_.rotate_seed(*this, table_);
      h = hash_of(key);
      placed = place_entry(table_, h, key, pcb, &effort);
      if (placed) break;
    }
    if (size_ * 2 < capacity()) break;
    resize_.grow(*this, table_);
    placed = place_entry(table_, h, key, pcb, &effort);
  }
  if (!placed) {
    slab_.destroy(pcb);
    telemetry_->on_shed();
    return nullptr;
  }
  ++size_;
  telemetry_->on_insert();
  resize_.note_insert(effort);
  if (resize_.migrating()) [[unlikely]] {
    resize_.migrate_batch(*this, kMigrateBatch);
  }
  return pcb;
}

void CuckooDemuxer::maybe_grow() {
  // Grow at 7/8 occupancy: 4-way buckets keep kick paths short below
  // that, and the filter bits stay sparse.
  if ((size_ + 1) * 8 <= capacity() * 7) return;
  resize_.grow(*this, table_);
}

bool CuckooDemuxer::migrate_unit(Table& old, std::size_t slot,
                                 DrainMode mode) {
  if (old.tag_at(slot) == 0) return false;
  const std::uint32_t h =
      mode == DrainMode::kRehash ? hash_of(old.keys[slot]) : old.hashes[slot];
  std::size_t effort = 0;
  while (!place_entry(table_, h, old.keys[slot], old.pcbs[slot], &effort)) {
    // Kick search exhausted mid-drain — possible only for degenerate hash
    // sets (a growth's live array is at most half full, a rotation's is as
    // full as the table was). Double the live table in place; the
    // entry stays in its old slot meanwhile. A growth's extra doubling
    // enters the resize ledger; a rotation never counts as a resize.
    double_in_place();
    if (mode != DrainMode::kRehash) {
      telemetry_->on_resize_start();
      telemetry_->on_resize_complete();
    }
  }
  clear_slot(old, slot);
  return true;
}

bool CuckooDemuxer::migration_step() {
  resize_.migrate_batch(*this, kMigrateBatch);
  return resize_.migrating();
}

void CuckooDemuxer::double_in_place() {
  for (std::size_t buckets = bucket_count() * 2;; buckets *= 2) {
    Table fresh(buckets);
    const std::size_t cap = capacity();
    std::size_t slot = 0;
    std::size_t effort = 0;
    for (; slot < cap; ++slot) {
      if (table_.tag_at(slot) == 0) continue;
      if (!place_entry(fresh, table_.hashes[slot], table_.keys[slot],
                       table_.pcbs[slot], &effort)) {
        break;
      }
    }
    if (slot == cap) {
      table_ = std::move(fresh);
      return;
    }
    // Re-placement failed (possible only for near-degenerate hash sets at
    // this geometry). The live table still holds every PCB, so drop the
    // attempt and double: co-residents can share both candidate buckets at
    // *every* capacity only by sharing their full hash, and at most
    // 2*kBucketWidth of those ever co-reside — so doubling always
    // separates the rest.
  }
}

bool CuckooDemuxer::erase(const net::FlowKey& key) {
  const std::uint32_t h = hash_of(key);
  const Probe p = find_slot(table_, h, key);
  if (p.slot != kNpos) {
    slab_.destroy(table_.pcbs[p.slot]);
    clear_slot(table_, p.slot);
  } else {
    auto* old = resize_.old();
    if (old == nullptr) return false;
    const Probe q = find_slot(old->table, h, key);
    if (q.slot == kNpos) return false;
    slab_.destroy(old->table.pcbs[q.slot]);
    clear_slot(old->table, q.slot);
    resize_.note_erased(*this);
  }
  --size_;
  telemetry_->on_erase();
  if (resize_.migrating()) [[unlikely]] {
    resize_.migrate_batch(*this, kMigrateBatch);
  }
  return true;
}

LookupResult CuckooDemuxer::lookup(const net::FlowKey& key,
                                   SegmentKind /*kind*/) {
  const std::uint32_t h = hash_of(key);
  const Probe p = find_slot(table_, h, key);
  buckets_probed_ += p.buckets;
  LookupResult r;
  r.examined = p.examined;
  if (p.slot != kNpos) {
    r.pcb = table_.pcbs[p.slot];
  } else if (resize_.migrating()) [[unlikely]] {
    // Mid-migration a resident may still sit in the draining array; both
    // probes' examined counts are charged (the paper's metric counts
    // every key compared, whichever array holds it).
    const Table& old = resize_.old()->table;
    const Probe q = find_slot(old, h, key);
    buckets_probed_ += q.buckets;
    r.examined += q.examined;
    if (q.slot != kNpos) r.pcb = old.pcbs[q.slot];
  }
  note_lookup(r);
  if (resize_.migrating()) [[unlikely]] {
    resize_.migrate_batch(*this, kMigrateLookupBatch);
  }
  return r;
}

void CuckooDemuxer::lookup_batch(std::span<const net::FlowKey> keys,
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
  // Same pipeline as the flat table: hash the chunk, issue prefetches for
  // every primary bucket's metadata and key line, then probe. The
  // alternate bucket is rarely touched (that is the filter's job), so
  // prefetching it would waste bandwidth.
  constexpr std::size_t kChunk = 16;
  std::array<std::uint32_t, kChunk> h;
  for (std::size_t base = 0; base < keys.size(); base += kChunk) {
    const std::size_t n = std::min(kChunk, keys.size() - base);
    for (std::size_t i = 0; i < n; ++i) {
      h[i] = hash_of(keys[base + i]);
      prefetch_read(&table_.meta[h[i] & table_.bucket_mask]);
    }
    for (std::size_t i = 0; i < n; ++i) {
      prefetch_read(&table_.keys[(h[i] & table_.bucket_mask) * kBucketWidth]);
    }
    for (std::size_t i = 0; i < n; ++i) {
      const Probe p = find_slot(table_, h[i], keys[base + i]);
      buckets_probed_ += p.buckets;
      LookupResult r;
      r.examined = p.examined;
      if (p.slot != kNpos) r.pcb = table_.pcbs[p.slot];
      note_lookup(r);
      results[base + i] = r;
    }
  }
}

LookupResult CuckooDemuxer::lookup_wildcard(const net::FlowKey& key) {
  // Exact probe first (cheap), then BSD best-match over every resident —
  // wildcard-bearing keys hash elsewhere, so nothing short of a sweep can
  // find them. Same contract as the flat table. Both arrays are probed
  // and swept while a migration drains.
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
      if (t.tag_at(i) == 0) continue;
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

void CuckooDemuxer::for_each_pcb(
    const std::function<void(const Pcb&)>& fn) const {
  const auto visit = [&fn](const Table& t) {
    for (std::size_t i = 0; i < t.capacity(); ++i) {
      if (t.tag_at(i) != 0) fn(*t.pcbs[i]);
    }
  };
  visit(table_);
  if (const auto* old = resize_.old()) visit(old->table);
}

std::vector<std::size_t> CuckooDemuxer::occupancy() const {
  std::vector<std::size_t> buckets;
  const auto append = [&buckets](const Table& t) {
    for (const BucketMeta& m : t.meta) {
      buckets.push_back(static_cast<std::size_t>(
          std::count_if(m.tags.begin(), m.tags.end(),
                        [](std::uint8_t tag) { return tag != 0; })));
    }
  };
  append(table_);
  if (const auto* old = resize_.old()) append(old->table);
  return buckets;
}

ResilienceStats CuckooDemuxer::resilience() const {
  return resize_.resilience(*this);
}

std::size_t CuckooDemuxer::memory_bytes() const {
  constexpr std::size_t kPerBucket =
      sizeof(BucketMeta) + sizeof(std::array<std::uint16_t, 16>);
  constexpr std::size_t kPerSlot = sizeof(std::uint32_t) +
                                   sizeof(net::FlowKey) +
                                   sizeof(Pcb*);
  std::size_t bytes = slab_.bytes() + sizeof(*this) +
                      bucket_count() * kPerBucket + capacity() * kPerSlot;
  if (const auto* old = resize_.old()) {
    bytes += sizeof(*old) + old->table.bucket_count() * kPerBucket +
             old->table.capacity() * kPerSlot;
  }
  return bytes;
}

std::string CuckooDemuxer::name() const {
  std::string n = "cuckoo(cap=";
  n += std::to_string(capacity());
  n += ',';
  n += net::hash_spec_name(options_.hasher);
  if (options_.rehash_on_overload) n += ",rehash";
  if (options_.max_pcbs != 0) n += ",max=" + std::to_string(options_.max_pcbs);
  n += ')';
  return n;
}

}  // namespace tcpdemux::core

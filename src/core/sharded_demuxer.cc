#include "core/sharded_demuxer.h"

#include <string>

namespace tcpdemux::core {

ShardedDemuxer::ShardedDemuxer(const Options& options)
    : steering_(options.steering),
      indirection_(options.shards == 0 ? 1 : options.shards,
                   options.indirection_entries) {
  const std::uint32_t n = options.shards == 0 ? 1 : options.shards;
  shards_.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    shards_.push_back(make_demuxer(options.inner));
  }
}

std::uint32_t ShardedDemuxer::owning_shard(const Pcb* pcb,
                                           const net::FlowKey& key) const {
  const std::uint32_t home = home_shard(key);
  if (!misplaced_possible_) return home;
  for (std::uint32_t i = 0; i < shard_count(); ++i) {
    const std::uint32_t s = (home + i) % shard_count();
    if (shards_[s]->find(key) == pcb) return s;
  }
  return shard_count();
}

Pcb* ShardedDemuxer::insert(const net::FlowKey& key) {
  // Once steering has drifted, the key may already live on the shard an
  // earlier table steered it to. A home-shard-only duplicate check would
  // then admit a second PCB for the same flow — the cross-shard
  // no-duplicate-key invariant the validator enforces.
  if (misplaced_possible_ && find(key) != nullptr) return nullptr;
  return shards_[home_shard(key)]->insert(key);
}

bool ShardedDemuxer::erase(const net::FlowKey& key) {
  const std::uint32_t home = home_shard(key);
  bool erased = shards_[home]->erase(key);
  if (!erased && misplaced_possible_) {
    for (std::uint32_t s = 0; s < shard_count() && !erased; ++s) {
      if (s != home) erased = shards_[s]->erase(key);
    }
  }
  // An empty fleet has no misplaced PCBs by definition: disarm the
  // fallback path so steady-state cost returns to one shard per lookup.
  if (erased && misplaced_possible_ && size() == 0) {
    misplaced_possible_ = false;
  }
  return erased;
}

LookupResult ShardedDemuxer::lookup(const net::FlowKey& key,
                                    SegmentKind kind) {
  const std::uint32_t home = home_shard(key);
  LookupResult r = shards_[home]->lookup(key, kind);
  if (r.pcb == nullptr && misplaced_possible_) [[unlikely]] {
    // Mis-steered flow: its PCB stayed on the shard a previous steering
    // function homed it to. Sweep the other shards; each probe's examined
    // PCBs are real work and are charged to this lookup.
    for (std::uint32_t s = 0; s < shard_count(); ++s) {
      if (s == home) continue;
      const LookupResult probe = shards_[s]->lookup(key, kind);
      r.examined += probe.examined;
      if (probe.pcb != nullptr) {
        r.pcb = probe.pcb;
        r.cache_hit = probe.cache_hit;
        ++cross_shard_hits_;
        break;
      }
    }
  }
  // A fleet lookup is one lookup, however many shards it probed: the
  // parent's funnel counts it, and telemetry() takes the lookup histograms
  // from the parent only.
  note_lookup(r);
  return r;
}

void ShardedDemuxer::lookup_batch(std::span<const net::FlowKey> keys,
                                  std::span<LookupResult> results,
                                  SegmentKind kind) {
  if (misplaced_possible_) [[unlikely]] {
    // Fallback sweeps are per-key control flow; batching buys nothing.
    for (std::size_t i = 0; i < keys.size(); ++i) {
      results[i] = lookup(keys[i], kind);
    }
    return;
  }
  // Partition the burst by home shard (stable within each shard, so each
  // inner demuxer sees its subsequence in arrival order — per-shard stats
  // match the scalar loop exactly), batch-probe each shard once, then
  // scatter results back to arrival positions.
  const std::size_t n = keys.size();
  batch_shard_.resize(n);
  batch_shard_n_.assign(shard_count(), 0);
  for (std::size_t i = 0; i < n; ++i) {
    batch_shard_[i] = home_shard(keys[i]);
    ++batch_shard_n_[batch_shard_[i]];
  }
  batch_keys_.resize(n);
  batch_results_.resize(n);
  batch_index_.resize(n);
  batch_offset_.assign(shard_count(), 0);
  for (std::uint32_t s = 1; s < shard_count(); ++s) {
    batch_offset_[s] = batch_offset_[s - 1] + batch_shard_n_[s - 1];
  }
  batch_cursor_ = batch_offset_;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t slot = batch_cursor_[batch_shard_[i]]++;
    batch_keys_[slot] = keys[i];
    batch_index_[slot] = static_cast<std::uint32_t>(i);
  }
  for (std::uint32_t s = 0; s < shard_count(); ++s) {
    const std::size_t count = batch_shard_n_[s];
    if (count == 0) continue;
    const std::size_t first = batch_offset_[s];
    shards_[s]->lookup_batch(
        std::span<const net::FlowKey>(batch_keys_).subspan(first, count),
        std::span<LookupResult>(batch_results_).subspan(first, count), kind);
  }
  for (std::size_t slot = 0; slot < n; ++slot) {
    results[batch_index_[slot]] = batch_results_[slot];
  }
  for (std::size_t i = 0; i < n; ++i) note_lookup(results[i]);
}

void ShardedDemuxer::note_sent(Pcb* pcb) {
  if (pcb == nullptr) return;
  const std::uint32_t s = owning_shard(pcb, pcb->key);
  if (s < shard_count()) shards_[s]->note_sent(pcb);
}

Pcb* ShardedDemuxer::find(const net::FlowKey& key) const {
  // Every shard's find() is ledger-free, so neither the fleet's nor any
  // shard's stats move, however many shards a drifted key costs.
  const std::uint32_t home = home_shard(key);
  const std::uint32_t probes = misplaced_possible_ ? shard_count() : 1;
  for (std::uint32_t i = 0; i < probes; ++i) {
    if (Pcb* const pcb = shards_[(home + i) % shard_count()]->find(key)) {
      return pcb;
    }
  }
  return nullptr;
}

std::size_t ShardedDemuxer::size() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) total += shard->size();
  return total;
}

std::size_t ShardedDemuxer::memory_bytes() const {
  std::size_t total = sizeof(*this) +
                      indirection_.entries() * sizeof(std::uint32_t);
  for (const auto& shard : shards_) total += shard->memory_bytes();
  return total;
}

void ShardedDemuxer::for_each_pcb(
    const std::function<void(const Pcb&)>& fn) const {
  for (const auto& shard : shards_) shard->for_each_pcb(fn);
}

std::string ShardedDemuxer::name() const {
  return "sharded(" + std::to_string(shard_count()) + "x" +
         shards_[0]->name() + ")";
}

bool ShardedDemuxer::migration_step() {
  bool remaining = false;
  for (const auto& shard : shards_) remaining |= shard->migration_step();
  return remaining;
}

std::vector<std::size_t> ShardedDemuxer::occupancy() const {
  // One entry per shard: interval_sample's occ_skew then reads directly
  // as cross-shard imbalance (the steering-quality telemetry the paper's
  // shared-table analysis has no analogue for).
  std::vector<std::size_t> occ(shard_count());
  for (std::uint32_t s = 0; s < shard_count(); ++s) {
    occ[s] = shards_[s]->size();
  }
  return occ;
}

report::Telemetry ShardedDemuxer::telemetry() const {
  // The parent's registry holds the fleet's lookup histograms; the shards
  // contribute their table-side counters and resize histograms.
  report::Telemetry merged = *telemetry_;
  for (const auto& shard : shards_) {
    merged.merge_from(shard->telemetry());
  }
  return merged;
}

void ShardedDemuxer::enable_telemetry_histograms(bool on) noexcept {
  Demuxer::enable_telemetry_histograms(on);
  for (const auto& shard : shards_) shard->enable_telemetry_histograms(on);
}

void ShardedDemuxer::reset_stats() noexcept {
  Demuxer::reset_stats();
  // Keep the shard ledgers a partition of the parent's while steering is
  // stable, so per-shard counts stay comparable after a reset.
  for (const auto& shard : shards_) shard->reset_stats();
}

void ShardedDemuxer::set_indirection_entry(std::uint32_t index,
                                           std::uint32_t queue) {
  indirection_.set_entry(index, queue % shard_count());
  if (size() != 0) misplaced_possible_ = true;
}

void ShardedDemuxer::rotate_steering_seed() {
  steering_.seed = net::next_seed(steering_.seed);
  if (size() != 0) misplaced_possible_ = true;
}

}  // namespace tcpdemux::core

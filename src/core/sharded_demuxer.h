// Sharded receive path: N independent inner demuxers fed by RSS steering.
//
// The paper's cost model assumes one shared PCB table; its modern failure
// mode is not probe length but cache-coherence traffic on that shared
// state. Receive-side scaling sidesteps the sharing entirely: the NIC
// Toeplitz-hashes each frame and steers it to a per-core queue, and each
// core owns a private PCB table that no other core ever touches (the
// IncludeOS tcp_smp design). This class is the host half of that split:
//
//   * steering — net::rss_steer (Toeplitz by default) over an
//     RssIndirectionTable maps every flow key to its *home shard*; insert,
//     erase, and lookup all go to the home shard, so in steady state a
//     shard only ever sees its own flows;
//   * mis-steering — the host can rewrite indirection entries or rotate
//     the steering seed while flows are live (rebalancing, key rotation,
//     NAT rebinding). PCBs deliberately stay on the shard that owns them —
//     migrating established TCP state is the expensive path the handoff
//     protocol exists to avoid — so lookups for re-steered flows miss on
//     the new home shard and fall back to probing the others. The
//     `misplaced_possible` flag gates that slow path — and the same
//     fallback in find(), erase and insert's duplicate check: until
//     steering mutates, no operation ever pays for it;
//   * aggregation — stats/size/occupancy/telemetry present the shard
//     fleet as one demuxer. lookup() funnels each fleet lookup once
//     through the parent's note_lookup(), so stats() and the parent's
//     lookup histograms count it once however many shards a drifted
//     lookup probed. telemetry() copies those histograms and merges the
//     shards' table-side counters and resize histograms into a fresh value
//     on every read (Telemetry::merge_from), so repeated reads never
//     double-count; occupancy() reports per-shard sizes, which is exactly
//     what interval_sample needs to expose cross-shard skew.
//
// Single-threaded by contract, like every registry backend: the bench
// harness gets its parallelism by driving shard(i) from thread i, which is
// the real deployment shape (each core runs its own shard; the parent view
// is a control-plane object).
#ifndef TCPDEMUX_CORE_SHARDED_DEMUXER_H_
#define TCPDEMUX_CORE_SHARDED_DEMUXER_H_

#include <memory>
#include <vector>

#include "core/demux_registry.h"
#include "core/demuxer.h"
#include "net/rss.h"

namespace tcpdemux::core {

class ShardedDemuxer : public Demuxer {
 public:
  struct Options {
    std::uint32_t shards = 4;
    /// Per-shard backend; every shard gets an identical instance.
    DemuxConfig inner;
    /// Steering hash. Toeplitz unkeyed by default — what NIC RSS computes.
    net::HashSpec steering{net::HasherKind::kToeplitz, 0};
    std::uint32_t indirection_entries = net::RssIndirectionTable::kDefaultEntries;
  };

  explicit ShardedDemuxer(const Options& options);

  Pcb* insert(const net::FlowKey& key) override;
  bool erase(const net::FlowKey& key) override;
  LookupResult lookup(const net::FlowKey& key, SegmentKind kind) override;
  using Demuxer::lookup;
  void lookup_batch(std::span<const net::FlowKey> keys,
                    std::span<LookupResult> results,
                    SegmentKind kind = SegmentKind::kData) override;
  void note_sent(Pcb* pcb) override;
  /// The home shard, then — only once steering has drifted — the others.
  [[nodiscard]] Pcb* find(const net::FlowKey& key) const override;
  [[nodiscard]] std::size_t size() const override;
  [[nodiscard]] std::size_t memory_bytes() const override;
  void for_each_pcb(
      const std::function<void(const Pcb&)>& fn) const override;
  [[nodiscard]] std::string name() const override;
  bool migration_step() override;
  [[nodiscard]] std::vector<std::size_t> occupancy() const override;

  /// Merged fleet view, built fresh on every call: the parent's lookup
  /// histograms plus each shard's table-side counters and resize
  /// histograms (Telemetry::merge_from). The parent records no table
  /// events and the shards' lookup histograms are not merged, so nothing
  /// is counted twice no matter how often shards and parent are read.
  [[nodiscard]] report::Telemetry telemetry() const override;
  void enable_telemetry_histograms(bool on) noexcept override;
  void reset_stats() noexcept override;

  // --- sharded-specific surface -------------------------------------

  [[nodiscard]] std::uint32_t shard_count() const noexcept {
    return static_cast<std::uint32_t>(shards_.size());
  }
  /// Direct shard access: bench threads drive shard(i) from core i, and
  /// the NIC dispatch delivers per-queue traffic straight to its shard.
  /// A lookup issued on a shard is counted by that shard alone, not by
  /// the fleet's stats() or its lookup histograms.
  [[nodiscard]] Demuxer& shard(std::uint32_t i) noexcept {
    return *shards_[i];
  }
  [[nodiscard]] const Demuxer& shard(std::uint32_t i) const noexcept {
    return *shards_[i];
  }

  /// The shard steering currently assigns `key` to.
  [[nodiscard]] std::uint32_t home_shard(const net::FlowKey& key) const noexcept {
    return net::rss_steer(steering_, key, indirection_);
  }
  [[nodiscard]] const net::HashSpec& steering() const noexcept {
    return steering_;
  }
  [[nodiscard]] const net::RssIndirectionTable& indirection() const noexcept {
    return indirection_;
  }

  /// Host-side rewrite of one indirection entry (rebalance / flow-director
  /// override). Live flows whose hash lands on this entry are re-steered
  /// away from the shard that owns their PCB, so the cross-shard fallback
  /// path arms permanently (until the table empties).
  void set_indirection_entry(std::uint32_t index, std::uint32_t queue);

  /// Rotates the steering seed (hash-key rotation under flood). Every
  /// established flow may now be steered to a different shard; arms the
  /// fallback path like set_indirection_entry.
  void rotate_steering_seed();

  /// True when steering has mutated since the table was last empty —
  /// i.e. when lookups may need the cross-shard fallback.
  [[nodiscard]] bool misplaced_possible() const noexcept {
    return misplaced_possible_;
  }
  /// Lookups resolved on a non-home shard via the fallback sweep — the
  /// demuxer-level mis-steer indicator.
  [[nodiscard]] std::uint64_t cross_shard_hits() const noexcept {
    return cross_shard_hits_;
  }

 private:
  // StructuralValidator checks the cross-shard no-duplicate-key and
  // home-placement invariants from the inside, like every backend.
  friend class StructuralValidator;

  /// The shard that owns `pcb` (home shard in steady state; a find() on
  /// each shard, home first, when steering has drifted). Returns
  /// shard_count() when not found.
  [[nodiscard]] std::uint32_t owning_shard(const Pcb* pcb,
                                           const net::FlowKey& key) const;

  net::HashSpec steering_;
  net::RssIndirectionTable indirection_;
  std::vector<std::unique_ptr<Demuxer>> shards_;
  bool misplaced_possible_ = false;
  std::uint64_t cross_shard_hits_ = 0;
  // Scratch for lookup_batch's partition-by-shard (member, not per-call
  // allocation).
  std::vector<std::uint32_t> batch_shard_;
  std::vector<net::FlowKey> batch_keys_;
  std::vector<LookupResult> batch_results_;
  std::vector<std::uint32_t> batch_index_;
  std::vector<std::size_t> batch_shard_n_;  ///< keys per shard
  std::vector<std::size_t> batch_offset_;   ///< each shard's first slot
  std::vector<std::size_t> batch_cursor_;   ///< each shard's next slot
};

}  // namespace tcpdemux::core

#endif  // TCPDEMUX_CORE_SHARDED_DEMUXER_H_

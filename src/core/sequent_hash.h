// The Sequent hashed PCB lookup algorithm (paper §3.4) — the paper's
// primary contribution — and, with growth switched on, the host default.
//
// H hash chains, each a linear list with its own single-entry last-found
// cache. The flow key is hashed to pick a chain; the chain's cache is
// probed; on miss the chain is scanned linearly. Expected cost (Eq 19
// approximation): C(N,H) = C_BSD(N/H), approaching N/2H — an order of
// magnitude below BSD, MTF, and the send/receive cache at TPC/A scale.
// The installation default was H = 19 chains (a prime, so it repairs the
// weak low-order bits of cheap fold hashes).
//
// The per-chain cache may be disabled (`Options::per_chain_cache = false`)
// to reproduce the ablation in §3.4's closing discussion: the miss penalty
// dominates the hit ratio, so the cache's benefit is modest once chains are
// short.
//
// `Options::grow` turns the paper's "the system administrator may increase
// the value of H" into policy (the registry's `dynamic`): when the mean
// load exceeds `max_load`, the table moves to the next prime roughly twice
// the size through its ResizeEngine, relinking the existing PCBs in
// place (no PCB is reallocated, so Pcb* handles stay valid — the same
// guarantee a kernel needs). This is the direction production stacks took
// (dynamically sized inpcb hash tables in later BSDs, Linux's ehash).
// Growth is a construction-time switch: with it off the table never
// migrates, and the fast path pays one predicted branch for it.
#ifndef TCPDEMUX_CORE_SEQUENT_HASH_H_
#define TCPDEMUX_CORE_SEQUENT_HASH_H_

#include <cstdint>
#include <vector>

#include "core/demuxer.h"
#include "core/page_memory.h"
#include "core/pcb_list.h"
#include "core/pcb_slab.h"
#include "core/resize_policy.h"
#include "net/hashers.h"

namespace tcpdemux::core {

class SequentDemuxer final : public Demuxer {
 public:
  struct Options {
    /// H, the chain count (the starting one when `grow` is set).
    std::uint32_t chains = 19;  ///< installation default in Sequent PTX
    net::HashSpec hasher = net::HasherKind::kXorFold;  ///< seed 0 = unkeyed
    bool per_chain_cache = true;
    /// Rotate the hash seed and rebuild the chains when the longest chain
    /// exceeds the overload watermark (collision-flood defense).
    bool rehash_on_overload = false;
    /// Refuse inserts beyond this many PCBs (0 = unbounded). Refused
    /// inserts return nullptr and count in resilience().inserts_shed.
    std::size_t max_pcbs = 0;
    /// Grow H when size > max_load * H. Growth dilutes benign skew but not
    /// a collision flood: pair a keyed hasher with the cap (or rotation)
    /// for hostile deployments. The outgoing chains drain a bounded batch
    /// per operation, so no operation relinks more than kMigrateBatch PCBs
    /// outside a force-finish; the insert that fires the trigger maps the
    /// doubled bucket table but writes none of it (see DESIGN.md
    /// "Incremental resize & degradation ladder").
    bool grow = false;
    /// A float keeps Options at 32 bytes, so everything lookup() reads
    /// (options_, buckets_, the engine's outgoing-table pointer) fits in
    /// the 64 bytes right after the Demuxer base (pinned by
    /// Sequent.LookupMembersFitTheLineAfterTheBase).
    float max_load = 2.0F;
  };

  SequentDemuxer() : SequentDemuxer(Options()) {}
  explicit SequentDemuxer(Options options);

  Pcb* insert(const net::FlowKey& key) override;
  bool erase(const net::FlowKey& key) override;
  using Demuxer::lookup;
  LookupResult lookup(const net::FlowKey& key, SegmentKind kind) override;
  /// Pipelined batch: hashes the burst, prefetches every target chain's
  /// bucket header and cached/head PCB, then probes. Results and stats are
  /// exactly those of scalar lookups issued in order.
  void lookup_batch(std::span<const net::FlowKey> keys,
                    std::span<LookupResult> results,
                    SegmentKind kind) override;
  LookupResult lookup_wildcard(const net::FlowKey& key) override;
  [[nodiscard]] std::size_t size() const override { return size_; }
  void for_each_pcb(
      const std::function<void(const Pcb&)>& fn) const override;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::size_t memory_bytes() const override;
  bool migration_step() override;

  /// The live chain count H.
  [[nodiscard]] std::uint32_t chains() const noexcept {
    return static_cast<std::uint32_t>(buckets_.size());
  }
  /// Table doublings so far (the paper's "increase H"): a view of the
  /// telemetry registry's `resizes_started`, so it resets with it. A seed
  /// rotation is never a doubling; it counts in `rehashes`.
  [[nodiscard]] std::uint64_t doublings() const noexcept {
    return telemetry_->counters().resizes_started;
  }
  /// Occupancy of each live chain (test/bench hook).
  [[nodiscard]] std::vector<std::size_t> chain_sizes() const;
  /// Live chains, then (mid-migration) the outgoing ones.
  [[nodiscard]] std::vector<std::size_t> occupancy() const override;
  /// The PCB cached on `chain` (test hook).
  [[nodiscard]] const Pcb* cached(std::uint32_t chain) const {
    return buckets_[chain].cache;
  }

  [[nodiscard]] ResilienceStats resilience() const override;
  /// Current hash spec (seed changes after an overload rehash; test hook).
  [[nodiscard]] net::HashSpec hash_spec() const noexcept {
    return options_.hasher;
  }
  /// Longest chain an overload check tolerates at the current size: benign
  /// traffic stays far below it (a balanced table's worst chain is within a
  /// small factor of load N/H), while a flood aimed at one chain crosses it
  /// after ~the constant term.
  [[nodiscard]] std::uint64_t watermark_limit() const noexcept {
    return 16 + 8 * (size_ / chains() + 1);
  }

  /// The next prime >= 2 * n from a fixed doubling-prime ladder (exposed
  /// for tests).
  [[nodiscard]] static std::uint32_t next_table_size(std::uint32_t n) noexcept;

 private:
  friend class StructuralValidator;   // src/core/validate.h
  friend struct ValidatorTestAccess;  // negative validator tests only

  /// A chain header: the list head and the chain's last-found cache,
  /// 16 bytes, so four share a cache line and none straddles one — the
  /// lookup's first miss brings in exactly its own header. All-zero bytes
  /// is an empty chain with a cold cache (kZeroDefault), so a table is not
  /// written when it is built.
  struct alignas(16) Bucket {
    static constexpr bool kZeroDefault = true;
    PcbList list;
    Pcb* cache = nullptr;
  };
  static_assert(sizeof(Bucket) == 16 && 64 % alignof(Bucket) == 0,
                "four bucket headers per cache line");
  static_assert(core::kZeroDefault<Bucket>,
                "a fresh bucket table is zero pages, not a constructor loop");
  /// A bucket array is its own mapping: one of 2 MiB or more sits on huge
  /// pages (a hash table's inserts touch it throughout), and a table freed
  /// by a doubling or a seed rotation goes back to the kernel instead of
  /// staying resident as a heap hole.
  using Table = PageVector<Bucket>;
  template <class>
  friend class ResizeEngine;

  [[nodiscard]] std::uint32_t chain_of(const net::FlowKey& key) const noexcept {
    return chain_in(buckets_, key);
  }
  [[nodiscard]] std::uint32_t chain_in(const Table& table,
                                       const net::FlowKey& key) const noexcept {
    return net::hash_chain(options_.hasher, key,
                           static_cast<std::uint32_t>(table.size()));
  }

  /// The lookup fast path against one bucket (cache probe, then chain
  /// scan, cache install); shared by lookup() and lookup_batch().
  LookupResult lookup_in_bucket(Bucket& b, const net::FlowKey& key);

  /// Mid-migration miss path: a live-chain miss also scans the key's
  /// outgoing chain (both scans are charged: the paper's metric counts
  /// every PCB compared, whichever table holds it), then retires one
  /// drain step.
  void lookup_outgoing(const net::FlowKey& key, LookupResult& r);

  /// Watermark bookkeeping after a successful insert that left its chain
  /// `chain_length` long; then the overload policy (seed rotation: the
  /// engine relinks every PCB onto fresh chains, pointer-stable, caches
  /// cold) and the growth policy.
  void note_insert(std::uint64_t chain_length);

  void maybe_grow();
  [[nodiscard]] Table grown_table() const {
    return Table(next_table_size(chains()));
  }
  [[nodiscard]] Table same_size_table() const { return Table(chains()); }
  /// The longest live chain, by walking every chain: a rotation's
  /// watermark (the rotation has just re-placed every resident anyway).
  [[nodiscard]] std::uint64_t rotated_watermark() const noexcept;
  /// Relinks the head PCB of outgoing chain `c` onto its live chain,
  /// hashing with the current seed (all a rotation's sweep needs).
  bool migrate_unit(Table& old, std::size_t c);

  Options options_;
  Table buckets_;
  ResizeEngine<Table> resize_;
  /// Total PCBs across the live and (during migration) outgoing chains.
  std::size_t size_ = 0;
  PcbSlab slab_;
};

}  // namespace tcpdemux::core

#endif  // TCPDEMUX_CORE_SEQUENT_HASH_H_

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
// the size, relinking the existing PCBs in place (no PCB is reallocated,
// so Pcb* handles stay valid — the same guarantee a kernel needs). This is
// the direction production stacks took (dynamically sized inpcb hash
// tables in later BSDs, Linux's ehash). Growth is a construction-time
// switch: with it off the table never migrates, and the fast path pays one
// predicted branch for it.
//
// A growth allocates the whole doubled table, then swings the live one
// behind a drain cursor. Every operation then relinks at most a bounded
// batch (kMigrateBatch per insert or erase, kMigrateLookupBatch per
// lookup) until the outgoing table is empty. Only a force-finish — the
// next growth trigger arriving before the drain ends, or a seed rotation —
// sweeps what is left in one pass. What is bounded is the relinking:
// building the doubled table still happens inside the insert that fires
// the trigger, as a mapping whose zero-default buckets are not written.
// The allocation-failure ladder lives here too: rung 1 defers the doubling
// with exponential backoff, rung 2 sheds inserts past twice the load
// trigger while growth stays blocked (DESIGN.md "Incremental resize &
// degradation ladder").
//
// The collision-flood defence (DESIGN.md "Adversarial resilience") is the
// same machinery at the same size: rotate_seed() allocates a same-size
// table, swings the seed, and re-places every resident with the closing
// sweep, under an overload watermark and a rotation cooldown.
#ifndef TCPDEMUX_CORE_SEQUENT_HASH_H_
#define TCPDEMUX_CORE_SEQUENT_HASH_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/demuxer.h"
#include "core/page_memory.h"
#include "core/pcb_list.h"
#include "core/pcb_slab.h"
#include "net/hashers.h"

namespace tcpdemux::core {

/// Entries migrated per insert/erase (the operations that already paid for
/// a structural write); bounds the tail of the mutation path.
inline constexpr std::size_t kMigrateBatch = 8;

/// Entries migrated per lookup — kept minimal because lookups are the
/// latency-critical path the ladder exists to protect.
inline constexpr std::size_t kMigrateLookupBatch = 1;

/// Empty chains the drain cursor may skip per unit of batch budget
/// before yielding; bounds a batch's work even over sparse regions.
inline constexpr std::size_t kMigrateScanFactor = 64;

/// Allocator-retry backoff window, in inserts: after a new-table
/// allocation fails, the next attempt waits kGrowBackoffMin inserts,
/// doubling per failure up to kGrowBackoffMax (ladder rung 1,
/// defer-and-retry). Rung 2 — shed at the hard watermark — engages only
/// while growth stays blocked.
inline constexpr std::uint64_t kGrowBackoffMin = 16;
inline constexpr std::uint64_t kGrowBackoffMax = 4096;

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
    /// inserts return nullptr and count in the telemetry's inserts_shed.
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
    /// (options_, buckets_, the outgoing-table pointer old_) fits in
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
  /// The key's live chain, then, mid-drain, its outgoing chain.
  [[nodiscard]] Pcb* find(const net::FlowKey& key) const override;
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
  /// The overload watermark: the longest chain an insert has left since
  /// the last seed rotation (the rotation resets it to the longest chain
  /// it leaves behind).
  [[nodiscard]] std::uint64_t watermark() const noexcept { return watermark_; }

  /// The next prime >= 2 * n from a fixed doubling-prime ladder (exposed
  /// for tests).
  [[nodiscard]] static std::uint32_t next_table_size(std::uint32_t n) noexcept;

 private:
  friend class StructuralValidator;   // src/core/validate.h
  friend struct ValidatorTestAccess;  // negative tests and the layout pin

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

  /// The outgoing table during a migration: the live table's type plus the
  /// drain cursor and the residents still waiting in it. Nothing is ever
  /// inserted into it, chains [0, cursor) are drained, and the cursor only
  /// advances past empty chains — so `residents > 0` guarantees an
  /// occupied chain at or past the cursor.
  struct Outgoing {
    Table table;
    std::size_t cursor = 0;
    std::size_t residents = 0;
  };

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
  /// `chain_length` long; then the overload policy (seed rotation: every
  /// PCB relinked onto fresh chains, pointer-stable, caches cold), the
  /// growth policy, and the insert's share of any drain.
  void note_insert(std::uint64_t chain_length);

  /// Rung 2: blocked growth sheds an insert that would take the mean chain
  /// load past twice the growth trigger.
  [[nodiscard]] bool sheds_at_load() const noexcept {
    return blocked_ && static_cast<double>(size_ + 1) >
                           2.0 * options_.max_load *
                               static_cast<double>(buckets_.size());
  }

  /// The growth trigger: past max_load and below the top of the prime
  /// ladder, finishes a drain still in flight (churn outpaced migration),
  /// honours the retry backoff, then starts the next doubling.
  void maybe_grow();

  /// Relinks the head PCB of outgoing chain `c` onto its live chain,
  /// hashing with the current seed; false when the chain is empty.
  bool migrate_unit(Table& old, std::size_t c);

  /// Moves up to `budget` residents, skipping at most
  /// kMigrateScanFactor * budget empty chains, so every operation's share
  /// of the drain is O(budget). No-op when not migrating.
  void migrate_batch(std::size_t budget);

  /// Moves every resident of `old` into the live table in chain order.
  void sweep(Outgoing& old);

  /// Drains the outgoing table completely in one sweep in chain order: the
  /// force-finish before a second doubling or a seed rotation. No-op when
  /// not migrating.
  void finish_migration();

  /// Allocates the doubled table, then swings the live one behind the
  /// drain cursor. The allocation comes first and nothing after it can
  /// fail, so a refused allocation (injected or real) leaves the live
  /// table untouched and only steps the ladder (rung 1: block growth and
  /// arm an exponentially backed-off retry countdown, in inserts).
  void start_migration();

  /// The outgoing table is empty: retire it.
  void complete_migration();

  /// Rotates the hash seed. Finishes any drain in flight (its table hashes
  /// under the outgoing seed), restarts the cooldown, and allocates a
  /// complete same-size table before touching anything: a refused
  /// allocation (injected or real) keeps the current seed, steps no growth
  /// ladder, and leaves the retry to a watermark_limit() cooldown. Only
  /// then does the seed move to net::next_seed; the live table swings out
  /// and the closing sweep re-places every resident in chain order under
  /// the new seed, and the watermark becomes the longest chain it leaves.
  /// A rotation that leaves the watermark over the limit doubles the
  /// cooldown before the next attempt. Counts once in `rehashes` and in no
  /// resize counter.
  void rotate_seed();

  Options options_;
  Table buckets_;
  /// The outgoing table, null unless migrating. lookup() reads it within
  /// the 64 bytes after the Demuxer base, so new state goes below it
  /// (pinned by ValidatorTestAccess::lookup_members).
  std::unique_ptr<Outgoing> old_;
  bool blocked_ = false;        ///< growth allocation-blocked (rung 1)
  std::uint64_t backoff_ = 0;   ///< current retry backoff, in inserts
  std::uint64_t retry_in_ = 0;  ///< inserts until the next retry
  std::uint64_t watermark_ = 0;
  std::uint64_t since_rotation_ = 0;  ///< inserts since the last attempt
  /// Hysteresis: at most one rotation attempt per cooldown_ further
  /// inserts; 0 until the first attempt. The cooldown is watermark_limit()
  /// after a rotation that brought the watermark back under the limit, and
  /// doubles after each one that could not (full 32-bit collisions survive
  /// the seeded post-mix of non-SipHash kinds). So a flood no seed can
  /// break buys O(log n) whole-table re-placements over n inserts, not
  /// O(n / limit), and benign traffic that briefly crossed the line gets a
  /// fresh start.
  std::uint64_t cooldown_ = 0;
  /// Total PCBs across the live and (during migration) outgoing chains.
  std::size_t size_ = 0;
  PcbSlab slab_;
};

}  // namespace tcpdemux::core

#endif  // TCPDEMUX_CORE_SEQUENT_HASH_H_

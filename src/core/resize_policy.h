// The resize engine shared by every growing or seed-rotating backend
// (sequent/dynamic, flat, cuckoo; see DESIGN.md "Incremental
// resize & degradation ladder").
//
// A growth is start_migration(): allocate the whole new table, then swing
// the live one behind a drain cursor. Every operation then relinks at most
// a bounded batch (kMigrateBatch per insert or erase, kMigrateLookupBatch
// per lookup) until the outgoing table is empty. Only a force-finish —
// the next growth trigger arriving before the drain ends, or a seed
// rotation — sweeps what is left in one pass. What is bounded is the
// relinking: building the doubled table (grown_table()) still happens
// inside the insert that fires the trigger — only a mapping for the
// chained tables, whose zero-default buckets are not written, but a full
// construction for flat and cuckoo. The allocation-failure ladder
// lives here too: rung 1 defers the doubling with exponential backoff,
// rung 2 sheds inserts at a hard watermark while growth stays blocked.
//
// The collision-flood defence (DESIGN.md "Adversarial resilience") is the
// same machinery at the same size: rotate_seed() allocates a same-size
// table, swings the seed, and re-places every resident with the closing
// sweep. The engine keeps the overload watermark and the rotation
// cooldown; the backend keeps its trigger.
//
// A backend supplies its table type and these hooks, reached through
// friendship:
//   Table grown_table() const;      // the next doubling, empty; may throw
//   Table same_size_table() const;  // a rotation's table, empty; may throw
//   bool migrate_unit(Table& old, std::size_t unit, DrainMode mode);
//   std::uint64_t watermark_limit() const;    // the overload trigger
//   std::uint64_t rotated_watermark() const;  // the watermark a rotation
//                                             // leaves behind
// migrate_unit moves one resident out of drain unit `unit` (a slot or a
// chain) of the outgoing table into the live one and returns true, or
// returns false when the unit is empty. The seed a rotation swings is
// `options_.hasher.seed`.
#ifndef TCPDEMUX_CORE_RESIZE_POLICY_H_
#define TCPDEMUX_CORE_RESIZE_POLICY_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>

#include "core/demuxer.h"
#include "core/fault_inject.h"
#include "net/hashers.h"
#include "report/telemetry.h"

namespace tcpdemux::core {

/// Entries migrated per insert/erase (the operations that already paid for
/// a structural write); bounds the tail of the mutation path.
inline constexpr std::size_t kMigrateBatch = 8;

/// Entries migrated per lookup — kept minimal because lookups are the
/// latency-critical path the ladder exists to protect.
inline constexpr std::size_t kMigrateLookupBatch = 1;

/// Empty slots/buckets the drain cursor may skip per unit of batch budget
/// before yielding; bounds a batch's work even over sparse regions.
inline constexpr std::size_t kMigrateScanFactor = 64;

/// Allocator-retry backoff window, in inserts: after a new-table
/// allocation fails, the next attempt waits kGrowBackoffMin inserts,
/// doubling per failure up to kGrowBackoffMax (ladder rung 1,
/// defer-and-retry). Rung 2 — shed at the hard watermark — engages only
/// while growth stays blocked.
inline constexpr std::uint64_t kGrowBackoffMin = 16;
inline constexpr std::uint64_t kGrowBackoffMax = 4096;

/// How a migrate_unit call may leave the outgoing table. A bounded step
/// must keep it fully probe-able (lookups and erases still search it); a
/// closing sweep discards it afterwards, so a backend may skip repairs.
/// kRehash is a seed rotation's sweep: the seed has just changed, so a
/// backend that stores hashes must recompute each one from its key.
enum class DrainMode : std::uint8_t { kStep, kSweep, kRehash };

/// The outgoing table during a migration: the live table's own type plus
/// the drain cursor and the residents still waiting in it. Nothing is ever
/// inserted into it, units [0, cursor) are drained, and the cursor only
/// advances past empty units — so `residents > 0` guarantees an occupied
/// unit at or past the cursor.
template <class Table>
struct Outgoing {
  Table table;
  std::size_t cursor = 0;
  std::size_t residents = 0;
};

template <class Table>
class ResizeEngine {
 public:
  [[nodiscard]] bool migrating() const noexcept { return old_ != nullptr; }
  [[nodiscard]] Outgoing<Table>* old() noexcept { return old_.get(); }
  [[nodiscard]] const Outgoing<Table>* old() const noexcept {
    return old_.get();
  }
  /// Residents still waiting in the outgoing table (0 when not migrating).
  [[nodiscard]] std::size_t debt() const noexcept {
    return old_ == nullptr ? 0 : old_->residents;
  }
  /// True while growth is allocation-blocked (ladder rung 1 engaged).
  [[nodiscard]] bool blocked() const noexcept { return blocked_; }

  /// Rung 2 for open addressing: blocked growth sheds an insert that would
  /// take occupancy past 15/16 of `capacity`, rather than let probe runs
  /// degrade toward a full table.
  [[nodiscard]] bool sheds_at_watermark(std::size_t size,
                                        std::size_t capacity) const noexcept {
    return blocked_ && (size + 1) * 16 > capacity * 15;
  }
  /// Rung 2 for chained tables: blocked growth sheds an insert that would
  /// take the mean chain load past twice the growth trigger.
  [[nodiscard]] bool sheds_at_load(std::size_t size, std::size_t chains,
                                   double max_load) const noexcept {
    return blocked_ && static_cast<double>(size + 1) >
                           2.0 * max_load * static_cast<double>(chains);
  }

  /// The growth trigger fired. Finishes a drain still in flight (churn
  /// outpaced migration), honours the retry backoff, then starts the next
  /// doubling, whose outgoing table migrate_batch() drains. Returns true
  /// if a new table was swung in.
  template <class Backend>
  bool grow(Backend& b, Table& live) {
    finish_migration(b);
    if (blocked_ && retry_in_ > 0) {
      --retry_in_;
      return false;
    }
    return start_migration(b, live);
  }

  /// Moves up to `budget` residents, skipping at most
  /// kMigrateScanFactor * budget empty units, so every operation's share
  /// of the drain is O(budget). No-op when not migrating.
  template <class Backend>
  void migrate_batch(Backend& b, std::size_t budget) {
    if (old_ == nullptr) return;
    Outgoing<Table>& old = *old_;
    std::size_t moved = 0;
    std::size_t scanned = 0;
    const std::size_t scan_budget = budget * kMigrateScanFactor;
    while (moved < budget && old.residents > 0) {
      if (!b.migrate_unit(old.table, old.cursor, DrainMode::kStep)) {
        ++old.cursor;
        if (++scanned >= scan_budget) break;
        continue;
      }
      --old.residents;
      ++moved;
    }
    b.telemetry_->on_resize_step(moved, old.residents);
    if (old.residents == 0) complete(b);
  }

  /// Drains the outgoing table completely in one sweep in unit order: the
  /// force-finish before a second doubling or a seed rotation. No-op when
  /// not migrating.
  template <class Backend>
  void finish_migration(Backend& b) {
    if (old_ == nullptr) return;
    const std::size_t moved = old_->residents;
    sweep(b, *old_, DrainMode::kSweep);
    b.telemetry_->on_resize_step(moved, 0);
    complete(b);
  }

  /// A resident left the outgoing table by erase.
  template <class Backend>
  void note_erased(Backend& b) {
    if (--old_->residents == 0) complete(b);
  }

  /// The overload watermark: the worst insert signal (chain length, probe
  /// distance or kick-search effort) since the last rotation.
  [[nodiscard]] std::uint64_t watermark() const noexcept { return watermark_; }
  void raise_watermark(std::uint64_t signal) noexcept {
    watermark_ = std::max(watermark_, signal);
  }
  /// An insert landed with overload reading `signal`.
  void note_insert(std::uint64_t signal) noexcept {
    raise_watermark(signal);
    ++since_rotation_;
  }
  /// Hysteresis: at most one rotation attempt per cooldown_ further
  /// inserts. The cooldown is watermark_limit() after a rotation that
  /// brought the watermark back under the limit, and doubles after each
  /// one that could not (full 32-bit collisions survive the seeded
  /// post-mix of non-SipHash kinds). So a flood no seed can break buys
  /// O(log n) whole-table re-placements over n inserts, not O(n / limit),
  /// and benign traffic that briefly crossed the line gets a fresh start.
  [[nodiscard]] bool cooled_down() const noexcept {
    return since_rotation_ >= cooldown_;
  }

  /// Rotates the hash seed. Finishes any drain in flight (its table hashes
  /// under the outgoing seed), restarts the cooldown, and allocates a
  /// complete same-size table before touching anything: a refused
  /// allocation (injected or real) keeps the current seed, steps no growth
  /// ladder, and leaves the retry to a watermark_limit() cooldown. Only
  /// then does the seed move to net::next_seed; the live table swings out
  /// and the closing sweep re-places every resident in unit order
  /// (DrainMode::kRehash). A rotation that leaves the watermark over the
  /// limit doubles the cooldown before the next attempt. Counts once in
  /// `rehashes` and in no resize counter.
  template <class Backend>
  void rotate_seed(Backend& b, Table& live) {
    finish_migration(b);
    since_rotation_ = 0;
    const std::uint64_t backoff = 2 * cooldown_;
    cooldown_ = b.watermark_limit();
    Outgoing<Table> old;
    if (!try_alloc([&] { old.table = b.same_size_table(); })) return;
    b.options_.hasher.seed = net::next_seed(b.options_.hasher.seed);
    std::swap(old.table, live);
    old.residents = b.size();
    sweep(b, old, DrainMode::kRehash);
    watermark_ = b.rotated_watermark();
    if (watermark_ > b.watermark_limit()) {
      cooldown_ = std::max(backoff, cooldown_);
    }
    b.telemetry_->on_rehash();
  }

  /// The backend's ResilienceStats: rotations and sheds are views of its
  /// telemetry registry (one ledger, reset with it), beside the watermark.
  template <class Backend>
  [[nodiscard]] ResilienceStats resilience(const Backend& b) const {
    const report::TelemetryCounters& c = b.telemetry_->counters();
    return {c.rehashes, c.inserts_shed, watermark_, b.watermark_limit()};
  }

 private:
  /// Polls the fault injector, then runs `alloc`, which may throw
  /// std::bad_alloc and must touch nothing live. False on a refusal,
  /// injected or real.
  template <class Alloc>
  static bool try_alloc(Alloc alloc) {
    if (FaultInjector::instance().poll_alloc()) return false;
    try {
      alloc();
    } catch (const std::bad_alloc&) {
      return false;
    }
    return true;
  }

  /// Moves every resident of `old` into the live table in unit order.
  template <class Backend>
  static void sweep(Backend& b, Outgoing<Table>& old, DrainMode mode) {
    while (old.residents > 0) {
      if (b.migrate_unit(old.table, old.cursor, mode)) {
        --old.residents;
      } else {
        ++old.cursor;
      }
    }
  }

  /// Allocates the next table, then swings the live one behind the drain
  /// cursor. The allocation comes first and nothing after it can fail, so
  /// a refused allocation (injected or real) leaves the live table
  /// untouched and only steps the ladder.
  template <class Backend>
  bool start_migration(Backend& b, Table& live) {
    std::unique_ptr<Outgoing<Table>> old;
    Table fresh;
    if (!try_alloc([&] {
          old = std::make_unique<Outgoing<Table>>();
          fresh = b.grown_table();
        })) {
      defer_migration(b);
      return false;
    }
    old->table = std::move(live);
    old->residents = b.size();
    live = std::move(fresh);
    old_ = std::move(old);
    blocked_ = false;
    backoff_ = 0;
    retry_in_ = 0;
    b.telemetry_->on_resize_start();
    return true;
  }

  /// Ladder rung 1: growth refused by the allocator. Blocks growth and
  /// arms an exponentially backed-off retry countdown (in inserts).
  template <class Backend>
  void defer_migration(Backend& b) {
    blocked_ = true;
    backoff_ = backoff_ == 0 ? kGrowBackoffMin
                             : std::min(backoff_ * 2, kGrowBackoffMax);
    retry_in_ = backoff_;
    b.telemetry_->on_resize_defer();
  }

  template <class Backend>
  void complete(Backend& b) {
    old_.reset();
    b.telemetry_->on_resize_complete();
  }

  /// First: SequentDemuxer::lookup() reads it within the 64 bytes after
  /// the Demuxer base, so new state goes below it.
  std::unique_ptr<Outgoing<Table>> old_;
  bool blocked_ = false;
  std::uint64_t backoff_ = 0;   ///< current retry backoff, in inserts
  std::uint64_t retry_in_ = 0;  ///< inserts until the next retry
  std::uint64_t watermark_ = 0;
  std::uint64_t since_rotation_ = 0;  ///< inserts since the last attempt
  std::uint64_t cooldown_ = 0;        ///< 0 until the first attempt
};

}  // namespace tcpdemux::core

#endif  // TCPDEMUX_CORE_RESIZE_POLICY_H_

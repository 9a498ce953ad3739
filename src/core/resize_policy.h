// The resize engine shared by every growing backend (dynamic, flat,
// flat16, cuckoo; see DESIGN.md "Incremental resize & degradation
// ladder").
//
// A growth is always start_migration(): allocate the whole new table,
// then swing the live one behind a drain cursor. Stop-the-world and
// `incremental` differ only in when that outgoing table drains — at once,
// in one sweep in unit order, or a bounded batch per operation. The
// allocation-failure ladder lives here too: rung 1 defers the doubling
// with exponential backoff, rung 2 sheds inserts at a hard watermark while
// growth stays blocked.
//
// A backend supplies its table type and two hooks, reached through
// friendship:
//   Table grown_table() const;  // the next doubling, empty; may throw
//   bool migrate_unit(Table& old, std::size_t unit, DrainMode mode);
// migrate_unit moves one resident out of drain unit `unit` (a slot or a
// chain) of the outgoing table into the live one and returns true, or
// returns false when the unit is empty.
#ifndef TCPDEMUX_CORE_RESIZE_POLICY_H_
#define TCPDEMUX_CORE_RESIZE_POLICY_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>

#include "core/fault_inject.h"
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
/// must keep it fully probe-able (lookups and erases still search it); the
/// closing sweep discards it afterwards, so a backend may skip repairs.
enum class DrainMode : bool { kStep, kSweep };

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
  /// doubling — draining it at once unless `incremental`. Returns true if
  /// a new table was swung in.
  template <class Backend>
  bool grow(Backend& b, Table& live, bool incremental) {
    finish_migration(b);
    if (blocked_ && retry_in_ > 0) {
      --retry_in_;
      return false;
    }
    if (!start_migration(b, live)) return false;
    if (!incremental) finish_migration(b);
    return true;
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
  /// stop-the-world schedule, and the force-finish before a second
  /// doubling or a seed rotation. No-op when not migrating.
  template <class Backend>
  void finish_migration(Backend& b) {
    if (old_ == nullptr) return;
    Outgoing<Table>& old = *old_;
    const std::size_t moved = old.residents;
    while (old.residents > 0) {
      if (b.migrate_unit(old.table, old.cursor, DrainMode::kSweep)) {
        --old.residents;
      } else {
        ++old.cursor;
      }
    }
    b.telemetry_->on_resize_step(moved, 0);
    complete(b);
  }

  /// A resident left the outgoing table by erase.
  template <class Backend>
  void note_erased(Backend& b) {
    if (--old_->residents == 0) complete(b);
  }

 private:
  /// Allocates the next table, then swings the live one behind the drain
  /// cursor. The allocation comes first and nothing after it can fail, so
  /// a refused allocation (injected or real) leaves the live table
  /// untouched and only steps the ladder.
  template <class Backend>
  bool start_migration(Backend& b, Table& live) {
    if (FaultInjector::instance().poll_alloc()) {
      defer_migration(b);
      return false;
    }
    std::unique_ptr<Outgoing<Table>> old;
    Table fresh;
    try {
      old = std::make_unique<Outgoing<Table>>();
      fresh = b.grown_table();
    } catch (const std::bad_alloc&) {
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

  std::unique_ptr<Outgoing<Table>> old_;
  bool blocked_ = false;
  std::uint64_t backoff_ = 0;   ///< current retry backoff, in inserts
  std::uint64_t retry_in_ = 0;  ///< inserts until the next retry
};

}  // namespace tcpdemux::core

#endif  // TCPDEMUX_CORE_RESIZE_POLICY_H_

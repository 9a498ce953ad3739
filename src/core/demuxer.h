// Demuxer: the common interface of every TCP PCB-lookup algorithm.
//
// The paper's figure of merit — the expected number of PCBs examined per
// received packet — is first-class here: every lookup() reports exactly how
// many PCBs (cache entries and chain nodes) were inspected.
//
// Accounting convention (matches the paper's analysis, §3.1–§3.4):
//   * probing a single-entry cache costs 1 examined PCB;
//   * each list node whose key is compared costs 1 (the found node counts);
//   * a cache hit therefore costs exactly 1; a BSD miss costs
//     1 + scan-length, giving the paper's 1 + (N+1)/2 average.
#ifndef TCPDEMUX_CORE_DEMUXER_H_
#define TCPDEMUX_CORE_DEMUXER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>

#include "core/pcb.h"
#include "net/flow_key.h"
#include "report/telemetry.h"
#include "report/telemetry_json.h"

namespace tcpdemux::core {

/// How the arriving segment is classified for cache-probe ordering.
///
/// §3.3 footnote 5: "Examining the receive-side cache makes most sense for
/// TCP data packets, while examining the send-side cache first makes most
/// sense for TCP acknowledgement packets." Only the send/receive-cache
/// demuxer distinguishes these; all other algorithms ignore the kind.
enum class SegmentKind : std::uint8_t {
  kData,  ///< carries payload (e.g. a transaction query)
  kAck,   ///< pure transport-level acknowledgement
};

/// Outcome of one demultiplexing operation.
struct LookupResult {
  Pcb* pcb = nullptr;            ///< nullptr if no PCB matches
  std::uint32_t examined = 0;    ///< PCBs inspected (paper's metric)
  bool cache_hit = false;        ///< satisfied by a single-entry cache
};

/// Cumulative per-demuxer counters.
struct DemuxStats {
  std::uint64_t lookups = 0;
  std::uint64_t found = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t pcbs_examined = 0;

  [[nodiscard]] double mean_examined() const noexcept {
    return lookups == 0 ? 0.0
                        : static_cast<double>(pcbs_examined) /
                              static_cast<double>(lookups);
  }
  [[nodiscard]] double hit_rate() const noexcept {
    return lookups == 0 ? 0.0
                        : static_cast<double>(cache_hits) /
                              static_cast<double>(lookups);
  }
  void record(const LookupResult& r) noexcept {
    ++lookups;
    if (r.pcb != nullptr) ++found;
    if (r.cache_hit) ++cache_hits;
    pcbs_examined += r.examined;
  }
  void reset() noexcept { *this = DemuxStats{}; }
};

/// Abstract PCB-lookup algorithm. Owns its PCBs.
class Demuxer {
 public:
  virtual ~Demuxer() = default;

  /// Creates and registers a PCB for `key`. Returns nullptr if a PCB with
  /// an identical key already exists. The demuxer owns the returned PCB.
  virtual Pcb* insert(const net::FlowKey& key) = 0;

  /// Removes and destroys the PCB with exactly `key`. Returns false if
  /// absent. Any cache entries referencing it are invalidated.
  virtual bool erase(const net::FlowKey& key) = 0;

  /// Finds the PCB for an arriving segment, counting examined PCBs.
  /// Updates internal caches / list order as the algorithm dictates and
  /// records the result in stats().
  virtual LookupResult lookup(const net::FlowKey& key, SegmentKind kind) = 0;

  /// Convenience overload treating the segment as data. Derived classes
  /// re-expose it with `using Demuxer::lookup;`.
  LookupResult lookup(const net::FlowKey& key) {
    return lookup(key, SegmentKind::kData);
  }

  /// Demultiplexes a burst of packets, writing results[i] for keys[i].
  /// `results.size()` must be >= `keys.size()`. Results and stats are
  /// identical to issuing `keys.size()` lookup() calls in order — batching
  /// is purely a latency optimization. Overrides pipeline the work (hash
  /// every key, prefetch every target bucket/tag line, then probe) so a
  /// burst's DRAM misses overlap instead of serializing; this default is
  /// the correct scalar loop for algorithms with no such override.
  virtual void lookup_batch(std::span<const net::FlowKey> keys,
                            std::span<LookupResult> results,
                            SegmentKind kind = SegmentKind::kData) {
    for (std::size_t i = 0; i < keys.size(); ++i) {
      results[i] = lookup(keys[i], kind);
    }
  }

  /// Notes that the host transmitted a segment on `pcb`'s connection.
  /// Only the send/receive-cache algorithm observes this (its "last sent"
  /// side); the default is a no-op.
  virtual void note_sent(Pcb* pcb) { (void)pcb; }

  /// The PCB with exactly `key`, or nullptr: the probe lookup() makes,
  /// without its side effects. Moves no cache, no list order, no drain
  /// cursor and no stats() counter (hence const), so control paths —
  /// membership checks, owner searches, diagnostics — can ask without
  /// distorting the measured fast path. Listening sockets never reach a
  /// demuxer (the socket tables keep them), so this is exact match only,
  /// as the paper models it.
  [[nodiscard]] virtual Pcb* find(const net::FlowKey& key) const = 0;

  /// Number of PCBs currently registered.
  [[nodiscard]] virtual std::size_t size() const = 0;

  /// Approximate resident bytes: the PCBs themselves plus the structure's
  /// own headers (chain heads, caches, index tables). §3.4 prices the
  /// Sequent algorithm's only cost as "the memory required for the
  /// hash-chain headers"; this makes that cost measurable.
  [[nodiscard]] virtual std::size_t memory_bytes() const {
    return size() * sizeof(Pcb);
  }

  /// Calls `fn` for every PCB (order unspecified).
  virtual void for_each_pcb(
      const std::function<void(const Pcb&)>& fn) const = 0;

  /// Algorithm name, e.g. "sequent(h=19,crc32)".
  [[nodiscard]] virtual std::string name() const = 0;

  /// The one lookup ledger: lookups, found, cache hits and PCBs examined.
  [[nodiscard]] const DemuxStats& stats() const noexcept { return stats_; }
  /// Virtual so aggregating backends reset their children's ledgers too.
  virtual void reset_stats() noexcept { stats_.reset(); }

  /// Advances any in-progress table migration by one bounded batch (the
  /// growing chained table, and fleets of it; see DESIGN.md "Incremental
  /// resize & degradation ladder"). Returns true while migration work remains after the call.
  /// Harness hook: the fuzz suites (TCPDEMUX_FUZZ_RESIZE_EVERY) and
  /// bench/wallclock_resize drive migrations to completion with it; normal
  /// operation never needs to — insert/erase/lookup each retire their own
  /// batch.
  virtual bool migration_step() { return false; }

  /// The per-demuxer telemetry registry (see report/telemetry.h): the
  /// table-event counters no other ledger holds, plus opt-in examined-PCB
  /// / probe-length histograms. It keeps no lookup counters — stats() is
  /// their one ledger — and every lookup() override funnels its result
  /// through note_lookup(), so with histograms on from the start,
  /// examined().count() equals stats().lookups and examined().sum() equals
  /// stats().pcbs_examined.
  ///
  /// Virtual so aggregating backends (sharded) can return a merged view
  /// built from their children; the merge happens into a fresh value on
  /// every call, so repeated reads never re-add already-merged counters.
  [[nodiscard]] virtual report::Telemetry telemetry() const {
    return *telemetry_;
  }
  /// Switches the registry's histograms on/off for this run (default off:
  /// the paper-faithful fast path pays one predictable branch only).
  /// Virtual so aggregating backends propagate the switch to every child.
  virtual void enable_telemetry_histograms(bool on) noexcept {
    telemetry_histograms_ = on;
    telemetry_->enable_histograms(on);
  }

  /// Sizes of the structure's natural partitions — hash-chain lengths for
  /// the chained algorithms, the single list length for the linear-scan
  /// ones. Always sums to size(); telemetry snapshots derive occupancy
  /// skew from it.
  [[nodiscard]] virtual std::vector<std::size_t> occupancy() const {
    return {size()};
  }

 protected:
  /// Single funnel for lookup accounting: records `r` in stats_ and, when
  /// histograms are on, in the registry's histograms. Subclasses call this
  /// instead of touching stats_ directly so the histograms cover exactly
  /// the lookups stats_ counts (fuzz-enforced). The gate bool lives HERE,
  /// not in telemetry_: it shares stats_'s cache line, so the default
  /// (histograms-off) path has exactly the pre-telemetry memory footprint
  /// — one predicted branch, zero extra lines touched.
  void note_lookup(const LookupResult& r) noexcept {
    stats_.record(r);
    if (telemetry_histograms_) [[unlikely]] {
      note_lookup_telemetry(r);
    }
  }
  /// Histogram slow path, out of line (demuxer.cc) so the inlined fast
  /// path stays at pre-telemetry code size in every lookup loop.
  void note_lookup_telemetry(const LookupResult& r) noexcept;

  DemuxStats stats_;
  bool telemetry_histograms_ = false;
  /// Behind a pointer, not inline: the registry is ~1 KiB of histogram
  /// arrays, and an inline member would push every subclass's hot members
  /// (chain heads, slot arrays) a KiB past the vptr/stats_ cache line the
  /// lookup path already owns — measurably slowing the cheapest lookups
  /// (connection_id) even with histograms off. The pointer keeps the base
  /// at pre-telemetry size; only mutation hooks and readers dereference.
  std::unique_ptr<report::Telemetry> telemetry_ =
      std::make_unique<report::Telemetry>();
};

/// Snapshots `demuxer` for a telemetry export: the lookup counters from
/// its one ledger (stats()), the registry (telemetry()) and its occupancy.
/// Harness-side extras (series, latency) are the caller's to add.
[[nodiscard]] report::TelemetryReport telemetry_report_of(
    const std::string& source, const Demuxer& demuxer);

}  // namespace tcpdemux::core

#endif  // TCPDEMUX_CORE_DEMUXER_H_

// Per-demuxer telemetry: table-event counters, log2 histograms, occupancy
// snapshots, and interval time series.
//
// The paper's entire argument rests on one measured quantity — expected
// PCBs examined per packet — but an end-of-run mean hides exactly what
// Jain's locality studies [Jai89] say matters: the *distribution* and its
// evolution over time. The lookup counters and their mean live in one
// ledger, core::DemuxStats; this registry keeps only what no other ledger
// holds:
//
//   * table-event counters (inserts, erases, shed inserts, overload
//     rehashes, resize events) are maintained unconditionally — a handful
//     of add instructions per event;
//   * log2-bucketed histograms of examined PCBs and miss-path probe
//     lengths are opt-in per run (enable_histograms), so the default
//     paper-faithful hot path pays one predictable branch and nothing
//     else;
//   * interval deltas (Log2Histogram::since, interval_sample) turn the
//     cumulative state into a time series of percentiles and occupancy
//     skew without per-packet sampling buffers.
//
// Everything here is plain data: no locks, no allocation on the hot path,
// no clock reads. The one component that touches a clock — LatencySampler
// — is harness-side (sim/replay, bench/wallclock) and never runs unless a
// run asks for it.
#ifndef TCPDEMUX_REPORT_TELEMETRY_H_
#define TCPDEMUX_REPORT_TELEMETRY_H_

#include <array>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

namespace tcpdemux::report {

/// Power-of-two histogram: bucket b counts values whose bit width is b
/// (0 -> {0}, 1 -> {1}, 2 -> {2,3}, 3 -> {4..7}, ...), matching
/// sim::SampleStats::log2_buckets so the two accounting paths can be
/// differential-tested against each other. Tracks the exact sum and max so
/// totals stay bit-exact with DemuxStats, not bucket-approximate.
class Log2Histogram {
 public:
  /// bit_width of a uint64_t is at most 64, so 65 buckets cover any value.
  static constexpr std::size_t kBuckets = 65;

  void add(std::uint64_t value) noexcept {
    ++buckets_[static_cast<std::size_t>(std::bit_width(value))];
    sum_ += value;
    if (value > max_) max_ = value;
  }

  [[nodiscard]] std::uint64_t count() const noexcept;
  [[nodiscard]] std::uint64_t sum() const noexcept { return sum_; }
  [[nodiscard]] std::uint64_t max() const noexcept { return max_; }
  [[nodiscard]] double mean() const noexcept;
  [[nodiscard]] std::uint64_t bucket(std::size_t b) const noexcept {
    return buckets_[b];
  }
  /// Buckets with trailing zeros trimmed (export form).
  [[nodiscard]] std::vector<std::uint64_t> nonzero_buckets() const;

  /// Inclusive upper bound of the value range bucket `b` covers:
  /// 0 for bucket 0, 2^b - 1 otherwise.
  [[nodiscard]] static std::uint64_t bucket_upper(std::size_t b) noexcept {
    return b == 0 ? 0 : (b >= 64 ? ~0ULL : (1ULL << b) - 1);
  }

  /// Nearest-rank percentile resolved to its bucket's upper bound (the
  /// histogram cannot resolve finer); q clamped to [0, 1]. 0 when empty.
  [[nodiscard]] std::uint64_t percentile_upper(double q) const noexcept;

  /// Per-bucket difference `*this - earlier`, for interval deltas.
  /// `earlier` must be a previous snapshot of the same histogram. The
  /// delta's max is the upper bound of its highest occupied bucket (the
  /// true interval max is not recoverable from cumulative state).
  [[nodiscard]] Log2Histogram since(const Log2Histogram& earlier) const;

  /// Adds `other`'s contents into this histogram: buckets elementwise,
  /// sum exactly, max as the larger of the two. Merging the histograms of
  /// a disjoint split of one sample stream is bit-identical to having
  /// recorded the whole stream into a single histogram (count, sum, max,
  /// every bucket, and therefore every nearest-rank percentile) — the
  /// property the sharded aggregation path depends on.
  void merge_from(const Log2Histogram& other) noexcept {
    for (std::size_t b = 0; b < kBuckets; ++b) buckets_[b] += other.buckets_[b];
    sum_ += other.sum_;
    if (other.max_ > max_) max_ = other.max_;
  }

  void reset() noexcept { *this = Log2Histogram{}; }

 private:
  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t sum_ = 0;
  std::uint64_t max_ = 0;
};

/// Table-event counters every demuxer maintains unconditionally. Lookup
/// counts are not here: core::DemuxStats is their one ledger.
struct TelemetryCounters {
  std::uint64_t inserts = 0;       ///< successful PCB registrations
  std::uint64_t erases = 0;        ///< successful PCB removals
  std::uint64_t inserts_shed = 0;  ///< inserts refused at a max_pcbs cap
  std::uint64_t rehashes = 0;      ///< overload-triggered seed rotations
                                   ///  (never table doublings)
  // Resize ledger (the growing chained table; see
  // DESIGN.md "Incremental resize & degradation ladder"). Each table
  // doubling counts exactly once in started and once in completed.
  std::uint64_t resizes_started = 0;    ///< doublings begun (new table up)
  std::uint64_t resizes_completed = 0;  ///< doublings fully drained
  std::uint64_t resizes_deferred = 0;   ///< growth attempts refused by the
                                        ///  allocator (ladder rung 1)
  std::uint64_t resize_steps = 0;       ///< drain passes run: a bounded
                                        ///  batch, or one whole-table sweep
};

/// The per-demuxer registry: fixed-slot counters plus opt-in histograms.
/// All telemetry-bearing counters in src/core route through this type
/// (lint rule `telemetry-registry` bans ad-hoc mutable file-scope
/// counters), so every algorithm exports the same schema.
///
/// Threading: deliberately lock-free by *ownership*, not by mutex — the
/// registry is plain data mutated only by its owning demuxer under that
/// demuxer's own synchronization contract (single-threaded for registry
/// algorithms, caller-coordinated for the concurrent ones), exactly so
/// the hot path stays at pre-telemetry cost. There is therefore no
/// capability to annotate; the compile-time discipline that covers this
/// type is the `lock-discipline` lint pass, which guarantees any mutex a
/// future revision adds here must be the annotated core::Mutex (see
/// core/thread_annotations.h and DESIGN.md "Static analysis").
class Telemetry {
 public:
  /// Records one completed lookup in the histograms, when enabled:
  /// `examined` lands in the examined-PCB histogram, and — for lookups the
  /// single-entry caches did not absorb — in the miss-path probe-length
  /// histogram. The lookup's counts belong to the caller's DemuxStats.
  void on_lookup(std::uint32_t examined, bool cache_hit) noexcept {
    if (!histograms_enabled_) return;
    examined_.add(examined);
    if (!cache_hit) probe_length_.add(examined);
  }
  void on_insert() noexcept { ++counters_.inserts; }
  void on_erase() noexcept { ++counters_.erases; }
  void on_shed() noexcept { ++counters_.inserts_shed; }
  void on_rehash() noexcept { ++counters_.rehashes; }

  // Resize events (the growing chained table).
  void on_resize_start() noexcept { ++counters_.resizes_started; }
  void on_resize_complete() noexcept { ++counters_.resizes_completed; }
  void on_resize_defer() noexcept { ++counters_.resizes_deferred; }
  /// Records one drain pass: `moved` entries re-placed this step (the
  /// per-operation pause surrogate; a stop-the-world sweep moves the whole
  /// table) and `debt` entries still waiting in the old table afterwards. Counters always; histograms only
  /// when enabled, like on_lookup.
  void on_resize_step(std::uint64_t moved, std::uint64_t debt) noexcept {
    ++counters_.resize_steps;
    if (!histograms_enabled_) return;
    resize_work_.add(moved);
    migration_debt_.add(debt);
  }

  /// Histograms are off by default so the paper-faithful fast path pays
  /// one predictable branch per lookup; harnesses that want distributions
  /// (replay time series, fuzz differential checks) switch them on per
  /// run. Enabling mid-run is allowed: the histograms then cover only the
  /// lookups issued while enabled.
  void enable_histograms(bool on) noexcept { histograms_enabled_ = on; }
  [[nodiscard]] bool histograms_enabled() const noexcept {
    return histograms_enabled_;
  }

  [[nodiscard]] const TelemetryCounters& counters() const noexcept {
    return counters_;
  }
  [[nodiscard]] const Log2Histogram& examined() const noexcept {
    return examined_;
  }
  [[nodiscard]] const Log2Histogram& probe_length() const noexcept {
    return probe_length_;
  }
  [[nodiscard]] const Log2Histogram& resize_work() const noexcept {
    return resize_work_;
  }
  [[nodiscard]] const Log2Histogram& migration_debt() const noexcept {
    return migration_debt_;
  }

  /// Accumulates `other`'s table side into this registry: every event
  /// counter and the two resize histograms. The lookup histograms are not
  /// merged: they belong to the demuxer whose lookup() the caller asked,
  /// which funnels each lookup into them exactly once however many inner
  /// tables it probed (a sharded fleet's cross-shard sweep).
  ///
  /// This is the one sanctioned way to aggregate N per-shard registries
  /// into a fleet view. The caller merges snapshots (each shard's
  /// telemetry() return value) into a *fresh* target; merging into
  /// persistent state across repeated reads would re-add the same events
  /// on every read — the aggregation double-count bug this method's
  /// regression test pins down (see telemetry_test.cc
  /// MergeIsIdempotentAcrossRepeatedReads).
  void merge_from(const Telemetry& other) noexcept {
    counters_.inserts += other.counters_.inserts;
    counters_.erases += other.counters_.erases;
    counters_.inserts_shed += other.counters_.inserts_shed;
    counters_.rehashes += other.counters_.rehashes;
    counters_.resizes_started += other.counters_.resizes_started;
    counters_.resizes_completed += other.counters_.resizes_completed;
    counters_.resizes_deferred += other.counters_.resizes_deferred;
    counters_.resize_steps += other.counters_.resize_steps;
    resize_work_.merge_from(other.resize_work_);
    migration_debt_.merge_from(other.migration_debt_);
  }

  void reset() noexcept {
    const bool keep = histograms_enabled_;
    *this = Telemetry{};
    histograms_enabled_ = keep;
  }

 private:
  // The ~1 KiB histograms go last so the counters-only default mode never
  // pulls their lines in.
  bool histograms_enabled_ = false;
  TelemetryCounters counters_;
  Log2Histogram examined_;
  Log2Histogram probe_length_;
  Log2Histogram resize_work_;
  Log2Histogram migration_debt_;
};

/// One interval observation of a demuxer under load: examined-PCB
/// percentiles over the interval plus an occupancy-skew snapshot.
struct TelemetrySample {
  std::uint64_t events = 0;       ///< arrivals processed when taken
  std::uint64_t lookups = 0;      ///< lookups within the interval
  double mean_examined = 0.0;     ///< interval mean (exact, from sums)
  std::uint64_t p50 = 0;          ///< interval percentiles, bucket upper
  std::uint64_t p90 = 0;          ///  bounds (log2 resolution)
  std::uint64_t p99 = 0;
  std::uint64_t max_examined = 0;
  double hit_rate = 0.0;          ///< interval cache-hit rate
  std::uint64_t occ_max = 0;      ///< largest partition right now
  double occ_mean = 0.0;          ///< size / partitions right now
  double occ_skew = 0.0;          ///< occ_max / occ_mean (1.0 = balanced)
};

/// Interval-driven time series, as exported by sim/replay.
struct TelemetrySeries {
  std::uint64_t interval = 0;  ///< arrivals per sample (0 = none taken)
  std::vector<TelemetrySample> samples;
};

/// Builds one sample at the interval boundary: `lookups` and `cache_hits`
/// are the interval's counts from the caller's own lookup ledger, `cur`
/// minus `prev` gives the interval's distribution, and `occupancy` the
/// instantaneous partition sizes (Demuxer::occupancy()). Requires cur's
/// histograms enabled for the examined fields to be meaningful; with
/// histograms off they are 0 and the hit rate still comes from the counts.
[[nodiscard]] TelemetrySample interval_sample(
    std::uint64_t events, std::uint64_t lookups, std::uint64_t cache_hits,
    const Telemetry& cur, const Telemetry& prev,
    std::span<const std::size_t> occupancy);

/// Optional sampled lookup-latency recorder, used by harnesses (replay,
/// wallclock benches) around Demuxer::lookup() calls — never inside the
/// demuxer, so the measured path is the real one. Calibrated like
/// bench::time_loop: at enable time it measures the median back-to-back
/// steady_clock read cost and subtracts it from every recorded delta, so
/// the histogram reflects lookup work, not clock overhead.
class LatencySampler {
 public:
  LatencySampler() = default;  ///< disabled; should_sample() always false

  /// Samples one lookup in `every_n` (>= 1). Calibrates the clock.
  explicit LatencySampler(std::uint32_t every_n);

  [[nodiscard]] bool enabled() const noexcept { return every_ != 0; }

  /// True when the current lookup should be timed (1-in-N countdown).
  [[nodiscard]] bool should_sample() noexcept {
    if (every_ == 0) return false;
    if (++tick_ < every_) return false;
    tick_ = 0;
    return true;
  }

  /// Records one timed lookup, net of the calibrated clock overhead.
  void record_ns(std::uint64_t ns) noexcept {
    histogram_.add(ns > overhead_ns_ ? ns - overhead_ns_ : 0);
  }

  [[nodiscard]] const Log2Histogram& histogram() const noexcept {
    return histogram_;
  }
  [[nodiscard]] std::uint64_t overhead_ns() const noexcept {
    return overhead_ns_;
  }

 private:
  std::uint32_t every_ = 0;
  std::uint32_t tick_ = 0;
  std::uint64_t overhead_ns_ = 0;
  Log2Histogram histogram_;
};

}  // namespace tcpdemux::report

#endif  // TCPDEMUX_REPORT_TELEMETRY_H_

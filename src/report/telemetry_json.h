// JSON and CSV export for the telemetry registry (report/telemetry.h).
//
// Schema "tcpdemux.telemetry.v1" — one object per instrumented demuxer:
//
//   {
//     "schema": "tcpdemux.telemetry.v1",
//     "source": "sim/replay",              // who produced the report
//     "algorithm": "sequent(h=19,crc32)",  // Demuxer::name()
//     "counters": {"lookups": N, "found": N, "cache_hits": N,
//                  "inserts": N, "erases": N, "inserts_shed": N,
//                  "rehashes": N, "resizes_started": N,
//                  "resizes_completed": N, "resizes_deferred": N,
//                  "resize_steps": N},
//     "examined":     {"count": N, "sum": N, "max": N, "buckets": [...]},
//     "probe_length": {"count": N, "sum": N, "max": N, "buckets": [...]},
//     "latency_ns":   {"count": N, "sum": N, "max": N, "buckets": [...]},
//     "resize_work":    {"count": N, "sum": N, "max": N, "buckets": [...]},
//     "migration_debt": {"count": N, "sum": N, "max": N, "buckets": [...]},
//     "occupancy": {"partitions": N, "max": N, "mean": x, "skew": x},
//     "series": {"interval": N, "samples": [
//         {"events": N, "lookups": N, "mean_examined": x, "p50": N,
//          "p90": N, "p99": N, "max_examined": N, "hit_rate": x,
//          "occ_max": N, "occ_mean": x, "occ_skew": x}, ...]}
//   }
//
// The first three counters come from TelemetryReport::ledger — the
// demuxer's DemuxStats, its one lookup ledger — and the rest from the
// registry, so `examined.count` equals `counters.lookups` whenever the
// histograms were on for the whole run.
//
// Histogram bucket b counts values of bit width b (see Log2Histogram);
// trailing zero buckets are trimmed. Several reports serialize as a JSON
// array, mergeable exactly like report/bench_json.h exports. The schema is
// validated in CI by tools/telemetry/validate_schema.py (ci/check.sh
// stage 7) and documented in DESIGN.md "Observability".
#ifndef TCPDEMUX_REPORT_TELEMETRY_JSON_H_
#define TCPDEMUX_REPORT_TELEMETRY_JSON_H_

#include <cstddef>
#include <cstdint>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "report/telemetry.h"

namespace tcpdemux::report {

/// The lookup counts an export reports, copied from the demuxer's
/// DemuxStats (the registry keeps no lookup counters).
struct LookupLedger {
  std::uint64_t lookups = 0;
  std::uint64_t found = 0;
  std::uint64_t cache_hits = 0;
};

/// Everything one export knows about one demuxer run. Plain aggregation:
/// the caller copies the lookup ledger and the registry state out of the
/// demuxer (Telemetry is a value type) plus whatever harness-side extras
/// the run produced.
struct TelemetryReport {
  std::string source;     ///< producing harness, e.g. "sim/replay"
  std::string algorithm;  ///< Demuxer::name()
  LookupLedger ledger;    ///< Demuxer::stats() at export
  Telemetry telemetry;    ///< table counters + examined/probe histograms
  std::vector<std::size_t> occupancy;  ///< Demuxer::occupancy() at export
  TelemetrySeries series;              ///< may be empty
  Log2Histogram latency_ns;            ///< empty unless a run sampled it
};

/// Serializes one report as a schema-v1 JSON object.
[[nodiscard]] std::string telemetry_to_json(const TelemetryReport& report);

/// Serializes several reports as a JSON array (one object each).
[[nodiscard]] std::string telemetry_to_json(
    std::span<const TelemetryReport> reports);

/// Writes the JSON array form to `path`. Returns false on I/O failure.
[[nodiscard]] bool write_telemetry_json(
    const std::string& path, std::span<const TelemetryReport> reports);

/// Writes the time series as CSV (header + one row per sample), for
/// spreadsheet/gnuplot post-processing. Reuses report/csv quoting.
void write_series_csv(std::ostream& os, const std::string& algorithm,
                      const TelemetrySeries& series);

}  // namespace tcpdemux::report

#endif  // TCPDEMUX_REPORT_TELEMETRY_JSON_H_

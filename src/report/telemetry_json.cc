#include "report/telemetry_json.h"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "report/csv.h"

namespace tcpdemux::report {
namespace {

// Same minimal escaping contract as bench_json.cc: algorithm names and
// source tags are the only strings and contain no exotic characters, but
// stay safe if one ever does.
void append_escaped(std::ostringstream& os, const std::string& s) {
  os << '"';
  for (const char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          os << buf;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

void append_double(std::ostringstream& os, double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  os << buf;
}

void append_histogram(std::ostringstream& os, const char* name,
                      const Log2Histogram& h) {
  os << '"' << name << "\": {\"count\": " << h.count()
     << ", \"sum\": " << h.sum() << ", \"max\": " << h.max()
     << ", \"buckets\": [";
  const auto buckets = h.nonzero_buckets();
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    if (b != 0) os << ", ";
    os << buckets[b];
  }
  os << "]}";
}

void append_report(std::ostringstream& os, const TelemetryReport& r) {
  os << "{\"schema\": \"tcpdemux.telemetry.v1\", \"source\": ";
  append_escaped(os, r.source);
  os << ", \"algorithm\": ";
  append_escaped(os, r.algorithm);

  const TelemetryCounters& c = r.telemetry.counters();
  os << ",\n \"counters\": {\"lookups\": " << r.ledger.lookups
     << ", \"found\": " << r.ledger.found
     << ", \"cache_hits\": " << r.ledger.cache_hits
     << ", \"inserts\": " << c.inserts << ", \"erases\": " << c.erases
     << ", \"inserts_shed\": " << c.inserts_shed
     << ", \"rehashes\": " << c.rehashes
     << ", \"resizes_started\": " << c.resizes_started
     << ", \"resizes_completed\": " << c.resizes_completed
     << ", \"resizes_deferred\": " << c.resizes_deferred
     << ", \"resize_steps\": " << c.resize_steps << "},\n ";
  append_histogram(os, "examined", r.telemetry.examined());
  os << ",\n ";
  append_histogram(os, "probe_length", r.telemetry.probe_length());
  os << ",\n ";
  append_histogram(os, "latency_ns", r.latency_ns);
  os << ",\n ";
  append_histogram(os, "resize_work", r.telemetry.resize_work());
  os << ",\n ";
  append_histogram(os, "migration_debt", r.telemetry.migration_debt());

  std::size_t occ_total = 0;
  std::size_t occ_max = 0;
  for (const std::size_t o : r.occupancy) {
    occ_total += o;
    if (o > occ_max) occ_max = o;
  }
  const double occ_mean =
      r.occupancy.empty() ? 0.0
                          : static_cast<double>(occ_total) /
                                static_cast<double>(r.occupancy.size());
  os << ",\n \"occupancy\": {\"partitions\": " << r.occupancy.size()
     << ", \"max\": " << occ_max << ", \"mean\": ";
  append_double(os, occ_mean);
  os << ", \"skew\": ";
  append_double(os, occ_mean > 0.0 ? static_cast<double>(occ_max) / occ_mean
                                   : 0.0);
  os << "},\n \"series\": {\"interval\": " << r.series.interval
     << ", \"samples\": [";
  for (std::size_t i = 0; i < r.series.samples.size(); ++i) {
    const TelemetrySample& s = r.series.samples[i];
    if (i != 0) os << ',';
    os << "\n  {\"events\": " << s.events << ", \"lookups\": " << s.lookups
       << ", \"mean_examined\": ";
    append_double(os, s.mean_examined);
    os << ", \"p50\": " << s.p50 << ", \"p90\": " << s.p90
       << ", \"p99\": " << s.p99 << ", \"max_examined\": " << s.max_examined
       << ", \"hit_rate\": ";
    append_double(os, s.hit_rate);
    os << ", \"occ_max\": " << s.occ_max << ", \"occ_mean\": ";
    append_double(os, s.occ_mean);
    os << ", \"occ_skew\": ";
    append_double(os, s.occ_skew);
    os << '}';
  }
  os << "]}}";
}

}  // namespace

std::string telemetry_to_json(const TelemetryReport& report) {
  std::ostringstream os;
  append_report(os, report);
  os << '\n';
  return os.str();
}

std::string telemetry_to_json(std::span<const TelemetryReport> reports) {
  std::ostringstream os;
  os << "[\n";
  for (std::size_t i = 0; i < reports.size(); ++i) {
    append_report(os, reports[i]);
    if (i + 1 != reports.size()) os << ',';
    os << '\n';
  }
  os << "]\n";
  return os.str();
}

bool write_telemetry_json(const std::string& path,
                          std::span<const TelemetryReport> reports) {
  std::ofstream out(path);
  if (!out) return false;
  out << telemetry_to_json(reports);
  return static_cast<bool>(out);
}

void write_series_csv(std::ostream& os, const std::string& algorithm,
                      const TelemetrySeries& series) {
  write_csv_row(os, {"algorithm", "events", "lookups", "mean_examined",
                     "p50", "p90", "p99", "max_examined", "hit_rate",
                     "occ_max", "occ_mean", "occ_skew"});
  char buf[32];
  const auto fmt = [&buf](double v) {
    std::snprintf(buf, sizeof buf, "%.6g", v);
    return std::string(buf);
  };
  for (const TelemetrySample& s : series.samples) {
    write_csv_row(
        os, {algorithm, std::to_string(s.events), std::to_string(s.lookups),
             fmt(s.mean_examined), std::to_string(s.p50),
             std::to_string(s.p90), std::to_string(s.p99),
             std::to_string(s.max_examined), fmt(s.hit_rate),
             std::to_string(s.occ_max), fmt(s.occ_mean), fmt(s.occ_skew)});
  }
}

}  // namespace tcpdemux::report

#include "core/demuxer.h"

namespace tcpdemux::core {

void Demuxer::note_lookup_telemetry(const LookupResult& r) noexcept {
  telemetry_->on_lookup(r.examined, r.cache_hit);
}

report::TelemetryReport telemetry_report_of(const std::string& source,
                                            const Demuxer& demuxer) {
  report::TelemetryReport rec;
  rec.source = source;
  rec.algorithm = demuxer.name();
  const DemuxStats& stats = demuxer.stats();
  rec.ledger = {stats.lookups, stats.found, stats.cache_hits};
  rec.telemetry = demuxer.telemetry();
  rec.occupancy = demuxer.occupancy();
  return rec;
}

}  // namespace tcpdemux::core

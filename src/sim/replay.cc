#include "sim/replay.h"

#include <chrono>
#include <stdexcept>

namespace tcpdemux::sim {

ReplayResult replay_trace(const Trace& trace,
                          std::span<const net::FlowKey> keys,
                          core::Demuxer& demuxer,
                          const ReplayOptions& options) {
  if (keys.size() < trace.connections) {
    throw std::invalid_argument("replay: not enough flow keys for trace");
  }
  if (demuxer.size() != 0) {
    throw std::invalid_argument("replay: demuxer must start empty");
  }

  ReplayResult result;
  result.algorithm = demuxer.name();

  // Interval telemetry needs the examined-PCB histograms; they are opt-in
  // precisely so runs that do not ask pay nothing beyond the counters.
  const bool want_series = options.telemetry_interval != 0;
  if (want_series) {
    demuxer.enable_telemetry_histograms(true);
    result.series.interval = options.telemetry_interval;
  }
  // Interval boundaries: the registry snapshot for the distribution, the
  // replay's own running counts for the lookups and hits.
  report::Telemetry prev = demuxer.telemetry();
  std::uint64_t prev_lookups = 0;
  std::uint64_t prev_hits = 0;
  const auto take_sample = [&] {
    const auto occ = demuxer.occupancy();
    const report::Telemetry cur = demuxer.telemetry();
    result.series.samples.push_back(report::interval_sample(
        result.lookups, result.lookups - prev_lookups,
        result.cache_hits - prev_hits, cur, prev, occ));
    prev = cur;
    prev_lookups = result.lookups;
    prev_hits = result.cache_hits;
  };
  report::LatencySampler sampler =
      options.latency_sample_every != 0
          ? report::LatencySampler(options.latency_sample_every)
          : report::LatencySampler();

  // A connection whose first event is kOpen joins the table mid-replay;
  // one with any other first event is pre-established (the paper's steady
  // state); one with no events at all (e.g. a churned session that lived
  // and died before the measurement window) never existed here and must
  // not inflate the table.
  enum class Start : std::uint8_t { kAbsent, kPreEstablished, kOpensLater };
  std::vector<Start> start(trace.connections, Start::kAbsent);
  for (const TraceEvent& e : trace.events) {
    if (start[e.conn] == Start::kAbsent) {
      start[e.conn] = e.kind == TraceEventKind::kOpen
                          ? Start::kOpensLater
                          : Start::kPreEstablished;
    }
  }

  std::vector<core::Pcb*> pcbs(trace.connections, nullptr);
  for (std::uint32_t c = 0; c < trace.connections; ++c) {
    if (start[c] != Start::kPreEstablished) continue;
    pcbs[c] = demuxer.insert(keys[c]);
    if (pcbs[c] == nullptr) {
      throw std::invalid_argument("replay: duplicate or rejected flow key");
    }
  }

  result.overall.reserve(trace.arrivals());
  for (const TraceEvent& event : trace.events) {
    switch (event.kind) {
      case TraceEventKind::kOpen:
        pcbs[event.conn] = demuxer.insert(keys[event.conn]);
        if (pcbs[event.conn] == nullptr) {
          throw std::invalid_argument("replay: open of duplicate key");
        }
        ++result.opens;
        break;
      case TraceEventKind::kClose:
        if (demuxer.erase(keys[event.conn])) {
          pcbs[event.conn] = nullptr;
          ++result.closes;
        }
        break;
      case TraceEventKind::kTransmit:
        if (pcbs[event.conn] != nullptr) {
          demuxer.note_sent(pcbs[event.conn]);
        }
        break;
      case TraceEventKind::kArrivalData:
      case TraceEventKind::kArrivalAck: {
        const auto kind = event.kind == TraceEventKind::kArrivalData
                              ? core::SegmentKind::kData
                              : core::SegmentKind::kAck;
        core::LookupResult r;
        if (sampler.enabled() && sampler.should_sample()) {
          const auto t0 = std::chrono::steady_clock::now();
          r = demuxer.lookup(keys[event.conn], kind);
          const auto t1 = std::chrono::steady_clock::now();
          sampler.record_ns(static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                  .count()));
        } else {
          r = demuxer.lookup(keys[event.conn], kind);
        }
        ++result.lookups;
        if (r.cache_hit) ++result.cache_hits;
        if (r.pcb == nullptr) ++result.misses;
        result.overall.add(r.examined);
        if (kind == core::SegmentKind::kData) {
          result.data.add(r.examined);
        } else {
          result.ack.add(r.examined);
        }
        if (want_series &&
            result.lookups % options.telemetry_interval == 0) {
          take_sample();
        }
        break;
      }
    }
  }
  if (want_series &&
      result.lookups % options.telemetry_interval != 0) {
    // Final partial interval: the tail of the run still shows up in the
    // series instead of silently vanishing.
    take_sample();
  }
  if (sampler.enabled()) result.latency_ns = sampler.histogram();
  return result;
}

ReplayResult replay_trace(const Trace& trace, core::Demuxer& demuxer,
                          const ReplayOptions& options) {
  AddressSpaceParams params;
  params.clients = trace.connections;
  const auto keys = make_client_keys(params);
  return replay_trace(trace, keys, demuxer, options);
}

ReplayResult replay_trace(const workloads::Workload& workload,
                          core::Demuxer& demuxer,
                          const ReplayOptions& options) {
  return replay_trace(workload.trace, workload.keys, demuxer, options);
}

}  // namespace tcpdemux::sim

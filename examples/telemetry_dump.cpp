// Telemetry dump: replay a TPC/A trace through one demuxer with interval
// telemetry on, then export the time series and end-of-run distributions
// as schema-v1 JSON (and the series as CSV on stdout).
//
// This is the observability quickstart DESIGN.md's "Observability" section
// walks through, and the binary ci/check.sh stage 7 smoke-tests: the JSON
// it writes must validate against tools/telemetry/validate_schema.py.
//
//   ./telemetry_dump [spec] [users] [interval] [out.json]
//   e.g. ./telemetry_dump sequent:19:crc32 500 2000 telemetry.json
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "core/demux_registry.h"
#include "report/telemetry_json.h"
#include "sim/replay.h"
#include "sim/tpca_workload.h"

int main(int argc, char** argv) {
  using namespace tcpdemux;

  std::string spec = "sequent:19:crc32";
  std::uint32_t users = 500;
  std::uint64_t interval = 2000;
  std::string out_path = "telemetry.json";
  if (argc > 1) spec = argv[1];
  if (argc > 2) users = static_cast<std::uint32_t>(std::atoi(argv[2]));
  if (argc > 3) interval = static_cast<std::uint64_t>(std::atoll(argv[3]));
  if (argc > 4) out_path = argv[4];
  if (users == 0 || interval == 0) {
    std::cerr << "usage: telemetry_dump [spec] [users] [interval] "
                 "[out.json]\n";
    return EXIT_FAILURE;
  }

  const auto config = core::parse_demux_spec(spec);
  if (!config) {
    std::cerr << "bad demux spec: " << spec << '\n';
    return EXIT_FAILURE;
  }
  const auto demuxer = core::make_demuxer(*config);

  sim::TpcaWorkloadParams p;
  p.users = users;
  p.duration = 60.0;
  const sim::Trace trace = generate_tpca_trace(p);

  sim::ReplayOptions options;
  options.telemetry_interval = interval;
  options.latency_sample_every = 64;
  const sim::ReplayResult result = sim::replay_trace(trace, *demuxer, options);

  report::TelemetryReport rec =
      core::telemetry_report_of("sim/replay", *demuxer);
  rec.series = result.series;
  rec.latency_ns = result.latency_ns;

  const std::vector<report::TelemetryReport> reports = {rec};
  if (!report::write_telemetry_json(out_path, reports)) {
    std::cerr << "failed to write " << out_path << '\n';
    return EXIT_FAILURE;
  }

  std::cout << "algorithm:    " << rec.algorithm << '\n'
            << "lookups:      " << rec.ledger.lookups << '\n'
            << "mean examined " << rec.telemetry.examined().mean() << '\n'
            << "p99 examined  " << rec.telemetry.examined().percentile_upper(0.99)
            << '\n'
            << "samples:      " << rec.series.samples.size() << '\n'
            << "wrote:        " << out_path << "\n\n";
  report::write_series_csv(std::cout, rec.algorithm, rec.series);
  return 0;
}

// The scenario matrix: every workload the WorkloadSpec grammar can
// produce, crossed with every demultiplexer family, timed end-to-end.
//
// Where wallclock_lookup times the steady-state lookup inner loop,
// this bench times *whole replays* — population insert, arrivals, acks,
// send-side notes, mid-trace opens and closes — so structures pay for
// their full lifecycle: insert cost under churn, erase cost under NAT
// binding reuse, pollution under floods. One row per (workload, demuxer)
// cell; the JSON artifact is the machine-checked matrix CI validates
// (tools/scenarios/validate_matrix.py) and EXPERIMENTS.md quotes.
//
// Workloads: the six synthetic generators plus one pcap-driven row. The
// bench synthesizes its own capture (trace -> wire packets -> pcap file)
// and re-imports it through the same sim/workloads/pcap_workload.h path a
// real tcpdump capture would take, so the import machinery is exercised
// end-to-end on every run without shipping a binary fixture.
//
//   wallclock_scenarios [--smoke] [--json <path>]
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/demux_registry.h"
#include "net/pcap.h"
#include "sim/trace_packets.h"
#include "sim/workloads/workload_spec.h"

namespace {

using namespace tcpdemux;

// Population ~2000 everywhere so the linear-scan algorithms stay tractable
// (their O(n) story is unambiguous at this size) and every structure sees
// comparable table pressure across rows.
std::vector<std::string> workload_specs(bool smoke) {
  if (smoke) {
    return {
        "tpca:users=300:duration=10",
        "zipf:flows=500:arrivals=20k:duration=10",
        "trains:conns=8:len=16:duration=5",
        "churn:users=50:session=4:think=0.5:ports=8:duration=20",
        "natpop:clients=200:nats=4:duration=10",
        "mix:flood=5%:base=zipf:flows=500:arrivals=20k:duration=10",
    };
  }
  return {
      "tpca:users=2000:duration=30",
      "zipf:flows=2000:arrivals=100k:duration=30",
      "trains:conns=64:len=16:duration=30",
      "churn:users=400:session=4:think=0.5:ports=8:duration=60",
      "natpop:clients=2000:nats=8:duration=40",
      "mix:flood=5%:base=zipf:flows=2000:arrivals=100k:duration=30",
  };
}

// One family per row of the paper's comparison, fixed-size hash structures
// sized for the ~2000-connection populations above.
std::vector<std::string> demux_specs() {
  return {"bsd",
          "mtf",
          "srcache",
          "sequent:251:crc32",
          "dynamic",
          "rcu:251:crc32"};
}

// Synthesizes a capture from a small TPC/A run and writes it where the
// pcap generator can re-import it, returning the workload spec string.
std::string make_self_capture(bool smoke) {
  using sim::workloads::make_workload;
  const auto base = make_workload(
      smoke ? "tpca:users=100:duration=10" : "tpca:users=500:duration=20");
  const auto packets = sim::synthesize_packets(base.trace, base.keys);

  const auto path = std::filesystem::temp_directory_path() /
                    "tcpdemux_wallclock_scenarios.pcap";
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  net::PcapWriter writer(out);
  for (const auto& p : packets) writer.write(p.time, p.wire);
  out.close();
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(1);
  }
  return "pcap:file=" + path.string();
}

struct Cell {
  double ns_per_event = 0.0;
  sim::ReplayResult result;
};

// Times R fresh-demuxer replays of the workload and keeps the median.
// A replay cannot be repeated on a populated demuxer (re-inserting every
// key would throw), so each rep pays construction + insert too — which is
// the point: lifecycle cost is part of the scenario story.
Cell run_cell(const sim::workloads::Workload& workload,
              const std::string& spec, int reps) {
  Cell cell;
  std::vector<double> ns(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    const auto demuxer = core::make_demuxer(*core::parse_demux_spec(spec));
    const auto t0 = std::chrono::steady_clock::now();
    auto result = sim::replay_trace(workload, *demuxer);
    const auto t1 = std::chrono::steady_clock::now();
    ns[static_cast<std::size_t>(r)] =
        std::chrono::duration<double, std::nano>(t1 - t0).count() /
        static_cast<double>(workload.trace.events.size());
    if (r == 0) cell.result = std::move(result);
  }
  std::sort(ns.begin(), ns.end());
  cell.ns_per_event = ns[ns.size() / 2];
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchOptions opts = bench::parse_bench_args(argc, argv);
  report::BenchJsonWriter writer;
  const int reps = opts.smoke ? 1 : 3;

  std::vector<std::string> specs = workload_specs(opts.smoke);
  specs.push_back(make_self_capture(opts.smoke));

  for (const std::string& wspec : specs) {
    const auto workload = sim::workloads::make_workload(wspec);
    std::printf("%s  (%u conns, %zu events)\n", workload.name.c_str(),
                workload.trace.connections, workload.trace.events.size());
    std::printf("  %-22s %12s %14s %9s %8s\n", "demuxer", "ns/event",
                "pcbs_examined", "hit_rate", "misses");
    for (const std::string& dspec : demux_specs()) {
      const Cell cell = run_cell(workload, dspec, reps);
      const auto& res = cell.result;
      std::printf("  %-22s %12.1f %14.2f %9.3f %8llu\n", dspec.c_str(),
                  cell.ns_per_event, res.overall.mean(), res.hit_rate(),
                  static_cast<unsigned long long>(res.misses));

      report::BenchRecord rec;
      rec.bench = "wallclock_scenarios";
      rec.name = workload.name + "|" + dspec;
      rec.add_metric("ns_per_event", cell.ns_per_event);
      rec.add_metric("pcbs_examined", res.overall.mean());
      rec.add_metric("hit_rate", res.hit_rate());
      rec.add_metric("misses", static_cast<double>(res.misses));
      rec.add_metric("events",
                     static_cast<double>(workload.trace.events.size()));
      rec.add_metric("connections",
                     static_cast<double>(workload.trace.connections));
      rec.add_metric("opens", static_cast<double>(res.opens));
      rec.add_metric("closes", static_cast<double>(res.closes));
      writer.add(std::move(rec));
    }
    std::printf("\n");
  }

  bench::finish_json(writer, opts);
  return 0;
}

// Shared helpers for the table/figure benches: standard TPC/A runs,
// paper-vs-model-vs-simulation formatting, and — for the wallclock_*
// binaries — the one calibrated timing loop they all use plus --json /
// --smoke command-line handling.
#ifndef TCPDEMUX_BENCH_BENCH_UTIL_H_
#define TCPDEMUX_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <span>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/demux_registry.h"
#include "net/flow_key.h"
#include "report/bench_json.h"
#include "report/telemetry_json.h"
#include "sim/replay.h"
#include "sim/rng.h"
#include "sim/tpca_workload.h"

namespace tcpdemux::bench {

struct TpcaRun {
  std::uint32_t users = 2000;
  double response_time = 0.2;
  double rtt = 0.001;
  double duration = 200.0;
  double warmup = 20.0;
  bool open_loop = true;      // match the paper's analysis assumptions
  bool truncate_think = false;
  std::uint64_t seed = 42;
};

/// Generates the TPC/A trace for `run` and replays it through a freshly
/// constructed demuxer described by `config`.
inline sim::ReplayResult run_tpca(const TpcaRun& run,
                                  const core::DemuxConfig& config) {
  sim::TpcaWorkloadParams p;
  p.users = run.users;
  p.response_time = run.response_time;
  p.rtt = run.rtt;
  p.duration = run.duration;
  p.warmup = run.warmup;
  p.open_loop = run.open_loop;
  p.truncate_think = run.truncate_think;
  p.seed = run.seed;
  const sim::Trace trace = sim::generate_tpca_trace(p);
  const auto demuxer = core::make_demuxer(config);
  return sim::replay_trace(trace, *demuxer);
}

/// Replays one pre-generated trace through a fresh demuxer (use when
/// several algorithms must see the identical arrival stream).
inline sim::ReplayResult replay(const sim::Trace& trace,
                                const core::DemuxConfig& config) {
  const auto demuxer = core::make_demuxer(config);
  return sim::replay_trace(trace, *demuxer);
}

inline core::DemuxConfig config_of(std::string_view spec) {
  const auto config = core::parse_demux_spec(spec);
  if (!config) throw std::invalid_argument("bad demux spec");
  return *config;
}

// ---------------------------------------------------------------------------
// Wall-clock timing. One calibrated loop shared by every wallclock_* bench
// so they cannot drift apart in methodology: calibrate the per-rep call
// count to a minimum wall time, run R timed reps, report the median.
// ---------------------------------------------------------------------------

/// Keeps `value` observable so the optimizer cannot delete the computation
/// that produced it.
template <typename T>
inline void do_not_optimize(T const& value) {
#if defined(__GNUC__) || defined(__clang__)
  asm volatile("" : : "r,m"(value) : "memory");
#else
  static volatile T sink;
  sink = value;
#endif
}

/// Full compiler barrier: forces pending writes to be considered visible,
/// so stores into bench-owned buffers cannot be sunk out of the timed
/// region.
inline void clobber_memory() {
#if defined(__GNUC__) || defined(__clang__)
  asm volatile("" ::: "memory");
#endif
}

struct TimeLoopOptions {
  int reps = 5;                   ///< timed repetitions; the median wins
  double min_rep_seconds = 0.05;  ///< calibration target per rep
};

struct Timing {
  double ns_per_op = 0.0;         ///< median over reps
  std::uint64_t calls_per_rep = 0;
  int reps = 0;
};

/// Times `body` (which performs `ops_per_call` operations per invocation).
/// Calibrates the number of calls per rep so each rep runs at least
/// `min_rep_seconds`, then takes the median ns/op over `reps` reps —
/// robust against a stray scheduler preemption in any single rep.
template <typename F>
Timing time_loop(std::uint64_t ops_per_call, F&& body,
                 TimeLoopOptions opt = {}) {
  using clock = std::chrono::steady_clock;
  const auto run = [&](std::uint64_t calls) {
    const auto t0 = clock::now();
    for (std::uint64_t c = 0; c < calls; ++c) {
      body();
      clobber_memory();
    }
    return std::chrono::duration<double>(clock::now() - t0).count();
  };

  std::uint64_t calls = 1;
  double seconds = run(calls);
  while (seconds < opt.min_rep_seconds && calls < (1ULL << 40)) {
    // Scale toward the target in one or two steps instead of doubling
    // forever; the 1.4 headroom compensates for sub-linear re-runs.
    const double scale =
        std::max(2.0, 1.4 * opt.min_rep_seconds / std::max(seconds, 1e-9));
    calls = static_cast<std::uint64_t>(static_cast<double>(calls) * scale);
    seconds = run(calls);
  }

  std::vector<double> per_op(static_cast<std::size_t>(opt.reps));
  per_op[0] = seconds * 1e9 /
              (static_cast<double>(calls) * static_cast<double>(ops_per_call));
  for (int r = 1; r < opt.reps; ++r) {
    per_op[static_cast<std::size_t>(r)] =
        run(calls) * 1e9 /
        (static_cast<double>(calls) * static_cast<double>(ops_per_call));
  }
  std::sort(per_op.begin(), per_op.end());
  return Timing{per_op[per_op.size() / 2], calls, opt.reps};
}

// ---------------------------------------------------------------------------
// Negative lookups (--miss-rate). Arriving segments that match no PCB are
// real traffic — stray RSTs, packets for just-closed connections, scans —
// and their cost differs sharply by structure: a linear scan walks the
// whole list to conclude "no", a hashed table walks one chain. The
// helpers below give every wallclock bench the same deterministic way to
// blend them in.
// ---------------------------------------------------------------------------

/// Fully-specified keys guaranteed absent from `present`: same server half
/// (so they hash into the same tables), foreign half drawn from the
/// RFC 2544 benchmarking block 198.18/15 — outside every synthetic client
/// population this repo generates — and checked against `present` anyway,
/// so the guarantee holds even for pcap-derived key sets.
inline std::vector<net::FlowKey> make_absent_keys(
    std::span<const net::FlowKey> present, std::size_t count,
    std::uint64_t seed = 0xab5e47) {
  std::unordered_set<net::FlowKey> taken(present.begin(), present.end());
  sim::Rng rng(seed);
  net::FlowKey proto;
  if (!present.empty()) {
    proto.local_addr = present.front().local_addr;
    proto.local_port = present.front().local_port;
  } else {
    proto.local_addr = net::Ipv4Addr(10, 0, 0, 1);
    proto.local_port = 1521;
  }
  std::vector<net::FlowKey> absent;
  absent.reserve(count);
  while (absent.size() < count) {
    net::FlowKey k = proto;
    k.foreign_addr = net::Ipv4Addr(
        0xc6120000u | static_cast<std::uint32_t>(rng.uniform_index(1u << 17)));
    k.foreign_port =
        static_cast<std::uint16_t>(1024 + rng.uniform_index(64512));
    if (taken.insert(k).second) absent.push_back(k);
  }
  return absent;
}

/// Decides hit-or-miss per lookup with an error accumulator instead of an
/// RNG: exactly deterministic, evenly spread, and free inside timed loops.
/// rate 0 never fires; rate 0.25 fires every 4th call.
class MissSequencer {
 public:
  explicit MissSequencer(double rate) noexcept : rate_(rate) {}

  [[nodiscard]] bool next_is_miss() noexcept {
    acc_ += rate_;
    if (acc_ >= 1.0) {
      acc_ -= 1.0;
      return true;
    }
    return false;
  }

 private:
  double rate_;
  double acc_ = 0.0;
};

// ---------------------------------------------------------------------------
// Command line shared by the wallclock_* binaries:
//   --json <path>       export a JSON record array (report/bench_json.h)
//   --telemetry <path>  dump per-demuxer telemetry (report/telemetry_json.h)
//                       alongside the timings
//   --sizes <a,b,...>   restrict a population-sweep bench to these sizes;
//                       "500k"/"2m" suffixes scale by 1e3/1e6 (overhead A/B
//                       runs re-measure one size many times)
//   --miss-rate <f>     blend f (in [0,1]) negative lookups into the key
//                       stream (keys absent from the table, see above);
//                       1.0 = every lookup misses, the pure negative axis
//   --smoke             minimum-size, minimum-rep run for CI sanity checking
// ---------------------------------------------------------------------------

struct BenchOptions {
  bool smoke = false;
  std::string json_path;       ///< empty = no JSON export
  std::string telemetry_path;  ///< empty = no telemetry export
  double miss_rate = 0.0;      ///< fraction of lookups on absent keys
  std::vector<std::uint32_t> sizes;  ///< empty = the bench's default sweep

  /// Rep/time budget honouring --smoke: CI only needs "it runs and the
  /// numbers are plausible", not statistical confidence.
  [[nodiscard]] TimeLoopOptions timing() const {
    return smoke ? TimeLoopOptions{3, 0.002} : TimeLoopOptions{};
  }
};

inline BenchOptions parse_bench_args(int argc, char** argv) {
  BenchOptions opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      opts.smoke = true;
    } else if (arg == "--json" && i + 1 < argc) {
      opts.json_path = argv[++i];
    } else if (arg == "--telemetry" && i + 1 < argc) {
      opts.telemetry_path = argv[++i];
    } else if (arg == "--miss-rate" && i + 1 < argc) {
      char* end = nullptr;
      opts.miss_rate = std::strtod(argv[++i], &end);
      if (end == nullptr || *end != '\0' || opts.miss_rate < 0.0 ||
          opts.miss_rate > 1.0) {
        std::fprintf(stderr, "--miss-rate: need a fraction in [0, 1]\n");
        std::exit(2);
      }
    } else if (arg == "--sizes" && i + 1 < argc) {
      const std::string list = argv[++i];
      for (std::size_t pos = 0; pos < list.size();) {
        const std::size_t comma = std::min(list.find(',', pos), list.size());
        const std::string item = list.substr(pos, comma - pos);
        char* end = nullptr;
        unsigned long long v = std::strtoull(item.c_str(), &end, 10);
        // Scale suffix for population sizes: "500k" and "2m" read better
        // than raw digit strings in the multi-million-PCB sweeps.
        if (end != nullptr && (*end == 'k' || *end == 'K')) {
          v *= 1000ULL;
          ++end;
        } else if (end != nullptr && (*end == 'm' || *end == 'M')) {
          v *= 1000000ULL;
          ++end;
        }
        if (v == 0 || v > 0xffffffffULL || end == nullptr || *end != '\0' ||
            end == item.c_str()) {
          std::fprintf(stderr, "--sizes: bad size list '%s'\n", list.c_str());
          std::exit(2);
        }
        opts.sizes.push_back(static_cast<std::uint32_t>(v));
        pos = comma + 1;
      }
    } else {
      std::fprintf(stderr,
                   "usage: %s [--smoke] [--json <path>] [--telemetry <path>] "
                   "[--sizes <a,b,...>] [--miss-rate <f>]\n",
                   argv[0]);
      std::exit(2);
    }
  }
  return opts;
}

/// Writes the accumulated records if --json was given. Exits non-zero on
/// I/O failure so CI catches a bad path instead of silently shipping no
/// file.
inline void finish_json(const report::BenchJsonWriter& writer,
                        const BenchOptions& opts) {
  if (opts.json_path.empty()) return;
  if (!writer.write_file(opts.json_path)) {
    std::fprintf(stderr, "failed to write %s\n", opts.json_path.c_str());
    std::exit(1);
  }
}

/// Writes the accumulated telemetry reports if --telemetry was given.
/// Exits non-zero on I/O failure, exactly like finish_json.
inline void finish_telemetry(std::span<const report::TelemetryReport> reports,
                             const BenchOptions& opts) {
  if (opts.telemetry_path.empty()) return;
  if (!report::write_telemetry_json(opts.telemetry_path, reports)) {
    std::fprintf(stderr, "failed to write %s\n", opts.telemetry_path.c_str());
    std::exit(1);
  }
}

}  // namespace tcpdemux::bench

#endif  // TCPDEMUX_BENCH_BENCH_UTIL_H_

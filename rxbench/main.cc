// Receive-path benchmark: the per-frame cost of tcp::Host::input.
//
//   rxbench --workload oltp|bulk|churn --seed N --seconds S [--trace 0|1]
//
// One thread plays the NIC's receive ring at full speed (a closed loop:
// the next frame goes in only when Host::input has returned), the server
// application (answers queries, closes, drains accept()) and the timer
// (reap_closed, expire_embryonic every 10 ms of simulated time). Every
// connection is a simulated PCB inside one host; nothing crosses a socket
// or loopback. The demuxer is the registry spec "dynamic" and the SYN cache
// runs with default options; the host's clock is the workload's simulated
// time, so one seed always takes identical code paths.
//
// --trace 0 prints the end-to-end metrics. --trace 1 (the rxbench_traced
// binary, whose operator new counts) decomposes Host::input for half the
// time into the public calls it composes -- Reassembler::offer,
// Packet::parse, SocketTable::deliver -- timing each from outside, replays
// the demux operations through a standalone core::Demuxer of the same spec,
// then runs the rest of the stream untraced for the other half. The last stdout line is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <malloc.h>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <unistd.h>
#include <utility>
#include <vector>

#include "alloc_count.h"
#include "core/demux_registry.h"
#include "net/fragment.h"
#include "net/packet.h"
#include "tcp/host.h"
#include "traffic.h"

namespace rxbench {
namespace {

namespace core = tcpdemux::core;
namespace net = tcpdemux::net;
namespace tcp = tcpdemux::tcp;
using Clock = std::chrono::steady_clock;

constexpr std::string_view kDemuxSpec = "dynamic";
/// Frames generated per batch. Generation is not timed; the time budget is
/// checked between batches, so a batch must be short against it.
constexpr std::size_t kChunkFrames = 1 << 13;
/// Traced frames whose spans are kept (and written out) per run.
constexpr std::size_t kMaxTracedFrames = 1 << 20;

#if defined(__OPTIMIZE__) && !defined(__SANITIZE_ADDRESS__) && \
    !defined(__SANITIZE_THREAD__)
constexpr bool kOptimisedBuild = true;
#else
constexpr bool kOptimisedBuild = false;
#endif

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::uint64_t frames = 0;        ///< fixed timed-frame count (0 = time)
  std::int64_t corrupt_frame = -1; ///< timed frame whose checksum breaks
  std::string commit = "unknown";
  std::string source_digest = "unknown";
  std::string spans_out;
};

std::uint32_t ns_between(Clock::time_point a, Clock::time_point b) {
  const auto d = std::chrono::duration_cast<std::chrono::nanoseconds>(b - a);
  return static_cast<std::uint32_t>(
      std::min<std::int64_t>(d.count(), 0xffffffff));
}

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Nearest-rank quantile; sorts nothing, reorders `v`.
double quantile(std::vector<std::uint32_t>& v, double q) {
  if (v.empty()) return 0.0;
  const auto k = static_cast<std::size_t>(
      std::min<double>(static_cast<double>(v.size()) - 1,
                       std::ceil(q * static_cast<double>(v.size())) - 1));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n == 0 ? 0.0 : (n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2);
}

std::size_t resident_bytes() {
  std::ifstream statm("/proc/self/statm");
  std::size_t pages = 0;
  std::size_t resident = 0;
  statm >> pages >> resident;
  return resident * static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
}

double ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

/// Frame outcomes summed over a phase.
struct Tally {
  std::uint64_t frames = 0;
  std::uint64_t failed = 0;
  std::uint64_t goodput = 0;  ///< in-sequence payload bytes
  std::uint64_t slowpath = 0; ///< frames not delivered to an existing PCB
  double seconds = 0.0;       ///< wall time of the frame loops
};

/// One traced frame: the frame span [start, deliver_end) and its children
/// net.reasm [start, reasm_end), net.parse [reasm_end, parse_end),
/// tcp.deliver [parse_end, deliver_end). Times in ns from the phase start.
struct FrameSpans {
  std::uint64_t frame = 0;
  std::uint64_t start = 0;
  std::uint32_t reasm = 0;
  std::uint32_t parse = 0;
  std::uint32_t deliver = 0;
};

/// Untraced Host::input times at 1 ns resolution, pooled over a phase; the
/// last bucket holds every time from kTop ns up. Its quantiles are exact
/// below kTop, and it costs 512 KiB however long the run.
class NsHistogram {
 public:
  void add(std::uint32_t ns) {
    ++counts_[std::min(ns, kTop)];
    ++total_;
  }
  [[nodiscard]] std::uint64_t count() const { return total_; }
  /// Nearest-rank quantile, as quantile() above.
  [[nodiscard]] double quantile(double q) const {
    if (total_ == 0) return 0.0;
    const auto rank = static_cast<std::uint64_t>(std::max(
        1.0, std::ceil(q * static_cast<double>(total_))));
    std::uint64_t seen = 0;
    for (std::uint32_t ns = 0; ns < kTop; ++ns) {
      seen += counts_[ns];
      if (seen >= rank) return ns;
    }
    return kTop;
  }

 private:
  static constexpr std::uint32_t kTop = (1u << 16) - 1;
  std::vector<std::uint64_t> counts_ = std::vector<std::uint64_t>(kTop + 1);
  std::uint64_t total_ = 0;
};

/// A demux operation the host performed, for the standalone replay.
struct DemuxOp {
  enum class Type : std::uint8_t { kLookup, kInsert, kErase };
  FlowKey key;
  Type type = Type::kLookup;
  SegmentKind kind = SegmentKind::kData;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class Bench {
 public:
  Bench(const Options& opts, std::unique_ptr<Traffic> traffic,
        core::DemuxConfig config)
      : opts_(opts), traffic_(std::move(traffic)), config_(std::move(config)) {}

  /// Runs the workload, prints the metrics, provenance and result; returns
  /// the exit status.
  int run();

 private:
  std::unique_ptr<tcp::Host> make_host();
  double setup_host();
  void run_setups();
  [[nodiscard]] bool more(const Tally& t, double budget) const;
  void run_untraced(double budget, Tally& tally);
  void run_traced(Tally& tally);
  std::vector<Metric> end_to_end_metrics(const Tally& tally,
                                         std::string& samples_json);
  std::vector<Metric> per_layer_metrics(double failed_ratio,
                                        std::string& samples_json,
                                        std::string& exact_json);
  void run_timers(bool traced);
  bool settle(const FrameMeta& f, const tcp::SocketTable::DeliverResult& r,
              Tally& tally);
  void next_chunk(std::uint64_t phase_frames);
  void untraced_chunk(Tally& tally);
  void traced_chunk(Tally& tally);
  void replay_ops();
  void build_standalone();
  bool end_checks(std::vector<std::string>& problems);
  void write_spans() const;
  void print(const std::vector<Metric>& metrics, bool correct,
             std::uint64_t attempted, std::uint64_t failed) const;

  Options opts_;
  std::unique_ptr<Traffic> traffic_;
  core::DemuxConfig config_;
  std::unique_ptr<tcp::Host> host_;
  double now_ = 0.0;  ///< simulated time: the host's clock

  FrameBatch setup_;
  FrameBatch chunk_;
  std::uint64_t timed_offered_ = 0;  ///< timed frames generated, all phases
  std::uint64_t setup_failed_ = 0;   ///< mismatches in the last set-up
  /// Stream digest over the set-up and the first timed batch: the same for
  /// every run of one seed, however many frames the time budget admits.
  std::uint64_t prefix_fingerprint_ = 0;

  std::vector<double> setup_s_;         ///< every set-up repetition
  double rss_per_conn_ = 0.0;           ///< first set-up's RSS growth / conn
  double mem_per_conn_ = 0.0;           ///< Demuxer::memory_bytes() / size()
  NsHistogram rx_ns_;                   ///< untraced Host::input times

  std::uint64_t tx_segments_ = 0;
  std::uint64_t new_connections_ = 0;
  std::uint64_t accepted_ = 0;
  std::uint64_t bad_accepts_ = 0;
  std::size_t backlog_max_ = 0;
  std::size_t syncache_depth_max_ = 0;

  // Traced run only.
  Clock::time_point phase_start_;
  core::DemuxStats traced_stats_;  ///< the host's lookups while traced
  std::uint64_t slowpath_ = 0;
  net::Reassembler reassembler_;
  std::vector<FrameSpans> spans_;
  std::vector<std::uint32_t> accept_ns_;
  std::vector<std::uint32_t> reap_ns_;
  std::vector<FlowKey> closed_since_tick_;
  std::vector<DemuxOp> ops_;
  std::unique_ptr<core::Demuxer> standalone_;
  std::vector<std::uint32_t> lookup_ns_;
  std::vector<std::uint32_t> insert_ns_;
  std::vector<std::uint32_t> erase_ns_;
  std::uint64_t traced_tx_ = 0;
  AllocCount net_allocs_;
  AllocCount tcp_allocs_;
};

std::unique_ptr<tcp::Host> Bench::make_host() {
  auto host = std::make_unique<tcp::Host>(
      config_, [this](std::vector<std::uint8_t> /*wire*/, const core::Pcb&) {
        ++tx_segments_;
      });
  tcp::SocketTable& table = host->table();
  table.listen(net::Ipv4Addr(10, 0, 0, 1), Traffic::kServerPort);
  table.enable_syn_cache();
  table.set_clock([this] { return now_; });
  return host;
}

void Bench::run_timers(bool traced) {
  tcp::SocketTable& table = host_->table();
  if (traced) backlog_max_ = std::max(backlog_max_, table.accept_backlog());
  for (;;) {
    const auto t0 = Clock::now();
    core::Pcb* pcb = table.accept();
    const auto t1 = Clock::now();
    if (pcb == nullptr) break;
    if (traced) accept_ns_.push_back(ns_between(t0, t1));
    ++accepted_;
    if (pcb->state != core::TcpState::kEstablished) ++bad_accepts_;
  }
  if (traced) {
    // reap_closed erases exactly the PCBs that reached CLOSED since the
    // last tick; the standalone demuxer erases the same keys.
    for (const FlowKey& k : closed_since_tick_) {
      ops_.push_back(DemuxOp{k, DemuxOp::Type::kErase});
    }
    closed_since_tick_.clear();
    const auto t0 = Clock::now();
    table.reap_closed();
    reap_ns_.push_back(ns_between(t0, Clock::now()));
  } else {
    table.reap_closed();
  }
  table.expire_embryonic(now_);
}

bool Bench::settle(const FrameMeta& f,
                   const tcp::SocketTable::DeliverResult& r, Tally& tally) {
  ++tally.frames;
  if (r.status != Delivery::kDelivered) ++tally.slowpath;
  bool ok = r.status == f.status;
  if (ok && r.pcb != nullptr) {
    ok = r.pcb->state == f.state && r.pcb->rcv_nxt == f.rcv_nxt;
  } else if (ok) {
    ok = f.status != Delivery::kDelivered &&
         f.status != Delivery::kNewConnection;
  }
  if (ok) {
    tcp::SocketTable& table = host_->table();
    switch (f.action) {
      case Action::kNone:
        break;
      case Action::kRespond:
        ok = table.send_data(*r.pcb, f.response);
        break;
      case Action::kClose:
        ok = table.close(*r.pcb);
        break;
    }
  }
  if (!ok) {
    ++tally.failed;
    return false;
  }
  tally.goodput += f.goodput;
  if (f.status == Delivery::kNewConnection) ++new_connections_;
  return true;
}

double Bench::setup_host() {
  host_.reset();
  new_connections_ = 0;
  accepted_ = 0;
  const auto t0 = Clock::now();
  host_ = make_host();
  Tally tally;
  for (const FrameMeta& f : setup_.frames) {
    now_ = f.time;
    if (f.tick) run_timers(false);
    settle(f, host_->input(setup_.wire(f), f.time), tally);
  }
  run_timers(false);
  const double s = seconds_between(t0, Clock::now());
  setup_failed_ = tally.failed;
  return s;
}

void Bench::next_chunk(std::uint64_t phase_frames) {
  chunk_.clear();
  std::size_t n = kChunkFrames;
  if (opts_.frames != 0) {
    n = static_cast<std::size_t>(
        std::min<std::uint64_t>(n, opts_.frames - phase_frames));
  }
  traffic_->next(chunk_, n);
  if (timed_offered_ == 0) prefix_fingerprint_ = traffic_->fingerprint();
  if (opts_.corrupt_frame >= 0) {
    const auto at = static_cast<std::uint64_t>(opts_.corrupt_frame);
    if (at >= timed_offered_ && at < timed_offered_ + n) {
      const FrameMeta& f = chunk_.frames[at - timed_offered_];
      chunk_.bytes[f.offset + 36] ^= 0xff;  // TCP checksum, high byte
    }
  }
  timed_offered_ += n;
}

void Bench::untraced_chunk(Tally& tally) {
  const auto start = Clock::now();
  for (const FrameMeta& f : chunk_.frames) {
    now_ = f.time;
    if (f.tick) run_timers(false);
    const auto wire = chunk_.wire(f);
    const auto t0 = Clock::now();
    const auto r = host_->input(wire, f.time);
    const auto t1 = Clock::now();
    rx_ns_.add(ns_between(t0, t1));
    settle(f, r, tally);
  }
  tally.seconds += seconds_between(start, Clock::now());
}

void Bench::traced_chunk(Tally& tally) {
  tcp::SocketTable& table = host_->table();
  const auto start = Clock::now();
  for (const FrameMeta& f : chunk_.frames) {
    now_ = f.time;
    if (f.tick) run_timers(true);
    const auto wire = chunk_.wire(f);
    const AllocCount a0 = alloc_count();
    const auto t0 = Clock::now();
    const auto datagram = reassembler_.offer(wire, f.time);
    const auto t1 = Clock::now();
    std::optional<net::Packet> packet;
    if (datagram.has_value()) packet = net::Packet::parse(*datagram);
    const auto t2 = Clock::now();
    const AllocCount a2 = alloc_count();
    const std::uint64_t tx0 = tx_segments_;
    tcp::SocketTable::DeliverResult r;
    if (packet.has_value()) r = table.deliver(*packet);
    const auto t3 = Clock::now();
    const AllocCount a3 = alloc_count();

    traced_tx_ += tx_segments_ - tx0;
    net_allocs_.calls += a2.calls - a0.calls;
    net_allocs_.bytes += a2.bytes - a0.bytes;
    tcp_allocs_.calls += a3.calls - a2.calls;
    tcp_allocs_.bytes += a3.bytes - a2.bytes;
    spans_.push_back(FrameSpans{spans_.size(), ns_between(phase_start_, t0),
                                ns_between(t0, t1), ns_between(t1, t2),
                                ns_between(t2, t3)});
    if (packet.has_value()) {
      ops_.push_back(DemuxOp{f.key, DemuxOp::Type::kLookup, f.kind});
      if (r.status == Delivery::kNewConnection) {
        ops_.push_back(DemuxOp{f.key, DemuxOp::Type::kInsert});
      }
    }
    if (settle(f, r, tally) && f.state == TcpState::kClosed) {
      closed_since_tick_.push_back(f.key);
    }
    syncache_depth_max_ =
        std::max(syncache_depth_max_, table.syn_cache()->size());
  }
  tally.seconds += seconds_between(start, Clock::now());
}

void Bench::build_standalone() {
  standalone_ = core::make_demuxer(config_);
  for (const FrameMeta& f : setup_.frames) {
    if (f.status != Delivery::kNewConnection) continue;
    const auto t0 = Clock::now();
    standalone_->insert(f.key);
    insert_ns_.push_back(ns_between(t0, Clock::now()));
  }
}

void Bench::replay_ops() {
  for (const DemuxOp& op : ops_) {
    const auto t0 = Clock::now();
    switch (op.type) {
      case DemuxOp::Type::kLookup:
        (void)standalone_->lookup(op.key, op.kind);
        lookup_ns_.push_back(ns_between(t0, Clock::now()));
        break;
      case DemuxOp::Type::kInsert:
        standalone_->insert(op.key);
        insert_ns_.push_back(ns_between(t0, Clock::now()));
        break;
      case DemuxOp::Type::kErase:
        standalone_->erase(op.key);
        erase_ns_.push_back(ns_between(t0, Clock::now()));
        break;
    }
  }
  ops_.clear();
}

bool Bench::end_checks(std::vector<std::string>& problems) {
  now_ += 1.0;
  run_timers(false);
  const tcp::SocketTable& table = host_->table();
  const auto& c = table.counters();
  if (table.connection_count() != traffic_->live_connections()) {
    problems.push_back("connections " +
                       std::to_string(table.connection_count()) +
                       " != expected " +
                       std::to_string(traffic_->live_connections()));
  }
  if (c.parse_errors != 0) {
    problems.push_back("parse_errors " + std::to_string(c.parse_errors));
  }
  if (c.resets_sent != 0) {
    problems.push_back("resets_sent " + std::to_string(c.resets_sent));
  }
  if (accepted_ != new_connections_ || bad_accepts_ != 0) {
    problems.push_back("accepted " + std::to_string(accepted_) + " of " +
                       std::to_string(new_connections_) + " (" +
                       std::to_string(bad_accepts_) + " not established)");
  }
  return problems.empty();
}

void Bench::write_spans() const {
  if (opts_.spans_out.empty()) return;
  std::FILE* out = std::fopen(opts_.spans_out.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "rxbench: cannot write %s\n", opts_.spans_out.c_str());
    return;
  }
  // One row per frame span; its three children tile it in order.
  std::fprintf(out,
               "# frame span [start_ns, start_ns+reasm+parse+deliver) with "
               "children net.reasm, net.parse, tcp.deliver in that order\n"
               "frame\tstart_ns\tnet.reasm_ns\tnet.parse_ns\ttcp.deliver_ns\n");
  for (const FrameSpans& s : spans_) {
    std::fprintf(out, "%" PRIu64 "\t%" PRIu64 "\t%u\t%u\t%u\n", s.frame,
                 s.start, s.reasm, s.parse, s.deliver);
  }
  std::fclose(out);
}

std::string json_escape(std::string_view s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string utc_now() {
  const std::time_t t = std::time(nullptr);
  std::tm tm{};
  gmtime_r(&t, &tm);
  char buf[32];
  std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

void Bench::print(const std::vector<Metric>& metrics, bool correct,
                  std::uint64_t attempted, std::uint64_t failed) const {
  std::string m;
  for (const Metric& x : metrics) {
    if (!m.empty()) m += ", ";
    m += "\"" + x.name + "\": {\"value\": " + num(x.value) +
         ", \"unit\": \"" + x.unit + "\"}";
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {%s}}\n",
              correct ? "true" : "false", attempted, failed, m.c_str());
  std::fflush(stdout);
}

int setup_reps(std::string_view workload) {
  // Set-up is timed several times and the median reported: about two
  // seconds of set-up per run, at least three times.
  if (workload == "oltp") return 3;    // 1M handshakes, ~2 s each
  if (workload == "bulk") return 15;   // 100k handshakes, ~0.17 s each
  return 25;                           // churn: 50k handshakes, ~0.08 s each
}

void Bench::run_setups() {
  traffic_->setup(setup_);
  // Hand freed heap pages (key and trace generation) back to the kernel,
  // so the first set-up's growth is pages it really touched.
  malloc_trim(0);
  const std::size_t rss0 = resident_bytes();
  const int reps = opts_.trace ? 1 : setup_reps(opts_.workload);
  for (int i = 0; i < reps; ++i) {
    setup_s_.push_back(setup_host());
    if (i == 0) {
      const std::size_t rss1 = resident_bytes();
      rss_per_conn_ = ratio(rss1 - std::min(rss0, rss1),
                            host_->table().connection_count());
    }
  }
  const core::Demuxer& demux = host_->table().demuxer();
  mem_per_conn_ = ratio(demux.memory_bytes(), demux.size());
}

bool Bench::more(const Tally& t, double budget) const {
  return opts_.frames != 0 ? t.frames < opts_.frames : t.seconds < budget;
}

void Bench::run_untraced(double budget, Tally& tally) {
  while (more(tally, budget)) {
    next_chunk(tally.frames);
    untraced_chunk(tally);
  }
}

void Bench::run_traced(Tally& tally) {
  const core::DemuxStats before = host_->table().demuxer().stats();
  build_standalone();
  phase_start_ = Clock::now();
  while (more(tally, opts_.seconds / 2) &&
         spans_.size() + kChunkFrames <= kMaxTracedFrames) {
    next_chunk(tally.frames);
    traced_chunk(tally);
    replay_ops();
  }
  const core::DemuxStats after = host_->table().demuxer().stats();
  traced_stats_.lookups = after.lookups - before.lookups;
  traced_stats_.cache_hits = after.cache_hits - before.cache_hits;
  traced_stats_.pcbs_examined = after.pcbs_examined - before.pcbs_examined;
  slowpath_ = tally.slowpath;
}

std::vector<Metric> Bench::end_to_end_metrics(const Tally& tally,
                                              std::string& samples_json) {
  std::string setups;
  for (const double x : setup_s_) {
    setups += (setups.empty() ? "" : ", ") + num(x);
  }
  samples_json =
      "\"rx_ns\": " + std::to_string(rx_ns_.count()) +
      ", \"timed_s\": " + num(tally.seconds) +
      ", \"setup_s\": [" + setups + "]";
  return {
      {"rx_pps", static_cast<double>(tally.frames) / tally.seconds, "frames/s"},
      {"rx_ns_p50", rx_ns_.quantile(0.50), "ns"},
      {"rx_ns_p99", rx_ns_.quantile(0.99), "ns"},
      {"goodput_MBps", static_cast<double>(tally.goodput) / 1e6 / tally.seconds,
       "MB/s"},
      {"setup_s", median(setup_s_), "s"},
      {"rss_per_conn_B", rss_per_conn_, "B"},
  };
}

std::vector<Metric> Bench::per_layer_metrics(double failed_ratio,
                                             std::string& samples_json,
                                             std::string& exact_json) {
  // Teardown: erase the remaining population, timing each erase.
  replay_ops();
  const core::DemuxStats replay_stats = standalone_->stats();
  standalone_->for_each_pcb([this](const core::Pcb& p) {
    ops_.push_back(DemuxOp{p.key, DemuxOp::Type::kErase});
  });
  replay_ops();

  std::vector<std::uint32_t> reasm;
  std::vector<std::uint32_t> parse;
  std::vector<std::uint32_t> deliver;
  std::vector<std::uint32_t> frame;
  for (const FrameSpans& s : spans_) {
    reasm.push_back(s.reasm);
    parse.push_back(s.parse);
    deliver.push_back(s.deliver);
    frame.push_back(s.reasm + s.parse + s.deliver);
  }
  const std::uint64_t n = spans_.size();
  const double untraced_p50 = rx_ns_.quantile(0.50);
  const double frame_p50 = quantile(frame, 0.50);
  const double reasm_p50 = quantile(reasm, 0.50);
  const double parse_p50 = quantile(parse, 0.50);
  const double deliver_p50 = quantile(deliver, 0.50);
  const double insert_max =
      insert_ns_.empty()
          ? 0.0
          : *std::max_element(insert_ns_.begin(), insert_ns_.end());
  double reap_total = 0.0;
  for (const std::uint32_t r : reap_ns_) reap_total += r;
  const tcp::SynCache::Stats& syn = host_->table().syn_cache()->stats();

  samples_json =
      "\"traced_frames\": " + std::to_string(n) +
      ", \"untraced_frames\": " + std::to_string(rx_ns_.count()) +
      ", \"core.lookup\": " + std::to_string(lookup_ns_.size()) +
      ", \"core.insert\": " + std::to_string(insert_ns_.size()) +
      ", \"core.erase\": " + std::to_string(erase_ns_.size()) +
      ", \"tcp.accept\": " + std::to_string(accept_ns_.size()) +
      ", \"tcp.reap\": " + std::to_string(reap_ns_.size());
  exact_json =
      ", \"exact\": {\"lookups\": " + std::to_string(traced_stats_.lookups) +
      ", \"pcbs_examined\": " + std::to_string(traced_stats_.pcbs_examined) +
      ", \"cache_hits\": " + std::to_string(traced_stats_.cache_hits) +
      ", \"replay_lookups\": " + std::to_string(replay_stats.lookups) +
      ", \"replay_pcbs_examined\": " +
      std::to_string(replay_stats.pcbs_examined) +
      ", \"tx_segments\": " + std::to_string(traced_tx_) +
      ", \"net_allocs\": " + std::to_string(net_allocs_.calls) +
      ", \"net_alloc_bytes\": " + std::to_string(net_allocs_.bytes) +
      ", \"tcp_allocs\": " + std::to_string(tcp_allocs_.calls) +
      ", \"tcp_alloc_bytes\": " + std::to_string(tcp_allocs_.bytes) + "}";
  return {
      {"net.reasm.ns_p50", reasm_p50, "ns"},
      {"net.parse.ns_p50", parse_p50, "ns"},
      {"net.allocs_per_frame", ratio(net_allocs_.calls, n), "count"},
      {"net.alloc_bytes_per_frame", ratio(net_allocs_.bytes, n), "B"},
      {"core.lookup.ns_p50", quantile(lookup_ns_, 0.50), "ns"},
      {"core.examined_per_lookup", traced_stats_.mean_examined(), "count"},
      {"core.cache_hit_ratio", traced_stats_.hit_rate(), "fraction"},
      {"core.insert.ns_p50", quantile(insert_ns_, 0.50), "ns"},
      {"core.insert.ns_max", insert_max, "ns"},
      {"core.erase.ns_p50", quantile(erase_ns_, 0.50), "ns"},
      {"core.mem_bytes_per_conn", mem_per_conn_, "B"},
      {"tcp.deliver.ns_p50", deliver_p50, "ns"},
      {"tcp.allocs_per_frame", ratio(tcp_allocs_.calls, n), "count"},
      {"tcp.tx_segments_per_frame", ratio(traced_tx_, n), "count"},
      {"tcp.slowpath_ratio", ratio(slowpath_, n), "fraction"},
      {"tcp.accept.ns_p50", quantile(accept_ns_, 0.50), "ns"},
      {"tcp.accept_backlog_max", static_cast<double>(backlog_max_), "count"},
      {"tcp.reap.ns_per_call",
       reap_ns_.empty() ? 0.0 : reap_total / reap_ns_.size(), "ns"},
      {"tcp.syncache.depth_max", static_cast<double>(syncache_depth_max_),
       "count"},
      {"tcp.syncache.evicted", static_cast<double>(syn.evicted + syn.shed),
       "count"},
      {"trace.frame.ns_p50", frame_p50, "ns"},
      {"trace.layer_sum_ns", reasm_p50 + parse_p50 + deliver_p50, "ns"},
      {"trace.untraced_rx_ns_p50", untraced_p50, "ns"},
      {"trace.overhead_ratio",
       untraced_p50 > 0 ? frame_p50 / untraced_p50 : 0.0, "ratio"},
      {"rx_failed_ratio", failed_ratio, "fraction"},
  };
}

int Bench::run() {
  run_setups();
  Tally tally;
  if (opts_.trace) {
    run_traced(tally);
    // The untraced reference, continuing the same stream.
    Tally reference;
    run_untraced(opts_.seconds / 2, reference);
    tally.frames += reference.frames;
    tally.failed += reference.failed;
  } else {
    run_untraced(opts_.seconds, tally);
  }

  std::vector<std::string> problems;
  end_checks(problems);
  for (const std::string& p : problems) {
    std::printf("# check failed: %s\n", p.c_str());
  }
  const std::uint64_t attempted = setup_.frames.size() + tally.frames;
  const std::uint64_t failed = setup_failed_ + tally.failed + problems.size();

  std::string samples_json;
  std::string exact_json;
  const std::vector<Metric> metrics =
      opts_.trace
          ? per_layer_metrics(ratio(failed, attempted), samples_json,
                              exact_json)
          : end_to_end_metrics(tally, samples_json);
  if (opts_.trace) write_spans();
  for (const Metric& x : metrics) {
    std::printf("# %-28s %16.6f %s\n", x.name.c_str(), x.value,
                x.unit.c_str());
  }
  std::printf(
      "{\"provenance\": {\"workload\": \"%s\", \"seed\": %" PRIu64
      ", \"trace\": %d, \"commit\": \"%s\", \"source_digest\": \"%s\", "
      "\"compiler\": \"%s\", \"build_type\": \"%s\", \"flags\": \"%s\", "
      "\"nproc\": %u, \"date\": \"%s\", \"demux\": \"%s\", "
      "\"syn_cache\": \"default\", \"population\": %zu, "
      "\"setup_frames\": %zu, \"timed_frames\": %" PRIu64
      ", \"fingerprint\": \"%016" PRIx64
      "\", \"fingerprint_all\": \"%016" PRIx64
      "\", \"samples\": {%s}%s}}\n",
      opts_.workload.c_str(), opts_.seed, opts_.trace ? 1 : 0,
      json_escape(opts_.commit).c_str(),
      json_escape(opts_.source_digest).c_str(), RXBENCH_COMPILER,
      RXBENCH_BUILD_TYPE, json_escape(RXBENCH_CXX_FLAGS).c_str(),
      std::thread::hardware_concurrency(), utc_now().c_str(),
      std::string(kDemuxSpec).c_str(), traffic_->population(),
      setup_.frames.size(), tally.frames, prefix_fingerprint_,
      traffic_->fingerprint(), samples_json.c_str(), exact_json.c_str());
  print(metrics, failed == 0, attempted, failed);
  return failed == 0 ? 0 : 1;
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "rxbench: %s\n"
               "usage: rxbench --workload oltp|bulk|churn --seed N "
               "--seconds S [--trace 0|1] [--frames N] [--corrupt-frame I] "
               "[--commit C] [--source-digest D] [--spans-out FILE]\n",
               msg);
  return 2;
}

}  // namespace
}  // namespace rxbench

int main(int argc, char** argv) {
  using namespace rxbench;
  Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) return usage("missing value");
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      opts.workload = value;
    } else if (flag == "--seed") {
      opts.seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      opts.seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      opts.trace = std::string_view(value) == "1";
      if (!opts.trace && std::string_view(value) != "0") {
        return usage("--trace takes 0 or 1");
      }
    } else if (flag == "--frames") {
      opts.frames = std::strtoull(value, &end, 10);
    } else if (flag == "--corrupt-frame") {
      opts.corrupt_frame = std::strtoll(value, &end, 10);
    } else if (flag == "--commit") {
      opts.commit = value;
    } else if (flag == "--source-digest") {
      opts.source_digest = value;
    } else if (flag == "--spans-out") {
      opts.spans_out = value;
    } else {
      return usage("unknown flag");
    }
    if (end != nullptr && *end != '\0') return usage("bad number");
  }
  if (!(opts.seconds > 0.0)) return usage("--seconds must be > 0");
  if (!kOptimisedBuild ||
      std::string_view(RXBENCH_CXX_FLAGS).find("-fsanitize") !=
          std::string_view::npos) {
    std::fprintf(stderr, "rxbench: refusing to time a non-optimised or "
                         "sanitizer build (flags: %s)\n",
                 RXBENCH_CXX_FLAGS);
    return 2;
  }
  if (opts.trace && !alloc_counting()) {
    return usage("--trace 1 needs the rxbench_traced binary");
  }
  auto traffic = Traffic::make(opts.workload, opts.seed);
  if (traffic == nullptr) return usage("unknown workload");
  std::string error;
  auto config = tcpdemux::core::parse_demux_spec(kDemuxSpec, &error);
  if (!config) return usage(error.c_str());
  Bench bench(opts, std::move(traffic), *config);
  return bench.run();
}

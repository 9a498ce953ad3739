// Ablation: how many chains do you actually need? (§3.4/§3.5's "the
// system administrator may increase the value of H ... at the expense of a
// small increase in the memory used for the hash chain headers")
//
// Sweeps H over three decades at N = 2000 TPC/A users, reporting the
// analytic and simulated search cost *and* the memory bill, then lets the
// same table with growth switched on (`dynamic`) pick its own H for
// comparison.
#include <iostream>

#include "analytic/sequent_model.h"
#include "bench_util.h"
#include "report/table.h"
#include "sim/tpca_workload.h"

int main() {
  using namespace tcpdemux;
  constexpr std::uint32_t kUsers = 2000;

  std::cout << "=== Ablation: chain-count sweep, N = " << kUsers
            << " TPC/A users ===\n\n";

  sim::TpcaWorkloadParams p;
  p.users = kUsers;
  p.duration = 150.0;
  const sim::Trace trace = generate_tpca_trace(p);

  report::Table table({"H", "model (Eq 22)", "simulated", "hit rate",
                       "memory", "headers vs 1 chain"});
  std::size_t base_memory = 0;
  for (const std::uint32_t h :
       {1u, 3u, 7u, 19u, 51u, 101u, 257u, 509u, 1021u}) {
    core::DemuxConfig config;
    config.algorithm = core::Algorithm::kSequent;
    config.chains = h;
    config.hasher = net::HasherKind::kCrc32;
    const auto demuxer = core::make_demuxer(config);
    const auto r = sim::replay_trace(trace, *demuxer);
    const std::size_t memory = demuxer->memory_bytes();
    if (h == 1) base_memory = memory;
    table.add_row(
        {std::to_string(h),
         report::fmt(analytic::sequent_cost_exact(kUsers, h, 0.1, 0.2), 2),
         report::fmt(r.overall.mean(), 2),
         report::fmt(100.0 * r.hit_rate(), 1) + "%",
         std::to_string(memory / 1024) + " KiB",
         "+" + std::to_string((memory - base_memory) / 1024) + " KiB"});
  }
  table.print(std::cout);

  // The self-tuner.
  core::DemuxConfig dynamic;
  dynamic.algorithm = core::Algorithm::kDynamic;
  dynamic.chains = 19;
  dynamic.hasher = net::HasherKind::kCrc32;
  const auto demuxer = core::make_demuxer(dynamic);
  const auto r = sim::replay_trace(trace, *demuxer);
  std::cout << "\nself-tuning table (start 19, load cap 2.0): settled at "
            << demuxer->name() << ", mean "
            << report::fmt(r.overall.mean(), 2) << " PCBs, "
            << demuxer->memory_bytes() / 1024 << " KiB\n";

  std::cout << "\ntakeaway: chain headers are ~50 bytes each -- three "
               "decades of H cost less than 100 KiB while the scan length "
               "falls from ~1000 to ~2, which is the whole argument of "
               "sec 3.5\n";
  return 0;
}

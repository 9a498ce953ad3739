// Per-core sharded receive path vs shared-structure SMP baselines.
//
// The sharded demuxer's claim is architectural: RSS steering gives every
// core a private PCB table, so the receive path scales without a single
// atomic instruction — no lock to stripe, no epoch to enter, no cache
// line ever written by two cores. This bench runs that head-to-head on a
// 200k-connection population (paper-scale "hundreds or thousands" pushed
// to modern server counts):
//
//   sharded:N        ShardedDemuxer, thread i driving shard(i) with the
//                    key stream RSS would steer to it (pre-partitioned by
//                    home shard — the deployment shape, where the NIC has
//                    already done the split before software runs)
//   global_lock/*    one big mutex around a single table (naive SMP port)
//   striped/*        per-chain locks (Sequent's own design, [Dov90])
//   rcu/*            lock-free reads + epoch reclaim
//
// The shared-structure baselines see the same aggregate op stream, all
// threads drawing from the full key population. Mix rows add connection
// churn (erase+reinsert) at `writes` per 1024 ops; sharded churn stays
// shard-local, which is exactly the point — a connection's whole life is
// steered to one core.
//
// The NIC telemetry rows quantify the cost of the escape hatch: a
// NicDispatch churn replay with a quarter of the NIC's indirection table
// deliberately rewritten records the mis-steer rate, handoff queue depth,
// occupancy skew, and — the invariant the tests pin — zero lost frames
// and zero duplicate inserts, exported for ci/validate_sharded.py to gate.
//
// On a single-core host threads time-slice, so expect the no-atomics win
// to show as a constant factor rather than a scaling curve (same caveat
// as wallclock_parallel).
//
//   wallclock_sharded [--smoke] [--json <path>]
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/concurrent_demuxer.h"
#include "core/demux_registry.h"
#include "core/rcu_demuxer.h"
#include "core/sharded_demuxer.h"
#include "sim/address_space.h"
#include "sim/nic_dispatch.h"
#include "sim/workloads/churn_workload.h"

namespace {

using namespace tcpdemux;

std::uint32_t next_state(std::uint32_t& state) {
  state = state * 1664525u + 1013904223u;
  return state;
}

// Spin-barrier thread harness, aggregate wall ns/op, median over reps
// (same scheme as wallclock_parallel so rows are comparable).
double threaded_ns_per_op(
    int nthreads, std::uint64_t ops_per_thread, int reps,
    const std::function<void(int, std::uint64_t)>& body) {
  std::vector<double> samples;
  for (int rep = 0; rep < reps; ++rep) {
    std::atomic<int> ready{0};
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(nthreads));
    for (int t = 0; t < nthreads; ++t) {
      threads.emplace_back([&, t] {
        ready.fetch_add(1, std::memory_order_acq_rel);
        while (!go.load(std::memory_order_acquire)) {
        }
        body(t, ops_per_thread);
      });
    }
    while (ready.load(std::memory_order_acquire) != nthreads) {
    }
    const auto t0 = std::chrono::steady_clock::now();
    go.store(true, std::memory_order_release);
    for (auto& th : threads) th.join();
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    samples.push_back(seconds * 1e9 /
                      (static_cast<double>(ops_per_thread) * nthreads));
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

// Shared-structure body: all threads draw from the whole population.
template <typename D>
std::function<void(int, std::uint64_t)> shared_body(
    D& d, const std::vector<net::FlowKey>& keys,
    std::uint32_t writes_per_1024) {
  return [&d, &keys, writes_per_1024](int thread_index, std::uint64_t ops) {
    std::uint32_t prng =
        static_cast<std::uint32_t>(thread_index + 1) * 2654435761u;
    const std::uint32_t n = static_cast<std::uint32_t>(keys.size());
    for (std::uint64_t op = 0; op < ops; ++op) {
      const std::uint32_t s = next_state(prng);
      const net::FlowKey& k = keys[s % n];
      if ((s >> 21) % 1024 < writes_per_1024) {
        d.erase(k);
        d.insert(k);
      } else {
        bench::do_not_optimize(d.lookup(k).pcb);
      }
    }
  };
}

// Sharded body: thread i drives shard(i) with only the keys RSS homes
// there. Churn stays shard-local (insert back on the same shard the flow
// was steered to), so no cross-thread line is ever written.
std::function<void(int, std::uint64_t)> sharded_body(
    core::ShardedDemuxer& d,
    const std::vector<std::vector<net::FlowKey>>& partition,
    std::uint32_t writes_per_1024) {
  return [&d, &partition, writes_per_1024](int thread_index,
                                           std::uint64_t ops) {
    core::Demuxer& shard =
        d.shard(static_cast<std::uint32_t>(thread_index));
    const std::vector<net::FlowKey>& keys =
        partition[static_cast<std::size_t>(thread_index)];
    const std::uint32_t n = static_cast<std::uint32_t>(keys.size());
    if (n == 0) return;
    std::uint32_t prng =
        static_cast<std::uint32_t>(thread_index + 1) * 2654435761u;
    for (std::uint64_t op = 0; op < ops; ++op) {
      const std::uint32_t s = next_state(prng);
      const net::FlowKey& k = keys[s % n];
      if ((s >> 21) % 1024 < writes_per_1024) {
        shard.erase(k);
        shard.insert(k);
      } else {
        bench::do_not_optimize(shard.lookup(k).pcb);
      }
    }
  };
}

double occupancy_skew(const core::ShardedDemuxer& d) {
  const auto occ = d.occupancy();
  const std::size_t worst = *std::max_element(occ.begin(), occ.end());
  const double mean = static_cast<double>(d.size()) /
                      static_cast<double>(occ.size());
  return mean == 0.0 ? 0.0 : static_cast<double>(worst) / mean;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchOptions opts = bench::parse_bench_args(argc, argv);
  report::BenchJsonWriter writer;

  const std::uint32_t connections = opts.smoke ? 20'000 : 200'000;
  const std::uint64_t total_ops = opts.smoke ? 100'000 : 4'000'000;
  const int reps = opts.smoke ? 1 : 3;
  std::vector<int> thread_counts = {1, 2, 4};
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  if (hw > 4) thread_counts.push_back(hw);
  if (opts.smoke) thread_counts = {1, 2, 4};

  sim::AddressSpaceParams ap;
  ap.clients = connections;
  const std::vector<net::FlowKey> keys = sim::make_client_keys(ap);

  std::printf("sharded receive path, %u connections\n", connections);
  std::printf("%-28s %8s %7s %12s %8s\n", "structure", "threads", "w/1024",
              "ns/op(agg)", "skew");

  const auto record = [&](const std::string& name, int threads,
                          std::uint32_t writes, double ns, double skew) {
    std::printf("%-28s %8d %7u %12.1f %8.3f\n", name.c_str(), threads,
                writes, ns, skew);
    report::BenchRecord rec;
    rec.bench = "wallclock_sharded";
    rec.name = name;
    rec.add_metric("connections", connections);
    rec.add_metric("threads", threads);
    rec.add_metric("writes_per_1024", writes);
    rec.add_metric("ns_per_op", ns);
    if (skew > 0.0) rec.add_metric("occ_skew", skew);
    writer.add(std::move(rec));
  };

  // --- sharded: one fleet per thread count (shards == threads) ---------
  for (const int threads : thread_counts) {
    // Every shard is the host default, grown to fit its share untimed.
    core::ShardedDemuxer d(core::ShardedDemuxer::Options{
        static_cast<std::uint32_t>(threads),
        *core::parse_demux_spec("dynamic")});
    for (const net::FlowKey& k : keys) d.insert(k);
    std::vector<std::vector<net::FlowKey>> partition(
        static_cast<std::size_t>(threads));
    for (const net::FlowKey& k : keys) {
      partition[d.home_shard(k)].push_back(k);
    }
    const std::uint64_t per_thread =
        std::max<std::uint64_t>(total_ops / threads, 1024);
    for (const std::uint32_t writes : {0u, 64u}) {
      const double ns = threaded_ns_per_op(
          threads, per_thread, reps, sharded_body(d, partition, writes));
      record("sharded:" + std::to_string(threads) + ":dynamic", threads,
             writes, ns, occupancy_skew(d));
    }
  }

  // --- shared-structure baselines --------------------------------------
  const std::uint32_t chains = opts.smoke ? 4099u : 32771u;
  {
    auto d = std::make_unique<core::GloballyLockedDemuxer>(
        core::make_demuxer(*core::parse_demux_spec("dynamic")));
    for (const net::FlowKey& k : keys) d->insert(k);
    for (const int threads : thread_counts) {
      const std::uint64_t per_thread =
          std::max<std::uint64_t>(total_ops / threads, 1024);
      for (const std::uint32_t writes : {0u, 64u}) {
        const double ns = threaded_ns_per_op(
            threads, per_thread, reps, shared_body(*d, keys, writes));
        record("global_lock/dynamic", threads, writes, ns, 0.0);
      }
    }
  }
  {
    core::ConcurrentSequentDemuxer d(core::ConcurrentSequentDemuxer::Options{
        chains, net::HasherKind::kCrc32, true});
    for (const net::FlowKey& k : keys) d.insert(k);
    for (const int threads : thread_counts) {
      const std::uint64_t per_thread =
          std::max<std::uint64_t>(total_ops / threads, 1024);
      for (const std::uint32_t writes : {0u, 64u}) {
        const double ns = threaded_ns_per_op(
            threads, per_thread, reps, shared_body(d, keys, writes));
        record("striped/sequent:" + std::to_string(chains), threads, writes,
               ns, 0.0);
      }
    }
  }
  {
    core::RcuSequentDemuxer d(core::RcuSequentDemuxer::Options{
        chains, net::HasherKind::kCrc32, true});
    for (const net::FlowKey& k : keys) d.insert(k);
    for (const int threads : thread_counts) {
      const std::uint64_t per_thread =
          std::max<std::uint64_t>(total_ops / threads, 1024);
      for (const std::uint32_t writes : {0u, 64u}) {
        const double ns = threaded_ns_per_op(
            threads, per_thread, reps, shared_body(d, keys, writes));
        record("rcu/sequent:" + std::to_string(chains), threads, writes, ns,
               0.0);
      }
    }
  }

  // --- NIC mis-steer telemetry: churn replay with a damaged table ------
  {
    core::ShardedDemuxer d(core::ShardedDemuxer::Options{
        4, *core::parse_demux_spec("dynamic")});
    sim::NicDispatch nic(d);
    const auto& host = d.indirection();
    for (std::uint32_t i = 0; i < host.entries() / 4; ++i) {
      nic.set_nic_entry(i, (host.entry(i) + 1) % d.shard_count());
    }
    sim::workloads::ChurnWorkloadParams cp;
    cp.users = opts.smoke ? 2'000 : 200'000;
    cp.duration = opts.smoke ? 10.0 : 30.0;
    const auto churn = sim::workloads::generate_churn_workload(cp);
    const sim::NicDispatch::Result r = nic.run(churn.workload);
    std::printf(
        "nic/churn users=%u: frames=%llu missteer_rate=%.4f handoff_depth=%llu "
        "skew=%.3f lost=%llu dup=%llu\n",
        cp.users, static_cast<unsigned long long>(r.frames),
        r.missteer_rate(),
        static_cast<unsigned long long>(r.max_handoff_depth),
        r.peak_occ_skew, static_cast<unsigned long long>(r.lost),
        static_cast<unsigned long long>(r.duplicate_inserts));
    report::BenchRecord rec;
    rec.bench = "wallclock_sharded";
    rec.name = "nic/churn";
    rec.add_metric("users", cp.users);
    rec.add_metric("frames", static_cast<double>(r.frames));
    rec.add_metric("missteer_rate", r.missteer_rate());
    rec.add_metric("handoffs", static_cast<double>(r.handoffs));
    rec.add_metric("max_handoff_depth",
                   static_cast<double>(r.max_handoff_depth));
    rec.add_metric("handoff_drops", static_cast<double>(r.handoff_drops));
    rec.add_metric("peak_occ_skew", r.peak_occ_skew);
    rec.add_metric("lost", static_cast<double>(r.lost));
    rec.add_metric("duplicate_inserts",
                   static_cast<double>(r.duplicate_inserts));
    rec.add_metric("dirty_closes", static_cast<double>(r.dirty_closes));
    writer.add(std::move(rec));
  }

  bench::finish_json(writer, opts);
  return 0;
}

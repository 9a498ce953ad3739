// NicDispatch end-to-end: real workloads (connection churn with ephemeral
// port reuse, NAT'd populations) replayed through a simulated RSS NIC in
// front of a sharded demuxer. The properties under test are the handoff
// protocol's: a deliberately wrong NIC indirection entry mis-steers every
// frame of the affected flows, yet no connection is lost or duplicated and
// every close still reaches CLOSED — and the mis-steer telemetry matches
// ground truth computed independently from the trace and the two steering
// tables.
#include "sim/nic_dispatch.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/demux_registry.h"
#include "core/sharded_demuxer.h"
#include "core/validate.h"
#include "net/hashers.h"
#include "sim/trace.h"
#include "sim/workloads/churn_workload.h"
#include "sim/workloads/natpop_workload.h"

namespace tcpdemux::sim {
namespace {

core::ShardedDemuxer make_sharded(std::uint32_t shards) {
  return core::ShardedDemuxer(core::ShardedDemuxer::Options{
      shards, *core::parse_demux_spec("dynamic")});
}

// Replays the NIC's frame accounting from the trace alone: which frames
// each event produces, and which of them the NIC's table steers away from
// the shard the host stack places (and keeps) the PCB on. Deliberately a
// second implementation — the test fails if NicDispatch and this ever
// disagree on what happened.
struct GroundTruth {
  std::uint64_t frames = 0;
  std::uint64_t missteers = 0;
};

GroundTruth compute_ground_truth(const workloads::Workload& w,
                                 const core::ShardedDemuxer& demuxer,
                                 const NicDispatch& nic) {
  std::vector<bool> mis(w.trace.connections, false);
  for (std::uint32_t c = 0; c < w.trace.connections; ++c) {
    mis[c] = nic.nic_queue_for(w.keys[c]) != demuxer.home_shard(w.keys[c]);
  }
  std::vector<bool> seen(w.trace.connections, false);
  std::vector<bool> alive(w.trace.connections, false);
  for (const TraceEvent& e : w.trace.events) {
    if (!seen[e.conn]) {
      seen[e.conn] = true;
      // Pre-established connections come up without NIC frames.
      alive[e.conn] = e.kind != TraceEventKind::kOpen;
    }
  }
  GroundTruth gt;
  const auto count = [&gt, &mis](std::uint32_t conn, std::uint64_t n) {
    gt.frames += n;
    if (mis[conn]) gt.missteers += n;
  };
  for (const TraceEvent& e : w.trace.events) {
    switch (e.kind) {
      case TraceEventKind::kOpen:
        count(e.conn, 2);  // SYN + handshake-completing ACK
        alive[e.conn] = true;
        break;
      case TraceEventKind::kArrivalData:
      case TraceEventKind::kArrivalAck:
        count(e.conn, 1);
        break;
      case TraceEventKind::kTransmit:
        break;  // host-side send, no inbound frame
      case TraceEventKind::kClose:
        if (alive[e.conn]) {
          count(e.conn, 2);  // client FIN + final ACK of our FIN
          alive[e.conn] = false;
        }
        break;
    }
  }
  return gt;
}

void expect_shard_stats_consistent(const NicDispatch::Result& r) {
  std::uint64_t frames = 0;
  std::uint64_t handoffs_in = 0;
  for (const NicDispatch::ShardStats& s : r.shard) {
    frames += s.frames;
    handoffs_in += s.handoffs_in;
    EXPECT_LE(s.max_inbox_depth, r.max_handoff_depth);
  }
  EXPECT_EQ(frames, r.frames);
  // Every enqueued handoff is eventually drained (run() force-drains at
  // the end), so per-shard inbound handoffs account for all of them.
  EXPECT_EQ(handoffs_in, r.handoffs);
}

TEST(NicDispatch, ChurnWithSyncedTablesHasNoMissteers) {
  core::ShardedDemuxer demuxer = make_sharded(4);
  NicDispatch nic(demuxer);
  workloads::ChurnWorkloadParams params;
  params.users = 400;
  params.duration = 20.0;
  const auto churn = generate_churn_workload(params);
  const GroundTruth gt = compute_ground_truth(churn.workload, demuxer, nic);
  const NicDispatch::Result r = nic.run(churn.workload);

  EXPECT_EQ(r.frames, gt.frames);
  EXPECT_EQ(r.missteers, 0u);
  EXPECT_EQ(gt.missteers, 0u);
  EXPECT_EQ(r.handoffs, 0u);
  EXPECT_EQ(r.handoff_drops, 0u);
  EXPECT_EQ(r.lost, 0u);
  EXPECT_EQ(r.duplicate_inserts, 0u);
  EXPECT_EQ(r.dirty_closes, 0u);
  EXPECT_GT(r.opens, 0u);
  EXPECT_GT(r.closes, 0u);
  EXPECT_GT(r.server_emits, 0u);
  EXPECT_GE(r.peak_occ_skew, 1.0);
  expect_shard_stats_consistent(r);
  EXPECT_TRUE(core::validate_demuxer(demuxer).ok());
}

TEST(NicDispatch, ChurnWithPlantedWrongEntriesMatchesGroundTruth) {
  core::ShardedDemuxer demuxer = make_sharded(4);
  NicDispatch nic(demuxer);
  // A buggy driver rewrote a quarter of the NIC's indirection table; the
  // host tables never see it. Every flow masking into those entries now
  // arrives on the wrong core, handshakes included.
  const auto& host = demuxer.indirection();
  for (std::uint32_t i = 0; i < host.entries() / 4; ++i) {
    nic.set_nic_entry(i, (host.entry(i) + 1) % demuxer.shard_count());
  }
  workloads::ChurnWorkloadParams params;
  params.users = 400;
  params.duration = 20.0;
  const auto churn = generate_churn_workload(params);
  const GroundTruth gt = compute_ground_truth(churn.workload, demuxer, nic);
  ASSERT_GT(gt.missteers, 0u);
  const NicDispatch::Result r = nic.run(churn.workload);

  // The telemetry must equal the independently computed truth exactly.
  EXPECT_EQ(r.frames, gt.frames);
  EXPECT_EQ(r.missteers, gt.missteers);
  EXPECT_GT(r.missteer_rate(), 0.0);
  EXPECT_LT(r.missteer_rate(), 1.0);
  EXPECT_GT(r.handoffs, 0u);
  EXPECT_GT(r.max_handoff_depth, 0u);

  // And mis-steering must cost forwarding only — never correctness.
  EXPECT_EQ(r.handoff_drops, 0u);
  EXPECT_EQ(r.lost, 0u);
  EXPECT_EQ(r.duplicate_inserts, 0u);
  EXPECT_EQ(r.dirty_closes, 0u);
  expect_shard_stats_consistent(r);
  // Host steering never drifted, so the strict per-shard home-placement
  // invariant still holds structurally.
  EXPECT_FALSE(demuxer.misplaced_possible());
  EXPECT_TRUE(core::validate_demuxer(demuxer).ok());
}

TEST(NicDispatch, NatPopulationWithPlantedWrongEntriesMatchesGroundTruth) {
  // NAT'd population: thousands of users behind a few gateway addresses,
  // all steering entropy in the port bits, with (gateway, port) bindings
  // legitimately recycled across users — tuple reuse under mis-steering.
  core::ShardedDemuxer demuxer = make_sharded(8);
  NicDispatch nic(demuxer);
  const auto& host = demuxer.indirection();
  for (std::uint32_t i = 0; i < host.entries(); i += 8) {
    nic.set_nic_entry(i, (host.entry(i) + 3) % demuxer.shard_count());
  }
  workloads::NatPopParams params;
  params.clients = 1500;
  params.gateways = 8;
  params.duration = 15.0;
  const auto nat = generate_natpop_workload(params);
  const GroundTruth gt = compute_ground_truth(nat.workload, demuxer, nic);
  ASSERT_GT(gt.missteers, 0u);
  const NicDispatch::Result r = nic.run(nat.workload);

  EXPECT_EQ(r.frames, gt.frames);
  EXPECT_EQ(r.missteers, gt.missteers);
  EXPECT_EQ(r.handoff_drops, 0u);
  EXPECT_EQ(r.lost, 0u);
  EXPECT_EQ(r.duplicate_inserts, 0u);
  EXPECT_EQ(r.dirty_closes, 0u);
  expect_shard_stats_consistent(r);
  EXPECT_TRUE(core::validate_demuxer(demuxer).ok());
}

TEST(NicDispatch, BoundedInboxDropsFramesUnderPressureWithoutLosingState) {
  // Shrink the handoff inbox until it overflows: frames are dropped and
  // counted (the backpressure a bounded queue exists to surface), the
  // depth bound holds, and the mis-steer count — taken before the
  // capacity check — still matches ground truth. Dropped FINs/ACKs may
  // leave closes dirty; they must never corrupt the table or lose a
  // *resident* PCB.
  core::ShardedDemuxer demuxer = make_sharded(4);
  NicDispatch::Options options;
  options.handoff_capacity = 2;
  options.drain_interval = 512;  // let inboxes actually fill
  NicDispatch nic(demuxer, options);
  const auto& host = demuxer.indirection();
  for (std::uint32_t i = 0; i < host.entries() / 2; ++i) {
    nic.set_nic_entry(i, (host.entry(i) + 1) % demuxer.shard_count());
  }
  workloads::ChurnWorkloadParams params;
  params.users = 400;
  params.duration = 20.0;
  const auto churn = generate_churn_workload(params);
  const GroundTruth gt = compute_ground_truth(churn.workload, demuxer, nic);
  const NicDispatch::Result r = nic.run(churn.workload);

  EXPECT_EQ(r.frames, gt.frames);
  EXPECT_EQ(r.missteers, gt.missteers);
  EXPECT_GT(r.handoff_drops, 0u);
  EXPECT_LE(r.max_handoff_depth, options.handoff_capacity);
  EXPECT_EQ(r.lost, 0u);
  EXPECT_EQ(r.duplicate_inserts, 0u);
  EXPECT_TRUE(core::validate_demuxer(demuxer).ok());
}

TEST(NicDispatch, SyncWithHostRestoresCleanSteering) {
  core::ShardedDemuxer demuxer = make_sharded(4);
  NicDispatch nic(demuxer);
  const auto& host = demuxer.indirection();
  for (std::uint32_t i = 0; i < host.entries(); ++i) {
    nic.set_nic_entry(i, (host.entry(i) + 1) % demuxer.shard_count());
  }
  nic.sync_with_host();  // ethtool -X back to the host's table
  workloads::ChurnWorkloadParams params;
  params.users = 100;
  params.duration = 5.0;
  const auto churn = generate_churn_workload(params);
  const NicDispatch::Result r = nic.run(churn.workload);
  EXPECT_EQ(r.missteers, 0u);
  EXPECT_EQ(r.lost, 0u);
}

}  // namespace
}  // namespace tcpdemux::sim

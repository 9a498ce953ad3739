#include "sim/flash_crowd_workload.h"

#include <gtest/gtest.h>

#include "core/sequent_hash.h"
#include "sim/replay.h"

namespace tcpdemux::sim {
namespace {

FlashCrowdParams small_params() {
  FlashCrowdParams p;
  p.users = 300;
  p.ramp = 60.0;
  p.duration = 120.0;
  return p;
}

TEST(FlashCrowd, TraceValidAndEveryUserOpens) {
  const Trace t = generate_flash_crowd_trace(small_params());
  EXPECT_TRUE(t.valid());
  std::size_t opens = 0;
  for (const TraceEvent& e : t.events) {
    if (e.kind == TraceEventKind::kOpen) ++opens;
  }
  EXPECT_EQ(opens, 300u);
}

TEST(FlashCrowd, OpensConfinedToRamp) {
  const auto p = small_params();
  const Trace t = generate_flash_crowd_trace(p);
  for (const TraceEvent& e : t.events) {
    if (e.kind == TraceEventKind::kOpen) {
      EXPECT_GE(e.time, 0.0);
      EXPECT_LT(e.time, p.ramp);
    }
  }
}

TEST(FlashCrowd, OpenAlwaysPrecedesActivity) {
  const Trace t = generate_flash_crowd_trace(small_params());
  std::vector<bool> open(t.connections, false);
  for (const TraceEvent& e : t.events) {
    if (e.kind == TraceEventKind::kOpen) {
      open[e.conn] = true;
    } else {
      EXPECT_TRUE(open[e.conn]) << "conn " << e.conn << " active unopened";
    }
  }
}

TEST(FlashCrowd, ReplayHasNoMissesAndFullPopulation) {
  const Trace t = generate_flash_crowd_trace(small_params());
  core::SequentDemuxer d;
  const auto r = replay_trace(t, d);
  EXPECT_EQ(r.misses, 0u);
  EXPECT_EQ(r.opens, 300u);
  EXPECT_EQ(d.size(), 300u);  // everyone stays connected
}

TEST(FlashCrowd, ArrivalRateGrowsThroughRamp) {
  const auto p = small_params();
  const Trace t = generate_flash_crowd_trace(p);
  std::size_t first_quarter = 0;
  std::size_t last_quarter = 0;
  for (const TraceEvent& e : t.events) {
    if (e.kind != TraceEventKind::kArrivalData) continue;
    if (e.time < p.ramp / 4) ++first_quarter;
    if (e.time >= p.duration - p.ramp / 4) ++last_quarter;
  }
  EXPECT_GT(last_quarter, 3 * first_quarter);
}

TEST(FlashCrowd, DynamicTableGrowsWithTheCrowd) {
  FlashCrowdParams p;
  p.users = 2000;
  p.ramp = 60.0;
  p.duration = 120.0;
  const Trace t = generate_flash_crowd_trace(p);
  core::SequentDemuxer d({.chains = 19,
                          .hasher = net::HasherKind::kCrc32,
                          .grow = true});
  const auto r = replay_trace(t, d);
  EXPECT_EQ(r.misses, 0u);
  EXPECT_GT(d.doublings(), 3u);
  EXPECT_GE(d.chains(), 1361u);
  // Despite a 100x population swing, cost stayed bounded by the load cap.
  EXPECT_LT(r.overall.mean(), 4.0);
}

TEST(FlashCrowd, RejectsInvalidConfig) {
  FlashCrowdParams p;
  p.users = 0;
  EXPECT_THROW(generate_flash_crowd_trace(p), std::invalid_argument);
  p = FlashCrowdParams{};
  p.ramp = 0.0;
  EXPECT_THROW(generate_flash_crowd_trace(p), std::invalid_argument);
  p = FlashCrowdParams{};
  p.ramp = 500.0;  // beyond duration
  EXPECT_THROW(generate_flash_crowd_trace(p), std::invalid_argument);
}

TEST(FlashCrowd, Deterministic) {
  const auto a = generate_flash_crowd_trace(small_params());
  const auto b = generate_flash_crowd_trace(small_params());
  EXPECT_EQ(a.events, b.events);
}

}  // namespace
}  // namespace tcpdemux::sim

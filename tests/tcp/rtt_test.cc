#include "tcp/rtt.h"

#include <gtest/gtest.h>

namespace tcpdemux::tcp {
namespace {

TEST(RttEstimator, InitialRtoIsOneSecond) {
  RttEstimator e;
  EXPECT_EQ(e.rto_us(), 1'000'000u);
  EXPECT_FALSE(e.has_samples());
}

TEST(RttEstimator, FirstSampleInitializesPerRfc) {
  RttEstimator e;
  e.add_sample(200'000);  // 200 ms
  EXPECT_EQ(e.srtt_us(), 200'000u);
  EXPECT_EQ(e.rttvar_us(), 100'000u);
  // RTO = SRTT + 4*RTTVAR = 600 ms, clamped up to the 1 s minimum.
  EXPECT_EQ(e.rto_us(), 1'000'000u);
}

TEST(RttEstimator, LargeRttExceedsMinimum) {
  RttEstimator e;
  e.add_sample(2'000'000);  // 2 s
  EXPECT_EQ(e.rto_us(), 2'000'000u + 4u * 1'000'000u);
}

TEST(RttEstimator, EwmaConvergesToSteadyRtt) {
  RttEstimator e;
  for (int i = 0; i < 100; ++i) e.add_sample(50'000);
  EXPECT_NEAR(e.srtt_us(), 50'000.0, 2000.0);
  EXPECT_LT(e.rttvar_us(), 5'000u);
}

TEST(RttEstimator, VarianceTracksJitter) {
  RttEstimator steady;
  RttEstimator jittery;
  // Base RTTs above the 1 s RTO floor so the comparison is unclamped.
  for (int i = 0; i < 200; ++i) {
    steady.add_sample(1'000'000);
    jittery.add_sample(i % 2 == 0 ? 500'000 : 1'500'000);
  }
  EXPECT_GT(jittery.rttvar_us(), steady.rttvar_us() + 100'000u);
  EXPECT_GT(jittery.rto_us(), steady.rto_us());
}

TEST(RttEstimator, TimeoutBacksOffExponentially) {
  RttEstimator e;
  e.add_sample(2'000'000);
  const auto base = e.rto_us();
  e.on_timeout();
  EXPECT_EQ(e.rto_us(), base * 2);
  e.on_timeout();
  EXPECT_EQ(e.rto_us(), base * 4);
}

TEST(RttEstimator, BackoffSaturatesAtMax) {
  RttEstimator e;
  for (int i = 0; i < 20; ++i) e.on_timeout();
  EXPECT_EQ(e.rto_us(), 60'000'000u);
}

TEST(RttEstimator, CustomConfigRespected) {
  RttConfig config;
  config.min_rto_us = 200'000;
  config.max_rto_us = 5'000'000;
  RttEstimator e(config);
  e.add_sample(10'000);
  EXPECT_EQ(e.rto_us(), 200'000u);  // clamped to custom floor
  for (int i = 0; i < 10; ++i) e.on_timeout();
  EXPECT_EQ(e.rto_us(), 5'000'000u);
}

TEST(UpdatePcbRtt, FirstAndFollowingSamples) {
  core::Pcb pcb(net::FlowKey{});
  pcb.srtt_us = 0;  // mark "no samples"
  update_pcb_rtt(pcb, 300'000);
  EXPECT_EQ(pcb.srtt_us, 300'000u);
  EXPECT_EQ(pcb.rttvar_us, 150'000u);
  update_pcb_rtt(pcb, 100'000);
  // srtt = 7/8*300 + 1/8*100 = 275 ms; rttvar = 3/4*150 + 1/4*200 = 162.5.
  EXPECT_EQ(pcb.srtt_us, 275'000u);
  EXPECT_EQ(pcb.rttvar_us, 162'500u);
  // 275 ms + 4 * 162.5 ms = 925 ms, below the RFC 6298 1 s floor.
  EXPECT_EQ(pcb.rto_us, 1'000'000u);
}

TEST(UpdatePcbRtt, MatchesEstimatorSequence) {
  core::Pcb pcb(net::FlowKey{});
  pcb.srtt_us = 0;
  RttEstimator e;
  const std::uint32_t samples[] = {120'000, 80'000, 90'000, 400'000, 110'000};
  for (const std::uint32_t s : samples) {
    update_pcb_rtt(pcb, s);
    e.add_sample(s);
  }
  EXPECT_EQ(pcb.srtt_us, e.srtt_us());
  EXPECT_EQ(pcb.rttvar_us, e.rttvar_us());
  EXPECT_EQ(pcb.rto_us, e.rto_us());
}

}  // namespace
}  // namespace tcpdemux::tcp

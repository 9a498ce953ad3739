// Flash-crowd workload: the population *ramps* instead of standing still.
//
// The paper analyzes a steady population; a real OLTP launch (or a
// region failing over) sees thousands of users connect over minutes. Each
// user joins at a random time in the ramp window (kOpen), then behaves as
// a TPC/A user. This stresses exactly what the fixed-H Sequent structure
// cannot do — re-size — and what its growth switch (the registry's
// `dynamic`, core/sequent_hash) exists for.
#ifndef TCPDEMUX_SIM_FLASH_CROWD_WORKLOAD_H_
#define TCPDEMUX_SIM_FLASH_CROWD_WORKLOAD_H_

#include <cstdint>

#include "sim/trace.h"

namespace tcpdemux::sim {

struct FlashCrowdParams {
  std::uint32_t users = 2000;
  double ramp = 120.0;        ///< users join uniformly over [0, ramp)
  double duration = 240.0;    ///< total trace length, seconds
  double think_mean = 10.0;
  double think_cap_factor = 10.0;
  double response_time = 0.2;
  double rtt = 0.001;
  std::uint64_t seed = 42;
};

/// Generates the server-side trace: each user emits kOpen at its join
/// time, then transacts (closed loop) until the horizon.
[[nodiscard]] Trace generate_flash_crowd_trace(const FlashCrowdParams& params);

}  // namespace tcpdemux::sim

#endif  // TCPDEMUX_SIM_FLASH_CROWD_WORKLOAD_H_

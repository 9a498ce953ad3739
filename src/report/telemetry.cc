#include "report/telemetry.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <numeric>

namespace tcpdemux::report {

std::uint64_t Log2Histogram::count() const noexcept {
  return std::accumulate(buckets_.begin(), buckets_.end(), std::uint64_t{0});
}

double Log2Histogram::mean() const noexcept {
  const std::uint64_t n = count();
  return n == 0 ? 0.0
               : static_cast<double>(sum_) / static_cast<double>(n);
}

std::vector<std::uint64_t> Log2Histogram::nonzero_buckets() const {
  std::size_t width = kBuckets;
  while (width > 0 && buckets_[width - 1] == 0) --width;
  return {buckets_.begin(), buckets_.begin() + width};
}

std::uint64_t Log2Histogram::percentile_upper(double q) const noexcept {
  const std::uint64_t n = count();
  if (n == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  // Nearest-rank, exactly as sim::SampleStats::percentile: the ceil(q*n)-th
  // smallest sample, located by walking the cumulative bucket counts.
  std::uint64_t rank =
      static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(n)));
  if (rank == 0) rank = 1;
  if (rank > n) rank = n;
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    seen += buckets_[b];
    if (seen >= rank) return bucket_upper(b);
  }
  return max_;
}

Log2Histogram Log2Histogram::since(const Log2Histogram& earlier) const {
  Log2Histogram delta;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    delta.buckets_[b] = buckets_[b] - earlier.buckets_[b];
    if (delta.buckets_[b] != 0) delta.max_ = bucket_upper(b);
  }
  delta.sum_ = sum_ - earlier.sum_;
  return delta;
}

TelemetrySample interval_sample(std::uint64_t events, std::uint64_t lookups,
                                std::uint64_t cache_hits, const Telemetry& cur,
                                const Telemetry& prev,
                                std::span<const std::size_t> occupancy) {
  TelemetrySample s;
  s.events = events;
  s.lookups = lookups;
  if (lookups != 0) {
    s.hit_rate =
        static_cast<double>(cache_hits) / static_cast<double>(lookups);
  }
  const Log2Histogram delta = cur.examined().since(prev.examined());
  s.mean_examined = delta.mean();
  s.p50 = delta.percentile_upper(0.50);
  s.p90 = delta.percentile_upper(0.90);
  s.p99 = delta.percentile_upper(0.99);
  s.max_examined = delta.max();

  std::size_t total = 0;
  for (const std::size_t o : occupancy) {
    total += o;
    s.occ_max = std::max<std::uint64_t>(s.occ_max, o);
  }
  if (!occupancy.empty()) {
    s.occ_mean =
        static_cast<double>(total) / static_cast<double>(occupancy.size());
  }
  if (s.occ_mean > 0.0) {
    s.occ_skew = static_cast<double>(s.occ_max) / s.occ_mean;
  }
  return s;
}

LatencySampler::LatencySampler(std::uint32_t every_n)
    : every_(every_n == 0 ? 1 : every_n) {
  // Calibration, bench::time_loop style: the cost of one now()/now() pair
  // is what a sampled lookup pays on top of the lookup itself. Take the
  // median of a batch so a stray preemption cannot poison the correction.
  using clock = std::chrono::steady_clock;
  constexpr int kProbes = 65;
  std::array<std::uint64_t, kProbes> deltas{};
  for (int i = 0; i < kProbes; ++i) {
    const auto t0 = clock::now();
    const auto t1 = clock::now();
    deltas[static_cast<std::size_t>(i)] = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
            .count());
  }
  std::sort(deltas.begin(), deltas.end());
  overhead_ns_ = deltas[kProbes / 2];
}

}  // namespace tcpdemux::report

// Tests for the telemetry registry: histogram bucketing/percentiles,
// interval deltas, the counters path, latency sampling, and JSON export.
#include "report/telemetry.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "report/telemetry_json.h"

namespace tcpdemux::report {
namespace {

TEST(Log2Histogram, BucketsByBitWidth) {
  Log2Histogram h;
  h.add(0);
  h.add(1);
  h.add(2);
  h.add(3);
  h.add(4);
  h.add(7);
  h.add(8);
  EXPECT_EQ(h.bucket(0), 1U);  // {0}
  EXPECT_EQ(h.bucket(1), 1U);  // {1}
  EXPECT_EQ(h.bucket(2), 2U);  // {2,3}
  EXPECT_EQ(h.bucket(3), 2U);  // {4..7}
  EXPECT_EQ(h.bucket(4), 1U);  // {8..15}
  EXPECT_EQ(h.count(), 7U);
  EXPECT_EQ(h.sum(), 25U);
  EXPECT_EQ(h.max(), 8U);
  EXPECT_DOUBLE_EQ(h.mean(), 25.0 / 7.0);
}

TEST(Log2Histogram, BucketUpperBounds) {
  EXPECT_EQ(Log2Histogram::bucket_upper(0), 0U);
  EXPECT_EQ(Log2Histogram::bucket_upper(1), 1U);
  EXPECT_EQ(Log2Histogram::bucket_upper(2), 3U);
  EXPECT_EQ(Log2Histogram::bucket_upper(10), 1023U);
  EXPECT_EQ(Log2Histogram::bucket_upper(64), ~0ULL);
}

TEST(Log2Histogram, PercentileUpperWalksCumulativeCounts) {
  Log2Histogram h;
  for (int i = 0; i < 90; ++i) h.add(1);   // bucket 1, upper bound 1
  for (int i = 0; i < 9; ++i) h.add(3);    // bucket 2, upper bound 3
  h.add(100);                              // bucket 7, upper bound 127
  EXPECT_EQ(h.percentile_upper(0.50), 1U);
  EXPECT_EQ(h.percentile_upper(0.90), 1U);
  EXPECT_EQ(h.percentile_upper(0.95), 3U);
  EXPECT_EQ(h.percentile_upper(0.99), 3U);
  EXPECT_EQ(h.percentile_upper(1.0), 127U);
  EXPECT_EQ(Log2Histogram().percentile_upper(0.5), 0U);
}

TEST(Log2Histogram, SinceSubtractsPerBucket) {
  Log2Histogram early;
  early.add(1);
  early.add(4);
  Log2Histogram late = early;
  late.add(4);
  late.add(9);
  const Log2Histogram delta = late.since(early);
  EXPECT_EQ(delta.count(), 2U);
  EXPECT_EQ(delta.sum(), 13U);
  EXPECT_EQ(delta.bucket(3), 1U);
  EXPECT_EQ(delta.bucket(4), 1U);
  EXPECT_EQ(delta.max(), 15U);  // upper bound of highest occupied bucket
}

TEST(Telemetry, CountersAlwaysOnHistogramsOptIn) {
  Telemetry t;
  t.on_insert();
  t.on_resize_step(4, 0);
  t.on_lookup(3, /*cache_hit=*/false);
  EXPECT_EQ(t.counters().inserts, 1U);
  EXPECT_EQ(t.counters().resize_steps, 1U);
  EXPECT_EQ(t.examined().count(), 0U);  // histograms default off
  EXPECT_EQ(t.resize_work().count(), 0U);

  t.enable_histograms(true);
  t.on_lookup(5, /*cache_hit=*/false);
  t.on_lookup(1, /*cache_hit=*/true);
  EXPECT_EQ(t.examined().count(), 2U);
  EXPECT_EQ(t.examined().sum(), 6U);
  // Cache hits never enter the miss-path probe-length histogram.
  EXPECT_EQ(t.probe_length().count(), 1U);
  EXPECT_EQ(t.probe_length().sum(), 5U);
}

TEST(Telemetry, ResetKeepsEnableFlag) {
  Telemetry t;
  t.enable_histograms(true);
  t.on_lookup(2, false);
  t.on_insert();
  t.reset();
  EXPECT_EQ(t.counters().inserts, 0U);
  EXPECT_EQ(t.examined().count(), 0U);
  EXPECT_TRUE(t.histograms_enabled());
}

TEST(Telemetry, IntervalSampleDeltasAndOccupancy) {
  Telemetry t;
  t.enable_histograms(true);
  for (int i = 0; i < 10; ++i) t.on_lookup(1, true);
  const Telemetry prev = t;
  for (int i = 0; i < 10; ++i) t.on_lookup(3, false);

  const std::vector<std::size_t> occ = {4, 0, 8, 4};
  const TelemetrySample s = interval_sample(20, 10, 0, t, prev, occ);
  EXPECT_EQ(s.events, 20U);
  EXPECT_EQ(s.lookups, 10U);
  EXPECT_DOUBLE_EQ(s.mean_examined, 3.0);
  EXPECT_EQ(s.p50, 3U);
  EXPECT_EQ(s.p99, 3U);
  EXPECT_DOUBLE_EQ(s.hit_rate, 0.0);  // all interval lookups missed caches
  EXPECT_EQ(s.occ_max, 8U);
  EXPECT_DOUBLE_EQ(s.occ_mean, 4.0);
  EXPECT_DOUBLE_EQ(s.occ_skew, 2.0);
}

TEST(LatencySampler, SamplesOneInNAndSubtractsOverhead) {
  LatencySampler off;
  EXPECT_FALSE(off.enabled());
  EXPECT_FALSE(off.should_sample());

  LatencySampler s(4);
  EXPECT_TRUE(s.enabled());
  int sampled = 0;
  for (int i = 0; i < 12; ++i) {
    if (s.should_sample()) ++sampled;
  }
  EXPECT_EQ(sampled, 3);

  s.record_ns(s.overhead_ns() + 100);
  EXPECT_EQ(s.histogram().count(), 1U);
  EXPECT_EQ(s.histogram().sum(), 100U);
  s.record_ns(0);  // below the overhead floor clamps to 0, never wraps
  EXPECT_EQ(s.histogram().sum(), 100U);
}

TEST(TelemetryJson, ExportsSchemaFields) {
  TelemetryReport r;
  r.source = "test";
  r.algorithm = "bsd";
  r.telemetry.enable_histograms(true);
  r.ledger = {1, 1, 0};
  r.telemetry.on_lookup(2, false);
  r.telemetry.on_insert();
  r.occupancy = {1, 3};
  r.series.interval = 8;
  r.series.samples.push_back(
      interval_sample(8, 1, 0, r.telemetry, Telemetry{}, r.occupancy));

  const std::string json = telemetry_to_json(r);
  EXPECT_NE(json.find("\"schema\": \"tcpdemux.telemetry.v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"algorithm\": \"bsd\""), std::string::npos);
  // Lookup counts come from the ledger, table events from the registry.
  EXPECT_NE(json.find("\"counters\": {\"lookups\": 1, \"found\": 1, "
                      "\"cache_hits\": 0, \"inserts\": 1,"),
            std::string::npos);
  EXPECT_NE(json.find("\"examined\""), std::string::npos);
  EXPECT_NE(json.find("\"probe_length\""), std::string::npos);
  EXPECT_NE(json.find("\"occupancy\""), std::string::npos);
  EXPECT_NE(json.find("\"partitions\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"series\""), std::string::npos);
  EXPECT_NE(json.find("\"interval\": 8"), std::string::npos);

  const std::vector<TelemetryReport> reports(2, r);
  const std::string array = telemetry_to_json(reports);
  EXPECT_EQ(array.front(), '[');
}

TEST(TelemetryJson, SeriesCsvHasHeaderAndRows) {
  TelemetrySeries series;
  series.interval = 4;
  TelemetrySample s;
  s.events = 4;
  s.lookups = 4;
  s.mean_examined = 1.5;
  series.samples.push_back(s);

  std::ostringstream os;
  write_series_csv(os, "bsd", series);
  const std::string csv = os.str();
  EXPECT_NE(csv.find("algorithm,events,lookups,mean_examined"),
            std::string::npos);
  EXPECT_NE(csv.find("bsd,4,4,1.5"), std::string::npos);
}

TEST(Log2Histogram, MergeOfDisjointSplitsEqualsWhole) {
  // The property the sharded aggregation path rests on: recording a sample
  // stream split across N histograms and merging them back is bit-identical
  // to recording the whole stream into one histogram — count, sum, max,
  // every bucket, and therefore every nearest-rank percentile.
  constexpr std::size_t kShards = 4;
  Log2Histogram whole;
  Log2Histogram parts[kShards];
  std::uint64_t state = 0x243f6a8885a308d3ULL;  // deterministic xorshift
  for (int i = 0; i < 5000; ++i) {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    // Spread across 9 octaves so many buckets populate, including 0.
    const std::uint64_t value = state >> (55 - (i % 9));
    whole.add(value);
    parts[state % kShards].add(value);
  }
  Log2Histogram merged;
  for (const Log2Histogram& p : parts) merged.merge_from(p);
  EXPECT_EQ(merged.count(), whole.count());
  EXPECT_EQ(merged.sum(), whole.sum());
  EXPECT_EQ(merged.max(), whole.max());
  for (std::size_t b = 0; b < Log2Histogram::kBuckets; ++b) {
    EXPECT_EQ(merged.bucket(b), whole.bucket(b)) << "bucket " << b;
  }
  for (const double q : {0.0, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    EXPECT_EQ(merged.percentile_upper(q), whole.percentile_upper(q)) << q;
  }
}

TEST(Log2Histogram, MergeFromEmptyAndIntoEmpty) {
  Log2Histogram loaded;
  loaded.add(5);
  loaded.add(9);
  Log2Histogram empty;
  loaded.merge_from(empty);  // no-op
  EXPECT_EQ(loaded.count(), 2u);
  EXPECT_EQ(loaded.sum(), 14u);
  EXPECT_EQ(loaded.max(), 9u);
  Log2Histogram target;
  target.merge_from(loaded);  // copy-equivalent
  EXPECT_EQ(target.count(), 2u);
  EXPECT_EQ(target.sum(), 14u);
  EXPECT_EQ(target.max(), 9u);
  EXPECT_EQ(target.percentile_upper(1.0), loaded.percentile_upper(1.0));
}

TEST(Telemetry, MergeFromAccumulatesCountersAndResizeHistograms) {
  Telemetry a;
  a.enable_histograms(true);
  a.on_lookup(3, false);
  a.on_lookup(1, true);
  a.on_insert();
  a.on_erase();
  a.on_shed();
  a.on_rehash();
  a.on_resize_start();
  a.on_resize_step(8, 24);
  a.on_resize_complete();

  Telemetry b;
  b.enable_histograms(true);
  b.on_lookup(7, false);
  b.on_insert();
  b.on_insert();
  b.on_resize_defer();

  Telemetry merged;
  merged.enable_histograms(true);
  merged.merge_from(a);
  merged.merge_from(b);
  EXPECT_EQ(merged.counters().inserts, 3u);
  EXPECT_EQ(merged.counters().erases, 1u);
  EXPECT_EQ(merged.counters().inserts_shed, 1u);
  EXPECT_EQ(merged.counters().rehashes, 1u);
  EXPECT_EQ(merged.counters().resizes_started, 1u);
  EXPECT_EQ(merged.counters().resizes_completed, 1u);
  EXPECT_EQ(merged.counters().resizes_deferred, 1u);
  EXPECT_EQ(merged.counters().resize_steps, 1u);
  EXPECT_EQ(merged.resize_work().sum(), 8u);
  EXPECT_EQ(merged.migration_debt().sum(), 24u);
  // Lookup histograms stay with the demuxer that counted the lookups.
  EXPECT_EQ(merged.examined().count(), 0u);
  EXPECT_EQ(merged.probe_length().count(), 0u);
}

TEST(Telemetry, MergeIsIdempotentAcrossRepeatedReads) {
  // The shard-aggregation double-count regression. Reading a shard's
  // telemetry() is idempotent; the fleet view must merge those snapshots
  // into a FRESH target per read, because merging into persistent parent
  // state re-adds every counter on each read and drifts without bound.
  Telemetry shard[3];
  for (std::uint64_t s = 0; s < 3; ++s) {
    for (std::uint64_t i = 0; i < 100 * (s + 1); ++i) shard[s].on_insert();
    shard[s].on_rehash();
  }
  const auto read_fleet = [&shard] {
    Telemetry fleet;  // fresh target per read — the fix
    for (const Telemetry& s : shard) fleet.merge_from(s);
    return fleet;
  };
  const Telemetry first = read_fleet();
  const Telemetry second = read_fleet();
  EXPECT_EQ(first.counters().inserts, 600u);
  EXPECT_EQ(first.counters().rehashes, 3u);
  EXPECT_EQ(second.counters().inserts, first.counters().inserts);
  EXPECT_EQ(second.counters().rehashes, first.counters().rehashes);

  // The bug shape this pins down: a persistent accumulator doubles on the
  // second read. Kept as a demonstration that the assertion above is not
  // vacuous — this is exactly what merging into parent state produces.
  Telemetry sticky;
  for (const Telemetry& s : shard) sticky.merge_from(s);
  for (const Telemetry& s : shard) sticky.merge_from(s);
  EXPECT_EQ(sticky.counters().inserts, 1200u);  // double-counted
}

}  // namespace
}  // namespace tcpdemux::report

// Differential testing: every algorithm is a different *strategy* over the
// same abstract map, so identical operation sequences must produce
// identical membership results everywhere — only the examined counts may
// differ.
#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <vector>

#include "core/demux_registry.h"

namespace tcpdemux::core {
namespace {

net::FlowKey key(std::uint32_t i) {
  return net::FlowKey{net::Ipv4Addr(10, 0, 0, 1), 1521,
                      net::Ipv4Addr(10, 2, static_cast<std::uint8_t>(i >> 8),
                                    static_cast<std::uint8_t>(i & 0xff)),
                      static_cast<std::uint16_t>(10000 + (i % 50000))};
}

const char* kSpecs[] = {"bsd",           "mtf",
                        "srcache",       "sequent:19:crc32",
                        "sequent:1",     "sequent:101:toeplitz",
                        "hashed_mtf",    "dynamic",
                        "connection_id", "rcu:19:crc32",
                        "sharded:4:dynamic",
                        "sharded:3:sequent:19:crc32"};

TEST(Differential, AllAlgorithmsAgreeOnMembership) {
  std::vector<std::unique_ptr<Demuxer>> demuxers;
  for (const char* spec : kSpecs) {
    demuxers.push_back(make_demuxer(*parse_demux_spec(spec)));
  }

  std::mt19937_64 rng(77);
  for (int step = 0; step < 6000; ++step) {
    const std::uint32_t i = static_cast<std::uint32_t>(rng() % 400);
    const net::FlowKey k = key(i);
    switch (rng() % 4) {
      case 0: {
        const bool first_inserted = demuxers[0]->insert(k) != nullptr;
        for (std::size_t d = 1; d < demuxers.size(); ++d) {
          EXPECT_EQ(demuxers[d]->insert(k) != nullptr, first_inserted)
              << kSpecs[d] << " diverged on insert at step " << step;
        }
        break;
      }
      case 1: {
        const bool first_erased = demuxers[0]->erase(k);
        for (std::size_t d = 1; d < demuxers.size(); ++d) {
          EXPECT_EQ(demuxers[d]->erase(k), first_erased)
              << kSpecs[d] << " diverged on erase at step " << step;
        }
        break;
      }
      default: {
        const auto kind =
            (rng() % 2 == 0) ? SegmentKind::kData : SegmentKind::kAck;
        const bool first_found = demuxers[0]->lookup(k, kind).pcb != nullptr;
        for (std::size_t d = 1; d < demuxers.size(); ++d) {
          const auto r = demuxers[d]->lookup(k, kind);
          EXPECT_EQ(r.pcb != nullptr, first_found)
              << kSpecs[d] << " diverged on lookup at step " << step;
          if (r.pcb != nullptr) {
            EXPECT_EQ(r.pcb->key, k);
          }
        }
        break;
      }
    }
    for (std::size_t d = 1; d < demuxers.size(); ++d) {
      ASSERT_EQ(demuxers[d]->size(), demuxers[0]->size())
          << kSpecs[d] << " size diverged at step " << step;
    }
  }
}

TEST(Differential, TotalFoundCountsIdenticalOverWorkload) {
  // Aggregate invariant over a fixed pseudo-workload: every algorithm
  // answers the same number of lookups positively.
  std::vector<std::uint64_t> found(std::size(kSpecs), 0);
  for (std::size_t d = 0; d < std::size(kSpecs); ++d) {
    const auto demuxer = make_demuxer(*parse_demux_spec(kSpecs[d]));
    std::mt19937_64 rng(123);
    for (int step = 0; step < 5000; ++step) {
      const net::FlowKey k = key(static_cast<std::uint32_t>(rng() % 300));
      switch (rng() % 5) {
        case 0: demuxer->insert(k); break;
        case 1: demuxer->erase(k); break;
        default:
          if (demuxer->lookup(k, SegmentKind::kData).pcb != nullptr) {
            ++found[d];
          }
      }
    }
  }
  for (std::size_t d = 1; d < std::size(kSpecs); ++d) {
    EXPECT_EQ(found[d], found[0]) << kSpecs[d];
  }
}

}  // namespace
}  // namespace tcpdemux::core

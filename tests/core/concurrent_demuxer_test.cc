#include "core/concurrent_demuxer.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <unordered_set>
#include <vector>

#include "core/bsd_list.h"

namespace tcpdemux::core {
namespace {

net::FlowKey key(std::uint32_t i) {
  return net::FlowKey{net::Ipv4Addr(10, 0, 0, 1), 1521,
                      net::Ipv4Addr(10, 1, static_cast<std::uint8_t>(i >> 8),
                                    static_cast<std::uint8_t>(i & 0xff)),
                      static_cast<std::uint16_t>(20000 + (i % 20000))};
}

TEST(ConcurrentSequent, SingleThreadedSemanticsMatchSequent) {
  ConcurrentSequentDemuxer d(ConcurrentSequentDemuxer::Options{
      19, net::HasherKind::kCrc32, true});
  for (std::uint32_t i = 0; i < 100; ++i) {
    ASSERT_NE(d.insert(key(i)), nullptr);
  }
  EXPECT_EQ(d.insert(key(0)), nullptr);  // duplicate
  EXPECT_EQ(d.size(), 100u);
  for (std::uint32_t i = 0; i < 100; ++i) {
    const auto r = d.lookup(key(i));
    ASSERT_NE(r.pcb, nullptr);
    EXPECT_EQ(r.pcb->key, key(i));
  }
  (void)d.lookup(key(42));  // prime key 42's chain cache
  const auto warm = d.lookup(key(42));
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_EQ(warm.examined, 1u);
  EXPECT_TRUE(d.erase(key(42)));
  EXPECT_FALSE(d.erase(key(42)));
  EXPECT_EQ(d.lookup(key(42)).pcb, nullptr);
}

TEST(ConcurrentSequent, ZeroChainsThrows) {
  EXPECT_THROW(ConcurrentSequentDemuxer(ConcurrentSequentDemuxer::Options{
                   0, net::HasherKind::kCrc32, true}),
               std::invalid_argument);
}

TEST(ConcurrentSequent, ParallelLookupsAllSucceed) {
  ConcurrentSequentDemuxer d(ConcurrentSequentDemuxer::Options{
      101, net::HasherKind::kCrc32, true});
  constexpr std::uint32_t kKeys = 2000;
  for (std::uint32_t i = 0; i < kKeys; ++i) {
    ASSERT_NE(d.insert(key(i)), nullptr);
  }
  constexpr int kThreads = 8;
  constexpr int kIterations = 20000;
  std::atomic<std::uint64_t> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::uint32_t state = static_cast<std::uint32_t>(t) * 2654435761u + 1u;
      for (int i = 0; i < kIterations; ++i) {
        state = state * 1664525u + 1013904223u;
        const auto r = d.lookup(key(state % kKeys));
        if (r.pcb == nullptr) failures.fetch_add(1);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(d.lookups(), static_cast<std::uint64_t>(kThreads) * kIterations);
  EXPECT_GT(d.pcbs_examined(), d.lookups());
}

TEST(ConcurrentSequent, ParallelChurnKeepsInvariants) {
  // Threads own disjoint key ranges and concurrently insert, look up, and
  // erase; the structure must end exactly empty with every operation
  // having succeeded.
  ConcurrentSequentDemuxer d(ConcurrentSequentDemuxer::Options{
      19, net::HasherKind::kCrc32, true});
  constexpr int kThreads = 8;
  constexpr std::uint32_t kPerThread = 500;
  std::atomic<std::uint64_t> errors{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const std::uint32_t base = static_cast<std::uint32_t>(t) * kPerThread;
      for (std::uint32_t round = 0; round < 20; ++round) {
        for (std::uint32_t i = 0; i < kPerThread; ++i) {
          if (d.insert(key(base + i)) == nullptr) errors.fetch_add(1);
        }
        for (std::uint32_t i = 0; i < kPerThread; ++i) {
          if (d.lookup(key(base + i)).pcb == nullptr) errors.fetch_add(1);
        }
        for (std::uint32_t i = 0; i < kPerThread; ++i) {
          if (!d.erase(key(base + i))) errors.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(errors.load(), 0u);
  EXPECT_EQ(d.size(), 0u);
}

TEST(ConcurrentSequent, ConnIdsUniqueUnderContention) {
  ConcurrentSequentDemuxer d(ConcurrentSequentDemuxer::Options{
      101, net::HasherKind::kCrc32, true});
  constexpr int kThreads = 8;
  constexpr std::uint32_t kPerThread = 250;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const std::uint32_t base = static_cast<std::uint32_t>(t) * kPerThread;
      for (std::uint32_t i = 0; i < kPerThread; ++i) {
        d.insert(key(base + i));
      }
    });
  }
  for (auto& thread : threads) thread.join();
  // A connection's identity is its PCB: no two inserts may share one.
  std::unordered_set<const Pcb*> seen;
  for (std::uint32_t i = 0; i < kThreads * kPerThread; ++i) {
    const auto r = d.lookup(key(i));
    ASSERT_NE(r.pcb, nullptr);
    EXPECT_TRUE(seen.insert(r.pcb).second) << i;
  }
}

TEST(GloballyLocked, WrapsAnyDemuxerCorrectly) {
  GloballyLockedDemuxer d(std::make_unique<BsdListDemuxer>());
  EXPECT_NE(d.insert(key(1)), nullptr);
  EXPECT_EQ(d.insert(key(1)), nullptr);
  EXPECT_EQ(d.lookup(key(1)).pcb->key, key(1));
  EXPECT_EQ(d.size(), 1u);
  EXPECT_EQ(d.name(), "locked(bsd)");
  EXPECT_TRUE(d.erase(key(1)));
}

TEST(GloballyLocked, ParallelAccessSafe) {
  GloballyLockedDemuxer d(std::make_unique<BsdListDemuxer>());
  for (std::uint32_t i = 0; i < 200; ++i) d.insert(key(i));
  std::atomic<std::uint64_t> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 5000; ++i) {
        const auto r = d.lookup(key(static_cast<std::uint32_t>(
            (t * 5000 + i) % 200)));
        if (r.pcb == nullptr) failures.fetch_add(1);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0u);
}

}  // namespace
}  // namespace tcpdemux::core

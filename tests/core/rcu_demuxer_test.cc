// RcuSequentDemuxer: single-threaded semantics (must match SequentDemuxer
// exactly), batch lookups, epoch-based reclamation, and read-mostly
// concurrent behavior.
#include "core/rcu_demuxer.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <unordered_set>
#include <vector>

#include "core/sequent_hash.h"

namespace tcpdemux::core {
namespace {

net::FlowKey key(std::uint32_t i) {
  return net::FlowKey{net::Ipv4Addr(10, 0, 0, 1), 1521,
                      net::Ipv4Addr(10, 1, static_cast<std::uint8_t>(i >> 8),
                                    static_cast<std::uint8_t>(i & 0xff)),
                      static_cast<std::uint16_t>(20000 + (i % 20000))};
}

RcuSequentDemuxer::Options opts(std::uint32_t chains, bool cache = true) {
  return RcuSequentDemuxer::Options{chains, net::HasherKind::kCrc32, cache};
}

TEST(RcuDemuxer, ZeroChainsThrows) {
  EXPECT_THROW(RcuSequentDemuxer(opts(0)), std::invalid_argument);
}

TEST(RcuDemuxer, SingleThreadedSemantics) {
  RcuSequentDemuxer d(opts(19));
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

TEST(RcuDemuxer, ExaminedCountsMatchSequentExactly) {
  // The RCU demuxer is the Sequent algorithm with a different memory
  // discipline; single-threaded, every lookup must cost the same.
  RcuSequentDemuxer rcu(opts(19));
  SequentDemuxer seq(
      SequentDemuxer::Options{19, net::HasherKind::kCrc32, true});
  for (std::uint32_t i = 0; i < 200; ++i) {
    ASSERT_NE(rcu.insert(key(i)), nullptr);
    ASSERT_NE(seq.insert(key(i)), nullptr);
  }
  std::uint32_t state = 12345;
  for (int op = 0; op < 2000; ++op) {
    state = state * 1664525u + 1013904223u;
    const net::FlowKey k = key(state % 250);  // ~20% misses
    const auto a = rcu.lookup(k);
    const auto b = seq.lookup(k);
    EXPECT_EQ(a.pcb == nullptr, b.pcb == nullptr);
    if (a.pcb != nullptr) {
      EXPECT_EQ(a.pcb->key, b.pcb->key);
    }
    EXPECT_EQ(a.examined, b.examined) << "op " << op;
    EXPECT_EQ(a.cache_hit, b.cache_hit) << "op " << op;
  }
}

TEST(RcuDemuxer, NoCacheOptionDisablesCacheProbe) {
  RcuSequentDemuxer d(opts(19, /*cache=*/false));
  ASSERT_NE(d.insert(key(7)), nullptr);
  (void)d.lookup(key(7));
  const auto again = d.lookup(key(7));
  EXPECT_FALSE(again.cache_hit);
  EXPECT_EQ(d.name(), "rcu(h=19,crc32,nocache)");
}

TEST(RcuDemuxer, BatchLookupMatchesScalarLookup) {
  RcuSequentDemuxer batch_d(opts(19));
  RcuSequentDemuxer scalar_d(opts(19));
  constexpr std::uint32_t kKeys = 300;
  for (std::uint32_t i = 0; i < kKeys; ++i) {
    ASSERT_NE(batch_d.insert(key(i)), nullptr);
    ASSERT_NE(scalar_d.insert(key(i)), nullptr);
  }
  std::vector<net::FlowKey> burst;
  std::uint32_t state = 99;
  for (int i = 0; i < 257; ++i) {  // deliberately not a multiple of the chunk
    state = state * 1664525u + 1013904223u;
    burst.push_back(key(state % (kKeys + 50)));  // some misses
  }
  std::vector<LookupResult> results(burst.size());
  batch_d.lookup_batch(burst, results);
  std::uint64_t batch_examined = 0;
  for (std::size_t i = 0; i < burst.size(); ++i) {
    const auto scalar = scalar_d.lookup(burst[i]);
    EXPECT_EQ(results[i].pcb == nullptr, scalar.pcb == nullptr) << i;
    if (results[i].pcb != nullptr) {
      EXPECT_EQ(results[i].pcb->key, burst[i]);
    }
    EXPECT_EQ(results[i].examined, scalar.examined) << i;
    EXPECT_EQ(results[i].cache_hit, scalar.cache_hit) << i;
    batch_examined += results[i].examined;
  }
  EXPECT_EQ(batch_d.lookups(), burst.size());
  EXPECT_EQ(batch_d.pcbs_examined(), batch_examined);
}

TEST(RcuDemuxer, EmptyBatchIsANoOp) {
  RcuSequentDemuxer d(opts(19));
  d.lookup_batch({}, {});
  EXPECT_EQ(d.lookups(), 0u);
}

TEST(RcuDemuxer, EraseRetiresAndEpochAdvancesReclaim) {
  RcuSequentDemuxer d(opts(19));
  for (std::uint32_t i = 0; i < 64; ++i) ASSERT_NE(d.insert(key(i)), nullptr);
  for (std::uint32_t i = 0; i < 64; ++i) EXPECT_TRUE(d.erase(key(i)));
  EXPECT_EQ(d.size(), 0u);
  auto& em = d.epoch_manager();
  EXPECT_EQ(em.retired_count(), 64u);
  em.drain();  // no readers are active, so everything must free
  EXPECT_EQ(em.freed_count(), 64u);
  EXPECT_EQ(em.pending_count(), 0u);
}

TEST(RcuDemuxer, ReclamationIsDeferredWhileAReaderIsPinned) {
  RcuSequentDemuxer d(opts(19));
  ASSERT_NE(d.insert(key(1)), nullptr);
  auto& em = d.epoch_manager();
  {
    const EpochManager::Guard guard(em);
    EXPECT_TRUE(d.erase(key(1)));
    // Two try_advance calls can retire at most two epochs; the pinned
    // guard blocks the second, so the node must still be in limbo.
    em.try_advance();
    em.try_advance();
    EXPECT_EQ(em.freed_count(), 0u);
    EXPECT_EQ(em.pending_count(), 1u);
  }
  em.drain();
  EXPECT_EQ(em.freed_count(), 1u);
}

TEST(RcuDemuxer, ForEachSeesExactlyStoredKeys) {
  RcuSequentDemuxer d(opts(19));
  for (std::uint32_t i = 0; i < 50; ++i) d.insert(key(i));
  std::size_t visited = 0;
  d.for_each_pcb([&](const Pcb& p) {
    ++visited;
    EXPECT_EQ(p.key.local_port, 1521);
  });
  EXPECT_EQ(visited, 50u);
}

TEST(RcuDemuxer, ParallelLookupsAllSucceed) {
  RcuSequentDemuxer d(opts(101));
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
}

TEST(RcuDemuxer, ParallelBatchLookupsAllSucceed) {
  RcuSequentDemuxer d(opts(101));
  constexpr std::uint32_t kKeys = 1000;
  for (std::uint32_t i = 0; i < kKeys; ++i) {
    ASSERT_NE(d.insert(key(i)), nullptr);
  }
  constexpr int kThreads = 4;
  constexpr int kBursts = 500;
  constexpr std::size_t kBurst = 32;
  std::atomic<std::uint64_t> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::uint32_t state = static_cast<std::uint32_t>(t + 1) * 2654435761u;
      std::vector<net::FlowKey> burst(kBurst);
      std::vector<LookupResult> results(kBurst);
      for (int b = 0; b < kBursts; ++b) {
        for (auto& k : burst) {
          state = state * 1664525u + 1013904223u;
          k = key(state % kKeys);
        }
        d.lookup_batch(burst, results);
        for (std::size_t i = 0; i < kBurst; ++i) {
          if (results[i].pcb == nullptr ||
              !(results[i].pcb->key == burst[i])) {
            failures.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0u);
}

TEST(RcuDemuxer, ReadersSurviveConcurrentEraseOfTheirKeys) {
  // Readers hammer a key range a writer is concurrently erasing; every
  // returned PCB must match the requested key (a use-after-free or a
  // torn unlink would surface here, and under TSan/ASan as a report).
  RcuSequentDemuxer d(opts(19));
  constexpr std::uint32_t kKeys = 400;
  for (std::uint32_t i = 0; i < kKeys; ++i) {
    ASSERT_NE(d.insert(key(i)), nullptr);
  }
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> mismatches{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      std::uint32_t state = static_cast<std::uint32_t>(t + 1) * 40503u;
      while (!stop.load(std::memory_order_relaxed)) {
        state = state * 1664525u + 1013904223u;
        const net::FlowKey k = key(state % kKeys);
        // Dereferencing the returned Pcb* requires a guard entered
        // before the lookup (the header's lifetime contract); scoped per
        // iteration so reclamation can progress between probes.
        EpochManager::Guard g(d.epoch_manager());
        const auto r = d.lookup(k);
        if (r.pcb != nullptr && !(r.pcb->key == k)) mismatches.fetch_add(1);
      }
    });
  }
  for (std::uint32_t round = 0; round < 30; ++round) {
    for (std::uint32_t i = 0; i < kKeys; ++i) EXPECT_TRUE(d.erase(key(i)));
    EXPECT_EQ(d.size(), 0u);
    for (std::uint32_t i = 0; i < kKeys; ++i) {
      ASSERT_NE(d.insert(key(i)), nullptr);
    }
  }
  stop.store(true);
  for (auto& r : readers) r.join();
  EXPECT_EQ(mismatches.load(), 0u);
  d.epoch_manager().drain();
  EXPECT_EQ(d.epoch_manager().pending_count(), 0u);
  EXPECT_EQ(d.epoch_manager().retired_count(), 30u * kKeys);
}

TEST(RcuDemuxer, ConnIdsUniqueUnderContention) {
  RcuSequentDemuxer d(opts(101));
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

TEST(EpochManagerTest, GuardNestingPinsOnce) {
  EpochManager em;
  {
    const EpochManager::Guard outer(em);
    {
      const EpochManager::Guard inner(em);  // free: same slot, nested
      EXPECT_EQ(em.registered_threads(), 1u);
    }
    // Still pinned by the outer guard: retired nodes must not free.
    int* x = new int(7);
    em.retire(x, [](void* p) { delete static_cast<int*>(p); });
    em.try_advance();
    em.try_advance();
    EXPECT_EQ(em.freed_count(), 0u);
  }
  em.drain();
  EXPECT_EQ(em.freed_count(), 1u);
}

TEST(EpochManagerTest, ManyThreadsRegisterIndependentSlots) {
  EpochManager em;
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 100; ++i) {
        const EpochManager::Guard guard(em);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(em.registered_threads(), 8u);
  EXPECT_TRUE(em.try_advance());  // all slots inactive, nothing blocks
}

}  // namespace
}  // namespace tcpdemux::core

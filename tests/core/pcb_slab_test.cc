// PcbSlab: the one PCB allocator. Unit tests of the slab itself, a
// registry-wide check that every slab-backed demuxer hands out aligned,
// address-stable PCBs through growth, its drain and seed rotation,
// and (under ASan only) a death test proving a stale Pcb* is still caught.
#include "core/pcb_slab.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/demux_registry.h"
#include "core/validate.h"
#include "sim/collision_flood.h"

namespace tcpdemux::core {
namespace {

net::FlowKey key(std::uint32_t i) {
  return net::FlowKey{net::Ipv4Addr(10, 0, 0, 1), 1521,
                      net::Ipv4Addr(0x0a010000 + (i >> 12)),
                      static_cast<std::uint16_t>(1024 + (i & 0xfff))};
}

bool line_aligned(const Pcb* pcb) {
  return std::bit_cast<std::uintptr_t>(pcb) % PcbSlab::kSlotAlign == 0;
}

TEST(PcbSlab, SlotsAreCacheLineAligned) {
  PcbSlab slab;
  std::unordered_set<const Pcb*> seen;
  for (std::uint32_t i = 0; i < 1000; ++i) {
    const Pcb* pcb = slab.make(key(i));
    EXPECT_TRUE(line_aligned(pcb)) << i;
    EXPECT_TRUE(seen.insert(pcb).second) << i;
  }
}

TEST(PcbSlab, FreedSlotsAreReusedLastInFirstOut) {
  PcbSlab slab;
  Pcb* a = slab.make(key(1));
  Pcb* b = slab.make(key(2));
  Pcb* c = slab.make(key(3));
  slab.destroy(a);
  slab.destroy(c);
  EXPECT_EQ(slab.make(key(4)), c);
  EXPECT_EQ(slab.make(key(5)), a);
  Pcb* fresh = slab.make(key(6));
  EXPECT_NE(fresh, a);
  EXPECT_NE(fresh, b);
  EXPECT_NE(fresh, c);
  // A reused slot is a freshly constructed PCB.
  EXPECT_EQ(a->key, key(5));
  EXPECT_EQ(a->bytes_in, 0u);
  EXPECT_EQ(a->next, nullptr);
  EXPECT_EQ(a->state, TcpState::kClosed);
}

TEST(PcbSlab, PointersStayPutAcrossChunks) {
  PcbSlab slab;
  constexpr std::uint32_t kCount = 3 * PcbSlab::kSlotsPerChunk + 10;
  std::vector<Pcb*> pcbs;
  for (std::uint32_t i = 0; i < kCount; ++i) {
    pcbs.push_back(slab.make(key(i)));
    pcbs.back()->bytes_in = i;  // the last word of the slot
  }
  EXPECT_EQ(slab.bytes(), 3 * PcbSlab::kChunkBytes + page_bytes());
  for (std::uint32_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(pcbs[i]->key, key(i)) << i;
    ASSERT_EQ(pcbs[i]->bytes_in, i) << i;
    ASSERT_TRUE(slab.handed_out(pcbs[i])) << i;
  }
}

TEST(PcbSlab, NoChunkBeforeTheFirstInsert) {
  PcbSlab slab;
  EXPECT_EQ(slab.bytes(), 0u);
  EXPECT_EQ(slab.live(), 0u);
  // The same holds for a demuxer: an empty one holds no chunk, and its
  // first insert costs exactly the one page it touches (a fixed-H table
  // grows nothing else).
  const auto d = make_demuxer(*parse_demux_spec("sequent"));
  const std::size_t empty = d->memory_bytes();
  ASSERT_NE(d->insert(key(0)), nullptr);
  EXPECT_EQ(d->memory_bytes() - empty, page_bytes());
}

TEST(PcbSlab, BytesCountFullChunksAndTheUsedPages) {
  // A chunk is a 2 MiB reservation, but only the pages its slots have
  // reached are resident: bytes() counts every full chunk and the newest
  // one up to its fresh-slot frontier, in whole pages.
  const std::size_t page = page_bytes();
  const std::size_t per_page = page / sizeof(Pcb);
  PcbSlab slab;
  std::vector<Pcb*> pcbs;
  pcbs.push_back(slab.make(key(0)));
  EXPECT_EQ(slab.bytes(), page);
  while (pcbs.size() < per_page) {
    pcbs.push_back(slab.make(key(pcbs.size())));
  }
  EXPECT_EQ(slab.bytes(), page);
  pcbs.push_back(slab.make(key(pcbs.size())));
  EXPECT_EQ(slab.bytes(), 2 * page);
  while (pcbs.size() < PcbSlab::kSlotsPerChunk) {
    pcbs.push_back(slab.make(key(pcbs.size())));
  }
  EXPECT_EQ(slab.bytes(), PcbSlab::kChunkBytes);
  pcbs.push_back(slab.make(key(pcbs.size())));
  EXPECT_EQ(slab.bytes(), PcbSlab::kChunkBytes + page);
  EXPECT_EQ(slab.live(), PcbSlab::kSlotsPerChunk + 1);
  // Freed slots stay in their chunk for reuse: bytes do not shrink, and
  // refilling them touches no new page.
  for (Pcb* pcb : pcbs) slab.destroy(pcb);
  EXPECT_EQ(slab.live(), 0u);
  EXPECT_EQ(slab.bytes(), PcbSlab::kChunkBytes + page);
  for (std::uint32_t i = 0; i < pcbs.size(); ++i) (void)slab.make(key(i));
  EXPECT_EQ(slab.bytes(), PcbSlab::kChunkBytes + page);
}

TEST(PcbSlab, ChunksAreHugePageAligned) {
  PcbSlab slab;
  const Pcb* first = slab.make(key(0));
  EXPECT_EQ(std::bit_cast<std::uintptr_t>(first) % kHugePageBytes, 0u);
  for (std::uint32_t i = 1; i < PcbSlab::kSlotsPerChunk; ++i) {
    (void)slab.make(key(i));
  }
  const Pcb* next = slab.make(key(0));
  EXPECT_EQ(std::bit_cast<std::uintptr_t>(next) % kHugePageBytes, 0u);
}

TEST(PcbSlab, HandedOutRecognizesOnlyItsOwnSlots) {
  PcbSlab slab;
  PcbSlab other;
  Pcb* mine = slab.make(key(1));
  Pcb* theirs = other.make(key(2));
  const Pcb stack(key(3));
  EXPECT_TRUE(slab.handed_out(mine));
  EXPECT_FALSE(slab.handed_out(theirs));
  EXPECT_FALSE(slab.handed_out(&stack));
  // Past the fresh-slot frontier: inside the chunk, never handed out.
  EXPECT_FALSE(slab.handed_out(mine + 1));
  // Inside a slot but off its boundary.
  EXPECT_FALSE(slab.handed_out(reinterpret_cast<const Pcb*>(
      reinterpret_cast<const char*>(mine) + sizeof(net::FlowKey))));
}

TEST(PcbSlab, ForEachFreeVisitsExactlyTheFreedSlots) {
  PcbSlab slab;
  std::vector<Pcb*> pcbs;
  for (std::uint32_t i = 0; i < 8; ++i) pcbs.push_back(slab.make(key(i)));
  slab.destroy(pcbs[1]);
  slab.destroy(pcbs[6]);
  std::vector<const Pcb*> freed;
  slab.for_each_free([&](const Pcb* p) { freed.push_back(p); });
  EXPECT_EQ(freed, (std::vector<const Pcb*>{pcbs[6], pcbs[1]}));
}

// --- every slab-backed registry spec ---------------------------------------

// Keys that trip the spec's seed-rotation policy: identical full xor_fold
// hashes, so they share one chain.
std::vector<net::FlowKey> rotation_flood() {
  sim::CollisionFloodParams params;
  params.count = 120;
  return sim::craft_xorfold_collisions(params, 0x5eed);
}

class PcbSlabRegistry : public ::testing::TestWithParam<const char*> {};

TEST_P(PcbSlabRegistry, PcbsAreAlignedAndKeepTheirAddress) {
  const std::string spec = GetParam();
  const auto d = make_demuxer(*parse_demux_spec(spec));
  std::unordered_map<net::FlowKey, const Pcb*> addr;
  const auto insert = [&](const net::FlowKey& k) {
    const Pcb* pcb = d->insert(k);
    ASSERT_NE(pcb, nullptr) << k.to_string();
    EXPECT_TRUE(line_aligned(pcb)) << k.to_string();
    addr[k] = pcb;
  };
  // The flood lands on the initial (small) table, whose geometry it was
  // crafted for; the benign keys after it force several doublings.
  if (spec.find("rehash") != std::string::npos) {
    for (const net::FlowKey& k : rotation_flood()) insert(k);
    EXPECT_GE(d->telemetry().counters().rehashes, 1u);
  }
  for (std::uint32_t i = 0; i < 700; ++i) insert(key(i));
  // Churn: erased slots are reused, and no survivor moves.
  for (std::uint32_t i = 0; i < 700; i += 3) {
    ASSERT_TRUE(d->erase(key(i)));
    addr.erase(key(i));
  }
  for (std::uint32_t i = 700; i < 900; ++i) insert(key(i));
  while (d->migration_step()) {
  }
  for (const auto& [k, pcb] : addr) {
    const LookupResult r = d->lookup(k);
    ASSERT_EQ(r.pcb, pcb) << k.to_string();
    EXPECT_EQ(r.pcb->key, k);
  }
  EXPECT_EQ(d->size(), addr.size());
  EXPECT_EQ(validate_demuxer(*d).to_string(), "");
}

INSTANTIATE_TEST_SUITE_P(
    EverySlabBackedSpec, PcbSlabRegistry,
    ::testing::Values("bsd", "mtf", "srcache", "sequent",
                      "sequent:19:xor_fold:rehash", "hashed_mtf",
                      "connection_id", "dynamic", "dynamic:5",
                      "sharded:4:dynamic", "sharded:2:dynamic:5"),
    [](const ::testing::TestParamInfo<const char*>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == ':') c = '_';
      }
      return name;
    });

#ifdef TCPDEMUX_ASAN_POISONS
// Per-PCB delete let ASan report a stale Pcb*; the slab must not hide it.
// A freed slot is poisoned, so the read is a use-after-poison.
TEST(PcbSlabDeathTest, ReadAfterEraseIsReportedUnderAsan) {
  const auto d = make_demuxer(*parse_demux_spec("dynamic"));
  const Pcb* pcb = d->insert(key(1));
  ASSERT_NE(pcb, nullptr);
  ASSERT_TRUE(d->erase(key(1)));
  EXPECT_DEATH(
      {
        const volatile TcpState state = pcb->state;
        (void)state;
      },
      "use-after-poison");
}
#endif

}  // namespace
}  // namespace tcpdemux::core

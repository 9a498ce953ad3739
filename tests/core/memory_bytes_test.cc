// memory_bytes(): the §3.4 cost side of the trade — "the memory required
// for the hash-chain headers".
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <unordered_set>

#include "core/demux_registry.h"
#include "core/pcb_slab.h"
#include "core/sequent_hash.h"
#include "core/validate.h"

namespace tcpdemux::core {
namespace {

net::FlowKey key(std::uint32_t i) {
  return net::FlowKey{net::Ipv4Addr(10, 0, 0, 1), 1521,
                      net::Ipv4Addr(10, 1, 0, 2),
                      static_cast<std::uint16_t>(1024 + i)};
}

TEST(MemoryBytes, GrowsWithPcbCount) {
  for (const char* spec : {"bsd", "mtf", "srcache", "sequent", "hashed_mtf",
                           "dynamic", "connection_id", "rcu",
                           "sharded:4:dynamic"}) {
    const auto d = make_demuxer(*parse_demux_spec(spec));
    const std::size_t empty = d->memory_bytes();
    for (std::uint32_t i = 0; i < 100; ++i) d->insert(key(i));
    const std::size_t loaded = d->memory_bytes();
    EXPECT_GE(loaded, empty + 100 * sizeof(Pcb)) << spec;
  }
}

TEST(MemoryBytes, MoreChainsCostMoreHeaders) {
  const auto small = make_demuxer(*parse_demux_spec("sequent:19"));
  const auto large = make_demuxer(*parse_demux_spec("sequent:1021"));
  EXPECT_GT(large->memory_bytes(), small->memory_bytes());
  // ...but the increment is header-sized, not PCB-sized: going from 19 to
  // 1021 chains costs far less than 1002 PCBs would.
  EXPECT_LT(large->memory_bytes() - small->memory_bytes(),
            1002 * sizeof(Pcb));
}

TEST(MemoryBytes, DynamicPaysSixteenBytesPerChain) {
  // The host default's whole cost: its PCB slab, one 16-byte bucket (list
  // head + last-found cache) per chain, and the demuxer itself.
  const auto d = make_demuxer(*parse_demux_spec("dynamic"));
  auto& dynamic = dynamic_cast<SequentDemuxer&>(*d);
  for (std::uint32_t i = 0; i < 1000; ++i) {
    ASSERT_NE(dynamic.insert(key(i)), nullptr);
  }
  while (dynamic.migration_step()) {
  }
  ASSERT_GE(dynamic.doublings(), 1u);
  EXPECT_EQ(dynamic.memory_bytes(),
            ValidatorTestAccess::slab(dynamic).bytes() +
                16 * std::size_t{dynamic.chains()} + sizeof(SequentDemuxer));
}

TEST(MemoryBytes, ConnectionIdPaysForItsSlotArray) {
  DemuxConfig config;
  config.algorithm = Algorithm::kConnectionId;
  config.id_capacity = 65536;
  const auto d = make_demuxer(config);
  // 64 Ki pointer slots + 64 Ki free ids: the ID space is pre-paid.
  EXPECT_GT(d->memory_bytes(), 65536u * sizeof(void*));
}

TEST(MemoryBytes, PcbIsOneCacheLine) {
  // The paper's surrogate: examining a PCB is one memory reference. That
  // holds when a PCB is exactly one 64-byte line, every slot starts a
  // line, and no two PCBs share one — across a chunk boundary too.
  static_assert(sizeof(Pcb) == PcbSlab::kSlotAlign);
  const auto d = make_demuxer(*parse_demux_spec("sequent"));
  const std::uint32_t n = PcbSlab::kSlotsPerChunk + 100;
  for (std::uint32_t i = 0; i < n; ++i) {
    const net::FlowKey k{net::Ipv4Addr(10, 0, 0, 1), 1521,
                         net::Ipv4Addr(0x0a010000 + (i >> 12)),
                         static_cast<std::uint16_t>(1024 + (i & 0xfff))};
    ASSERT_NE(d->insert(k), nullptr) << i;
  }
  std::unordered_set<std::uintptr_t> lines;
  d->for_each_pcb([&](const Pcb& pcb) {
    const auto addr = std::bit_cast<std::uintptr_t>(&pcb);
    EXPECT_EQ(addr % PcbSlab::kSlotAlign, 0u);
    EXPECT_TRUE(lines.insert(addr / PcbSlab::kSlotAlign).second);
  });
  EXPECT_EQ(lines.size(), n);
}

}  // namespace
}  // namespace tcpdemux::core

// page_memory.h: page mappings for PCB chunks and bucket tables. Alignment,
// allocate/free round-trips below and above a huge page, zero-default
// element types built without a constructor loop, proof that a
// grown-then-destroyed demuxer hands every page back to the kernel, and
// (under ASan only) death tests proving a read past a table's end is
// still reported.
#include "core/page_memory.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <numeric>

#include "core/demux_registry.h"

namespace tcpdemux::core {
namespace {

std::uintptr_t addr(const void* p) { return std::bit_cast<std::uintptr_t>(p); }

TEST(PageMemory, LargeVectorIsHugePageAligned) {
  const PageVector<std::uint64_t> v(kHugePageBytes / sizeof(std::uint64_t) +
                                    3);
  EXPECT_EQ(addr(v.data()) % kHugePageBytes, 0u);
}

TEST(PageMemory, SmallVectorIsPageAligned) {
  const PageVector<std::uint64_t> v(19);
  EXPECT_EQ(addr(v.data()) % page_bytes(), 0u);
}

// All-zero bytes is its default, and it says so; its constructor counts
// its calls, so a test can see whether a PageVector ran it.
struct ZeroDefault {
  static constexpr bool kZeroDefault = true;
  static inline int constructed = 0;
  ZeroDefault() noexcept { ++constructed; }
  std::uint64_t count = 0;
  const void* link = nullptr;
};
static_assert(kZeroDefault<ZeroDefault>);

// Not opted in: its default is not zero, so it must still be constructed.
struct Sevens {
  int value = 7;
};
static_assert(!kZeroDefault<Sevens>);
static_assert(!kZeroDefault<std::uint64_t>);

TEST(PageMemory, ZeroDefaultTypeIsNotConstructedElementByElement) {
  for (const std::size_t n :
       {std::size_t{19}, kHugePageBytes / sizeof(ZeroDefault) + 3}) {
    ZeroDefault::constructed = 0;
    const PageVector<ZeroDefault> v(n);
    EXPECT_EQ(ZeroDefault::constructed, 0) << n;
    std::size_t nonzero = 0;
    for (const ZeroDefault& e : v) {
      nonzero += (e.count != 0 || e.link != nullptr) ? 1 : 0;
    }
    EXPECT_EQ(nonzero, 0u) << n;
  }
  const PageVector<Sevens> sevens(100);
  EXPECT_EQ(std::count_if(sevens.begin(), sevens.end(),
                          [](const Sevens& e) { return e.value == 7; }),
            100);
}

TEST(PageMemory, AllocateFreeRoundTripsBelowAndAboveAHugePage) {
  PageAllocator<std::uint32_t> alloc;
  for (const std::size_t n :
       {std::size_t{1}, std::size_t{1000}, page_bytes() / 4,
        kHugePageBytes / 4 - 1, kHugePageBytes / 4, kHugePageBytes / 4 + 1,
        3 * kHugePageBytes / 4 + 17}) {
    for (int round = 0; round < 3; ++round) {
      std::uint32_t* p = alloc.allocate(n);
      ASSERT_NE(p, nullptr) << n;
      EXPECT_EQ(addr(p) % mapping_align(n * sizeof(std::uint32_t)), 0u) << n;
      std::iota(p, p + n, static_cast<std::uint32_t>(round));
      std::uint64_t sum = 0;
      for (std::size_t i = 0; i < n; ++i) sum += p[i] - i;
      EXPECT_EQ(sum, static_cast<std::uint64_t>(round) * n) << n;
      alloc.deallocate(p, n);
    }
  }
}

#if defined(__linux__) && !defined(TCPDEMUX_ASAN_POISONS)
std::size_t resident_bytes() {
  std::ifstream statm("/proc/self/statm");
  std::size_t pages = 0;
  std::size_t resident = 0;
  statm >> pages >> resident;
  return resident * page_bytes();
}
#endif

// A doubling frees the outgoing bucket table. On the heap those tables
// stayed resident as holes; as mappings they go back to the kernel, and so
// do the slab's chunks when the demuxer dies.
TEST(PageMemory, GrownDemuxerReturnsEveryPageWhenDestroyed) {
#ifdef TCPDEMUX_ASAN_POISONS
  GTEST_SKIP() << "ASan keeps the shadow of poisoned chunks resident; the "
                  "uninstrumented build checks this";
#elif defined(__linux__)
  // A process that has freed a large block (rxbench frees its generated
  // traffic) has glibc's dynamic mmap threshold raised to that size, so a
  // heap table up to that size comes from the brk heap and stays resident
  // once freed. Put the process in that state first.
  void* volatile block = std::malloc(std::size_t{16} << 20);
  std::free(block);
  const std::size_t before = resident_bytes();
  {
    const auto d = make_demuxer(*parse_demux_spec("dynamic"));
    for (std::uint32_t i = 0; i < 200'000; ++i) {
      ASSERT_NE(d->insert(net::FlowKey{net::Ipv4Addr(10, 0, 0, 1), 1521,
                                       net::Ipv4Addr(0x0a010000 + (i >> 12)),
                                       static_cast<std::uint16_t>(
                                           1024 + (i & 0xfff))}),
                nullptr);
    }
    EXPECT_GE(resident_bytes(), before + 200'000 * sizeof(Pcb));
  }
  const std::size_t after = resident_bytes();
  EXPECT_LE(after, before + (std::size_t{1} << 20))
      << "before " << before << " B, after " << after << " B";
#else
  GTEST_SKIP() << "resident size is read from /proc/self/statm";
#endif
}

#ifdef TCPDEMUX_ASAN_POISONS
// On the heap ASan caught a read past a table's end; the slack between
// the array and the end of its mapping is poisoned so it still does,
// also for a zero-default type whose elements were never constructed.
TEST(PageMemoryDeathTest, ReadPastAVectorIsReportedUnderAsan) {
  const PageVector<std::uint64_t> v(19);
  const std::uint64_t* past = v.data() + v.size();
  EXPECT_DEATH(
      {
        const volatile std::uint64_t x = *past;
        (void)x;
      },
      "use-after-poison");
  const PageVector<ZeroDefault> zeroed(19);
  const ZeroDefault* past_zeroed = zeroed.data() + zeroed.size();
  EXPECT_DEATH(
      {
        const volatile std::uint64_t x = past_zeroed->count;
        (void)x;
      },
      "use-after-poison");
}
#endif

}  // namespace
}  // namespace tcpdemux::core

// Page-mapping portability shim: the one home of mmap, munmap and madvise
// (the repo lint's page-mapping rule keeps them here).
//
// The paper counts PCBs examined because each one is a memory reference.
// At the populations the receive path runs at (1M PCBs: 128 MB of slab and
// ~11 MB of bucket array) each of those references is also a TLB miss, and
// on 4 KiB pages every one pays a page walk — a nested one on a VM. A
// kernel's PCBs live in its direct map, on huge pages. This header hands
// out anonymous mappings the kernel can back with 2 MiB pages, and returns
// them with munmap, so a freed table leaves no resident heap hole behind:
//
//   * map_pages: page-aligned anonymous memory, 2 MiB-aligned when the
//     request is at least 2 MiB, so every whole 2 MiB stretch of it is
//     huge-page eligible. Mapped untouched, so it costs no residency until
//     a page is written.
//   * advise_huge: MADV_HUGEPAGE, for an array touched throughout soon
//     after it is mapped (a fault then brings in a whole 2 MiB page).
//   * collapse_huge: MADV_COLLAPSE, for a region every page of which is
//     already resident (a huge page then wastes nothing).
//   * PageAllocator<T> / PageVector<T>: a std::vector whose storage is one
//     such mapping, advised huge when it is at least 2 MiB. A fresh mapping
//     reads as zero, so an element type whose default value is all-zero
//     bytes (kZeroDefault) is not constructed element by element: building
//     a table writes none of it, and its pages fault in as they are used.
//
// The advice is only a hint: with THP set to `never`, before Linux 6.1 (no
// MADV_COLLAPSE) or when the kernel has no huge page to give, the same
// code runs on base pages with identical behaviour. Without __linux__ the
// mapping degrades to aligned operator new and the advice to a no-op.
//
// Under AddressSanitizer PageAllocator poisons the slack between the
// array's end and the mapping's end, so a read past a table is still a
// report, as it was on the heap; poison_region/unpoison_region are the
// hooks the PCB slab uses for its free slots.
#ifndef TCPDEMUX_CORE_PAGE_MEMORY_H_
#define TCPDEMUX_CORE_PAGE_MEMORY_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#if defined(__linux__)
#include <sys/mman.h>
#include <unistd.h>
#endif

#if defined(__SANITIZE_ADDRESS__)
#define TCPDEMUX_ASAN_POISONS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define TCPDEMUX_ASAN_POISONS 1
#endif
#endif

#ifdef TCPDEMUX_ASAN_POISONS
#include <sanitizer/asan_interface.h>
#endif

namespace tcpdemux::core {

/// The size (and alignment) of a transparent huge page on x86-64.
inline constexpr std::size_t kHugePageBytes = std::size_t{2} << 20;

/// The base page size: mappings and residency are counted in these.
inline std::size_t page_bytes() noexcept {
#if defined(__linux__)
  static const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  return page;
#else
  return 4096;
#endif
}

/// `bytes` rounded up to whole base pages.
inline std::size_t round_to_pages(std::size_t bytes) noexcept {
  const std::size_t page = page_bytes();
  return (bytes + page - 1) / page * page;
}

/// The alignment map_pages gives a request of `bytes`.
inline std::size_t mapping_align(std::size_t bytes) noexcept {
  return bytes >= kHugePageBytes ? kHugePageBytes : page_bytes();
}

/// Maps round_to_pages(bytes) of anonymous read-write memory, aligned to
/// mapping_align(bytes), reading as zero. Throws std::bad_alloc when the
/// mapping is refused. Release it with unmap_pages(p, bytes).
[[nodiscard]] inline void* map_pages(std::size_t bytes) {
  const std::size_t len = round_to_pages(bytes);
  const std::size_t align = mapping_align(bytes);
#if defined(__linux__)
  // Over-map by the alignment's slack, then trim the head and tail so the
  // kept range starts on an `align` boundary.
  const std::size_t span = len + align - page_bytes();
  void* raw = mmap(nullptr, span, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (raw == MAP_FAILED) throw std::bad_alloc();
  const auto base = std::bit_cast<std::uintptr_t>(raw);
  const std::uintptr_t start = (base + align - 1) / align * align;
  if (start != base) munmap(raw, start - base);
  if (const std::size_t tail = base + span - (start + len); tail != 0) {
    munmap(std::bit_cast<void*>(start + len), tail);
  }
  return std::bit_cast<void*>(start);
#else
  void* p = ::operator new(len, std::align_val_t{align});
  std::memset(p, 0, len);  // as a fresh mapping reads
  return p;
#endif
}

/// Returns a mapping from map_pages(bytes) to the kernel.
inline void unmap_pages(void* p, std::size_t bytes) noexcept {
#if defined(__linux__)
  munmap(p, round_to_pages(bytes));
#else
  ::operator delete(p, std::align_val_t{mapping_align(bytes)});
#endif
}

/// Asks for huge pages on [p, p + bytes) from its first touch on. For an
/// array touched throughout (a hash table's uniform scatter): a partly
/// used region would pay a whole 2 MiB page per touched stretch.
inline void advise_huge([[maybe_unused]] void* p,
                        [[maybe_unused]] std::size_t bytes) noexcept {
#if defined(__linux__) && defined(MADV_HUGEPAGE)
  madvise(p, round_to_pages(bytes), MADV_HUGEPAGE);
#endif
}

/// Asks the kernel to move the resident pages of [p, p + bytes) onto huge
/// pages now (Linux 6.1+; a no-op where MADV_COLLAPSE is unknown). Meant
/// for a region whose every page is already touched.
inline void collapse_huge([[maybe_unused]] void* p,
                          [[maybe_unused]] std::size_t bytes) noexcept {
#if defined(__linux__)
#ifdef MADV_COLLAPSE
  constexpr int kCollapse = MADV_COLLAPSE;
#else
  constexpr int kCollapse = 25;  // <linux/mman.h>; older kernels: EINVAL
#endif
  madvise(p, round_to_pages(bytes), kCollapse);
#endif
}

inline void poison_region([[maybe_unused]] const void* p,
                          [[maybe_unused]] std::size_t n) noexcept {
#ifdef TCPDEMUX_ASAN_POISONS
  ASAN_POISON_MEMORY_REGION(p, n);
#endif
}

inline void unpoison_region([[maybe_unused]] const void* p,
                            [[maybe_unused]] std::size_t n) noexcept {
#ifdef TCPDEMUX_ASAN_POISONS
  ASAN_UNPOISON_MEMORY_REGION(p, n);
#endif
}

/// True for a type whose default value is all-zero bytes: it opts in by
/// declaring `static constexpr bool kZeroDefault = true;`. A type property,
/// not an option: every PageVector of such a type skips the default
/// constructor, so the declaration must stay true of the type's members.
template <class T>
inline constexpr bool kZeroDefault = requires {
  requires T::kZeroDefault;
} && std::is_trivially_destructible_v<T>;

/// A stateless allocator whose every allocation is its own mapping. For
/// arrays touched throughout soon after they are built (a bucket table):
/// one of 2 MiB or more is advised huge before its first touch.
template <class T>
struct PageAllocator {
  using value_type = T;

  PageAllocator() noexcept = default;
  template <class U>
  explicit PageAllocator(const PageAllocator<U>& /*other*/) noexcept {}

  [[nodiscard]] T* allocate(std::size_t n) {
    const std::size_t bytes = n * sizeof(T);
    void* p = map_pages(bytes);
    if (bytes >= kHugePageBytes) advise_huge(p, bytes);
    poison_region(static_cast<char*>(p) + bytes,
                  round_to_pages(bytes) - bytes);
    return static_cast<T*>(p);
  }

  /// Default construction of a kZeroDefault type writes nothing: storage
  /// fresh from map_pages is already zero. The one way to default-construct
  /// into storage used before — regrowing a shrunk vector within its
  /// capacity — is never taken by a table, which keeps its size for life.
  template <class U, class... Args>
  void construct(U* p, Args&&... args) {
    if constexpr (!(kZeroDefault<U> && sizeof...(Args) == 0)) {
      std::construct_at(p, std::forward<Args>(args)...);
    }
  }

  void deallocate(T* p, std::size_t n) noexcept {
    const std::size_t bytes = n * sizeof(T);
    unpoison_region(p, round_to_pages(bytes));
    unmap_pages(p, bytes);
  }

  friend bool operator==(const PageAllocator& /*a*/,
                         const PageAllocator& /*b*/) noexcept {
    return true;
  }
};

template <class T>
using PageVector = std::vector<T, PageAllocator<T>>;

}  // namespace tcpdemux::core

#endif  // TCPDEMUX_CORE_PAGE_MEMORY_H_

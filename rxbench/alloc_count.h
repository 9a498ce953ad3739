// Heap-allocation counters for the traced benchmark binary.
//
// rxbench_traced links alloc_count.cc, which replaces the global
// operator new/delete family with counting versions; rxbench links
// alloc_none.cc, so the timed binary runs the standard allocator untouched.
#ifndef RXBENCH_ALLOC_COUNT_H_
#define RXBENCH_ALLOC_COUNT_H_

#include <cstdint>

namespace rxbench {

struct AllocCount {
  std::uint64_t calls = 0;  ///< operator new calls so far
  std::uint64_t bytes = 0;  ///< bytes they requested
};

/// True in the binary whose operator new counts.
[[nodiscard]] bool alloc_counting() noexcept;

[[nodiscard]] AllocCount alloc_count() noexcept;

}  // namespace rxbench

#endif  // RXBENCH_ALLOC_COUNT_H_

// Counting replacements for the global allocation functions. The benchmark
// is single-threaded, so the counters are plain integers: an atomic add per
// allocation would inflate the spans it is meant to explain.
#include <cstdlib>
#include <new>

#include "alloc_count.h"

namespace {

rxbench::AllocCount g_count;

void* counted(std::size_t size) {
  ++g_count.calls;
  g_count.bytes += size;
  return std::malloc(size == 0 ? 1 : size);
}

void* counted_aligned(std::size_t size, std::align_val_t align) {
  ++g_count.calls;
  g_count.bytes += size;
  const auto a = static_cast<std::size_t>(align);
  void* p = nullptr;
  if (posix_memalign(&p, a < sizeof(void*) ? sizeof(void*) : a,
                     size == 0 ? 1 : size) != 0) {
    return nullptr;
  }
  return p;
}

}  // namespace

namespace rxbench {

bool alloc_counting() noexcept { return true; }

AllocCount alloc_count() noexcept { return g_count; }

}  // namespace rxbench

void* operator new(std::size_t size) {
  if (void* p = counted(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  if (void* p = counted(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  if (void* p = counted_aligned(size, align)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  if (void* p = counted_aligned(size, align)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return counted_aligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return counted_aligned(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

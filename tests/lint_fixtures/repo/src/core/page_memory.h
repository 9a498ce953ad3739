// Fixture: the exempt page-mapping shim. It is the one sanctioned home of
// mmap/munmap/madvise, and owns its fallback's raw memory, so both
// page-mapping and raw-owning-memory stay silent here.
#ifndef TCPDEMUX_CORE_PAGE_MEMORY_H_
#define TCPDEMUX_CORE_PAGE_MEMORY_H_

namespace tcpdemux::core {

inline void* map_pages(unsigned long bytes) {
  return mmap(nullptr, bytes, 3, 0x22, -1, 0);  // exempt: page-mapping
}

inline void unmap_pages(void* p, unsigned long bytes) {
  madvise(p, bytes, 14);  // exempt: page-mapping
  munmap(p, bytes);       // exempt: page-mapping
}

inline void release_fallback(char* p) {
  delete[] p;  // exempt: raw-owning-memory
}

}  // namespace tcpdemux::core

#endif  // TCPDEMUX_CORE_PAGE_MEMORY_H_

// Fixture: page-mapping — positives for each mapping call outside the
// shim, one suppressed, and names that merely contain the words.
namespace tcpdemux::core {

void* private_table(unsigned long bytes) {
  return mmap(nullptr, bytes, 3, 0x22, -1, 0);  // positive: raw mmap
}

void private_release(void* p, unsigned long bytes) {
  madvise(p, bytes, 14);  // positive: raw madvise
  munmap(p, bytes);       // positive: raw munmap
}

void sanctioned_release(void* p, unsigned long bytes) {
  munmap(p, bytes);  // NOLINT(page-mapping)
}

void* through_the_shim(unsigned long bytes) {
  return map_pages(bytes);  // not a finding: the shim's own API
}

}  // namespace tcpdemux::core

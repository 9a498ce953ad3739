// CRC-32C (Castagnoli, polynomial 0x1EDC6F41, reflected 0x82F63B78) with
// hardware acceleration where the ISA provides it.
//
// This is a *different code* from the IEEE 802.3 CRC-32 in hashers.cc
// (0xEDB88320): Castagnoli's polynomial has better Hamming distance at
// datagram lengths AND — decisively for a demultiplexer hot path — x86
// has burned it into silicon since Nehalem (SSE4.2 `crc32` instruction,
// ~1 cycle per 8 bytes) and ARMv8 since the 8.1 CRC extension. Software
// CRC-32 costs a table lookup per byte; the hardware instruction makes
// CRC-quality mixing as cheap as the naive folds the paper's era used.
//
// Dispatch: the hardware path is compiled behind
// `__attribute__((target(...)))` so the translation unit itself needs no
// special -m flags, and selected at runtime via CPU detection, cached in
// a function-local static. The portable table fallback is always built
// and is bit-identical — `crc32c_sw()` stays exposed so tests can assert
// hw == sw on every input. This header is the one audited home for
// vector and hash intrinsics in the tree; the simd-discipline lint bans
// them everywhere else.
//
//   crc32c("123456789") == 0xE3069283   (canonical check value)
#ifndef TCPDEMUX_NET_CRC32C_H_
#define TCPDEMUX_NET_CRC32C_H_

#include <array>
#include <cstdint>
#include <cstring>
#include <span>
#include <string_view>

#if defined(__x86_64__) || defined(__i386__)
#define TCPDEMUX_CRC32C_HW_X86 1
#include <nmmintrin.h>  // NOLINT(simd-discipline)
#elif defined(__aarch64__) && defined(__ARM_FEATURE_CRC32)
#define TCPDEMUX_CRC32C_HW_ARM 1
#include <arm_acle.h>  // NOLINT(simd-discipline)
#endif

namespace tcpdemux::net {

namespace crc32c_detail {

// Byte-at-a-time table for the reflected Castagnoli polynomial. Built at
// compile time; plenty for 12-byte flow keys, and the correctness oracle
// for the hardware path.
constexpr std::array<std::uint32_t, 256> make_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t n = 0; n < 256; ++n) {
    std::uint32_t c = n;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? (0x82f63b78u ^ (c >> 1)) : (c >> 1);
    }
    table[n] = c;
  }
  return table;
}

inline constexpr auto kTable = make_table();

#if defined(TCPDEMUX_CRC32C_HW_X86)
// SSE4.2 path. The target attribute scopes the ISA extension to this one
// function, so the rest of the binary still runs on pre-Nehalem parts.
__attribute__((target("sse4.2"))) inline std::uint32_t accumulate_hw(
    std::uint32_t crc, std::span<const std::uint8_t> bytes) noexcept {
  const std::uint8_t* p = bytes.data();
  std::size_t n = bytes.size();
  while (n >= 8) {
    std::uint64_t chunk;
    std::memcpy(&chunk, p, 8);
    crc = static_cast<std::uint32_t>(
        _mm_crc32_u64(crc, chunk));  // NOLINT(simd-discipline)
    p += 8;
    n -= 8;
  }
  if (n >= 4) {
    std::uint32_t chunk;
    std::memcpy(&chunk, p, 4);
    crc = _mm_crc32_u32(crc, chunk);  // NOLINT(simd-discipline)
    p += 4;
    n -= 4;
  }
  while (n-- > 0) {
    crc = _mm_crc32_u8(crc, *p++);  // NOLINT(simd-discipline)
  }
  return crc;
}

inline bool hw_available_probe() noexcept {
  return __builtin_cpu_supports("sse4.2") != 0;
}
#elif defined(TCPDEMUX_CRC32C_HW_ARM)
inline std::uint32_t accumulate_hw(
    std::uint32_t crc, std::span<const std::uint8_t> bytes) noexcept {
  const std::uint8_t* p = bytes.data();
  std::size_t n = bytes.size();
  while (n >= 8) {
    std::uint64_t chunk;
    std::memcpy(&chunk, p, 8);
    crc = __crc32cd(crc, chunk);  // NOLINT(simd-discipline)
    p += 8;
    n -= 8;
  }
  if (n >= 4) {
    std::uint32_t chunk;
    std::memcpy(&chunk, p, 4);
    crc = __crc32cw(crc, chunk);  // NOLINT(simd-discipline)
    p += 4;
    n -= 4;
  }
  while (n-- > 0) {
    crc = __crc32cb(crc, *p++);  // NOLINT(simd-discipline)
  }
  return crc;
}

// __ARM_FEATURE_CRC32 means the compiler was already told the target has
// the CRC extension, so no runtime probe is needed.
inline bool hw_available_probe() noexcept { return true; }
#endif

}  // namespace crc32c_detail

/// Portable table implementation; always available, bit-identical to the
/// hardware path. Exposed so tests can cross-check the two on any input.
[[nodiscard]] inline std::uint32_t crc32c_sw(
    std::span<const std::uint8_t> bytes) noexcept {
  std::uint32_t c = 0xffffffffu;
  for (const std::uint8_t b : bytes) {
    c = crc32c_detail::kTable[(c ^ b) & 0xff] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

/// True when the running CPU exposes the CRC32C instruction and this build
/// compiled the hardware path. Cached after the first call.
[[nodiscard]] inline bool crc32c_hw_available() noexcept {
#if defined(TCPDEMUX_CRC32C_HW_X86) || defined(TCPDEMUX_CRC32C_HW_ARM)
  static const bool available = crc32c_detail::hw_available_probe();
  return available;
#else
  return false;
#endif
}

/// Hardware CRC32C. Callers must check crc32c_hw_available() first; on
/// builds without a hardware path this falls back to the table so the
/// symbol always links.
[[nodiscard]] inline std::uint32_t crc32c_hw(
    std::span<const std::uint8_t> bytes) noexcept {
#if defined(TCPDEMUX_CRC32C_HW_X86) || defined(TCPDEMUX_CRC32C_HW_ARM)
  return crc32c_detail::accumulate_hw(0xffffffffu, bytes) ^ 0xffffffffu;
#else
  return crc32c_sw(bytes);
#endif
}

/// CRC-32C with runtime dispatch: hardware instruction when the CPU has
/// one, table otherwise. crc32c({"123456789"}) == 0xE3069283.
[[nodiscard]] inline std::uint32_t crc32c(
    std::span<const std::uint8_t> bytes) noexcept {
  return crc32c_hw_available() ? crc32c_hw(bytes) : crc32c_sw(bytes);
}

/// Which implementation crc32c() dispatches to on this machine:
/// "sse4.2", "armv8-crc", or "table". For bench metadata and tests.
[[nodiscard]] inline std::string_view crc32c_backend() noexcept {
#if defined(TCPDEMUX_CRC32C_HW_X86)
  return crc32c_hw_available() ? "sse4.2" : "table";
#elif defined(TCPDEMUX_CRC32C_HW_ARM)
  return "armv8-crc";
#else
  return "table";
#endif
}

}  // namespace tcpdemux::net

#endif  // TCPDEMUX_NET_CRC32C_H_

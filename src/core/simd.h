// SWAR ("SIMD within a register") tag match for the cuckoo table's 4-slot
// buckets. A bucket's four 1-byte fingerprint tags fit one 32-bit word, so
// one integer compare filters the whole bucket on every architecture: no
// vector intrinsic, no backend to select. The repo lint's simd-discipline
// rule keeps vector intrinsics out of this file too; the one audited
// intrinsic shim is net/crc32c.h.
#ifndef TCPDEMUX_CORE_SIMD_H_
#define TCPDEMUX_CORE_SIMD_H_

#include <cstdint>
#include <cstring>

namespace tcpdemux::core {

/// 4-wide bucket match: bit i of the result is set iff tags[i] == tag.
/// Only the low 4 bits can be set.
[[nodiscard]] inline std::uint32_t bucket_match(const std::uint8_t* tags,
                                                std::uint8_t tag) noexcept {
  std::uint32_t word = 0;
  std::memcpy(&word, tags, sizeof word);
  // Per-byte equality: 0x80 in every byte of `word` equal to `tag`, 0x00
  // elsewhere. The (x & 0x7f..) + 0x7f.. trick never carries across byte
  // boundaries, so the mask is exact per byte (the classic
  // `(v - 0x01..) & ~v & 0x80..` zero-byte test is not: a borrow from a
  // zero byte can flag its neighbour).
  constexpr std::uint32_t kLow7 = 0x7f7f7f7fU;
  const std::uint32_t x = word ^ (0x01010101U * tag);
  const std::uint32_t m = ~(((x & kLow7) + kLow7) | x | kLow7);
  // Movemask by multiply: byte i's 0x80 bit lands at bit 28+i; wrapped
  // overflow terms stay below bit 28 and are shifted out.
  return (m * 0x00204081U) >> 28;
}

}  // namespace tcpdemux::core

#endif  // TCPDEMUX_CORE_SIMD_H_

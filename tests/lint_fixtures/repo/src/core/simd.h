// Fixture: simd-discipline — core/simd.h is not exempt. The tree has no
// such header; a vector group probe planted under src/core must be
// reported like anywhere else in the tree.
#ifndef TCPDEMUX_CORE_SIMD_H_
#define TCPDEMUX_CORE_SIMD_H_

#include <emmintrin.h>

#include <cstdint>

namespace tcpdemux::core {

inline std::uint32_t group_match(const std::uint8_t* tags, std::uint8_t tag) {
  const __m128i probe = _mm_set1_epi8(static_cast<char>(tag));
  const __m128i group =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(tags));
  return static_cast<std::uint32_t>(
      _mm_movemask_epi8(_mm_cmpeq_epi8(group, probe)));
}

}  // namespace tcpdemux::core

#endif  // TCPDEMUX_CORE_SIMD_H_

// core/simd.h: the cuckoo table's 4-wide SWAR bucket match must agree with
// a byte-at-a-time oracle.
#include "core/simd.h"

#include <array>
#include <cstdint>

#include "gtest/gtest.h"

namespace tcpdemux::core {
namespace {

std::uint32_t oracle_match(const std::uint8_t* tags, std::size_t n,
                           std::uint8_t tag) {
  std::uint32_t mask = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (tags[i] == tag) mask |= 1U << i;
  }
  return mask;
}

// Deterministic xorshift so the sweep covers varied byte patterns without
// depending on seeded std:: machinery.
std::uint32_t next_rand(std::uint32_t& state) {
  state ^= state << 13;
  state ^= state >> 17;
  state ^= state << 5;
  return state;
}

TEST(SimdTest, BucketMatchAgainstOracle) {
  std::uint32_t state = 0x243f6a88;
  std::array<std::uint8_t, 4> tags{};
  for (int round = 0; round < 5000; ++round) {
    for (auto& t : tags) t = static_cast<std::uint8_t>(next_rand(state));
    const auto probe = static_cast<std::uint8_t>(next_rand(state));
    tags[next_rand(state) % tags.size()] = probe;
    const std::uint32_t expect = oracle_match(tags.data(), tags.size(), probe);
    EXPECT_EQ(bucket_match(tags.data(), probe), expect);
    EXPECT_LE(bucket_match(tags.data(), probe), 0xfU);
  }
}

}  // namespace
}  // namespace tcpdemux::core

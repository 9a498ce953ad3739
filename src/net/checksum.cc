#include "net/checksum.h"

#include <bit>
#include <cstring>

namespace tcpdemux::net {
namespace {

// RFC 1071 §2(B): the one's-complement sum is byte-order independent. Words
// are therefore summed as the host loads them and the folded sum is swapped
// to network order once, in finish(). On a big-endian host both are no-ops.
constexpr bool kSwap = std::endian::native == std::endian::little;

std::uint16_t to_network(std::uint16_t v) noexcept {
  if constexpr (kSwap) {
    return static_cast<std::uint16_t>((v >> 8) | (v << 8));
  } else {
    return v;
  }
}

}  // namespace

void ChecksumAccumulator::add(std::span<const std::uint8_t> bytes) noexcept {
  // RFC 1071 §2(C): sum 32-bit words into 64-bit registers and fold the
  // carries once at the end. A 32-bit word folds to the sum of its two
  // 16-bit halves, so this equals the 16-bit sum. Two registers let
  // consecutive adds run in parallel.
  const std::uint8_t* p = bytes.data();
  std::size_t n = bytes.size();
  std::uint64_t sum = sum_;
  std::uint64_t odd = 0;
  for (; n >= 8; p += 8, n -= 8) {
    std::uint32_t even_word;
    std::uint32_t odd_word;
    std::memcpy(&even_word, p, sizeof even_word);
    std::memcpy(&odd_word, p + 4, sizeof odd_word);
    sum += even_word;
    odd += odd_word;
  }
  sum += odd;
  if (n >= 4) {
    std::uint32_t word;
    std::memcpy(&word, p, sizeof word);
    sum += word;
    p += 4;
    n -= 4;
  }
  if (n >= 2) {
    std::uint16_t half;
    std::memcpy(&half, p, sizeof half);
    sum += half;
    p += 2;
    n -= 2;
  }
  if (n == 1) {
    // The odd byte is the high (first) octet of a zero-padded word.
    const std::uint8_t pad[2] = {*p, 0};
    std::uint16_t half;
    std::memcpy(&half, pad, sizeof half);
    sum += half;
  }
  sum_ = sum;
}

void ChecksumAccumulator::add_word(std::uint16_t word) noexcept {
  sum_ += to_network(word);  // the swap is its own inverse
}

std::uint16_t ChecksumAccumulator::finish() const noexcept {
  std::uint64_t s = sum_;
  while (s >> 16) {
    s = (s & 0xffff) + (s >> 16);
  }
  return static_cast<std::uint16_t>(~to_network(static_cast<std::uint16_t>(s)));
}

std::uint16_t internet_checksum(std::span<const std::uint8_t> bytes) noexcept {
  ChecksumAccumulator acc;
  acc.add(bytes);
  return acc.finish();
}

std::uint16_t tcp_checksum(Ipv4Addr src, Ipv4Addr dst,
                           std::span<const std::uint8_t> segment) noexcept {
  ChecksumAccumulator acc;
  acc.add_word(static_cast<std::uint16_t>(src.value() >> 16));
  acc.add_word(static_cast<std::uint16_t>(src.value() & 0xffff));
  acc.add_word(static_cast<std::uint16_t>(dst.value() >> 16));
  acc.add_word(static_cast<std::uint16_t>(dst.value() & 0xffff));
  acc.add_word(6);  // protocol: TCP
  acc.add_word(static_cast<std::uint16_t>(segment.size()));
  acc.add(segment);
  return acc.finish();
}

bool verify_checksum(std::span<const std::uint8_t> bytes) noexcept {
  return internet_checksum(bytes) == 0;
}

}  // namespace tcpdemux::net

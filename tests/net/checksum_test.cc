#include "net/checksum.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstddef>
#include <random>
#include <vector>

namespace tcpdemux::net {
namespace {

TEST(Checksum, RFC1071ReferenceExample) {
  // The worked example from RFC 1071 §3: bytes 00 01 f2 03 f4 f5 f6 f7
  // sum to 0xddf2 before complement.
  const std::array<std::uint8_t, 8> bytes = {0x00, 0x01, 0xf2, 0x03,
                                             0xf4, 0xf5, 0xf6, 0xf7};
  const auto expected = static_cast<std::uint16_t>(~0xddf2);
  EXPECT_EQ(internet_checksum(bytes), expected);

  // The same bytes at every word alignment, split into two even chunks at
  // every even point, and fed as host-order words.
  std::array<std::uint8_t, 16> buffer{};
  for (std::size_t align = 0; align < 8; ++align) {
    std::copy(bytes.begin(), bytes.end(), buffer.begin() + align);
    const auto view = std::span(buffer).subspan(align, bytes.size());
    EXPECT_EQ(internet_checksum(view), expected) << "alignment " << align;
    for (std::size_t split = 0; split <= bytes.size(); split += 2) {
      ChecksumAccumulator acc;
      acc.add(view.subspan(0, split));
      acc.add(view.subspan(split));
      EXPECT_EQ(acc.finish(), expected)
          << "alignment " << align << " split " << split;
    }
  }
  ChecksumAccumulator words;
  words.add_word(0x0001);
  words.add_word(0xf203);
  words.add_word(0xf4f5);
  words.add_word(0xf6f7);
  EXPECT_EQ(words.finish(), expected);
}

TEST(Checksum, EmptyInputIsAllOnes) {
  EXPECT_EQ(internet_checksum({}), 0xffff);
}

TEST(Checksum, OddLengthPadsWithZero) {
  const std::array<std::uint8_t, 1> one = {0xab};
  // Word is 0xab00; checksum is its complement.
  EXPECT_EQ(internet_checksum(one), static_cast<std::uint16_t>(~0xab00));
}

TEST(Checksum, VerifyAcceptsEmbeddedChecksum) {
  // Build a buffer, embed its checksum, verify it sums to zero.
  std::vector<std::uint8_t> data = {0x45, 0x00, 0x00, 0x28, 0x12, 0x34,
                                    0x00, 0x00, 0x40, 0x06, 0x00, 0x00,
                                    0x0a, 0x00, 0x00, 0x01, 0x0a, 0x00,
                                    0x00, 0x02};
  const std::uint16_t sum = internet_checksum(data);
  data[10] = static_cast<std::uint8_t>(sum >> 8);
  data[11] = static_cast<std::uint8_t>(sum & 0xff);
  EXPECT_TRUE(verify_checksum(data));
  data[12] ^= 0x01;  // corrupt one bit
  EXPECT_FALSE(verify_checksum(data));
}

TEST(Checksum, ChunkedFeedMatchesOneShot) {
  std::vector<std::uint8_t> data;
  for (int i = 0; i < 100; ++i) data.push_back(static_cast<std::uint8_t>(i));
  ChecksumAccumulator chunked;
  chunked.add(std::span(data).subspan(0, 40));
  chunked.add(std::span(data).subspan(40, 60));
  EXPECT_EQ(chunked.finish(), internet_checksum(data));
}

TEST(Checksum, CarryFolding) {
  // 0xffff + 0xffff wraps with end-around carry to 0xffff; complement 0.
  const std::array<std::uint8_t, 4> bytes = {0xff, 0xff, 0xff, 0xff};
  EXPECT_EQ(internet_checksum(bytes), 0x0000);
}

TEST(Checksum, TcpPseudoHeaderChangesSum) {
  const std::array<std::uint8_t, 4> seg = {0xde, 0xad, 0xbe, 0xef};
  const auto a = tcp_checksum(Ipv4Addr(10, 0, 0, 1), Ipv4Addr(10, 0, 0, 2), seg);
  const auto b = tcp_checksum(Ipv4Addr(10, 0, 0, 1), Ipv4Addr(10, 0, 0, 3), seg);
  EXPECT_NE(a, b);
}

TEST(Checksum, TcpChecksumVerifiesWhenEmbedded) {
  // A 20-byte TCP header with checksum zeroed, then patched.
  std::vector<std::uint8_t> seg(20, 0);
  seg[0] = 0x30; seg[1] = 0x39;  // src port 12345
  seg[2] = 0x00; seg[3] = 0x50;  // dst port 80
  seg[12] = 0x50;                // data offset 5
  seg[13] = 0x02;                // SYN
  const Ipv4Addr src(192, 168, 0, 1);
  const Ipv4Addr dst(192, 168, 0, 2);
  const std::uint16_t sum = tcp_checksum(src, dst, seg);
  seg[16] = static_cast<std::uint8_t>(sum >> 8);
  seg[17] = static_cast<std::uint8_t>(sum & 0xff);
  EXPECT_EQ(tcp_checksum(src, dst, seg), 0);
}

/// The RFC 1071 definition, one big-endian byte pair at a time: the oracle
/// for the word-wide accumulator.
std::uint16_t byte_pair_reference(std::span<const std::uint8_t> bytes) {
  std::uint32_t sum = 0;
  for (std::size_t i = 0; i < bytes.size(); i += 2) {
    const std::uint32_t hi = bytes[i];
    const std::uint32_t lo = i + 1 < bytes.size() ? bytes[i + 1] : 0;
    sum += (hi << 8) | lo;
    sum = (sum & 0xffff) + (sum >> 16);
  }
  return static_cast<std::uint16_t>(~sum & 0xffff);
}

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng());
  return out;
}

TEST(Checksum, WordWideMatchesBytePairReferenceOnRandomData) {
  // Every length 0..1500, odd ones included, at every alignment mod 8 so
  // the 8- and 4-byte word loads see each possible tail.
  const auto data = random_bytes(1500 + 8, 1071);
  for (std::size_t len = 0; len <= 1500; ++len) {
    for (std::size_t align = 0; align < 8; ++align) {
      const auto view = std::span(data).subspan(align, len);
      ASSERT_EQ(internet_checksum(view), byte_pair_reference(view))
          << "length " << len << " alignment " << align;
    }
  }
}

TEST(Checksum, ChunksOfTwoModFourMatchOneShot) {
  // Even chunk lengths that are 2 mod 4 end every chunk half-way through a
  // 32-bit word, so the next chunk's words straddle the previous split.
  const auto data = random_bytes(1500, 7);
  std::mt19937 rng(3);
  for (int trial = 0; trial < 200; ++trial) {
    ChecksumAccumulator chunked;
    std::size_t at = 0;
    while (at < data.size()) {
      const std::size_t len =
          std::min<std::size_t>(4 * (rng() % 8) + 2, data.size() - at);
      chunked.add(std::span(data).subspan(at, len));
      at += len;
    }
    ASSERT_EQ(chunked.finish(), byte_pair_reference(data)) << "trial " << trial;
  }
  // An odd final chunk after 2-mod-4 chunks.
  ChecksumAccumulator tail;
  tail.add(std::span(data).subspan(0, 6));
  tail.add(std::span(data).subspan(6, 10));
  tail.add(std::span(data).subspan(16, 7));
  EXPECT_EQ(tail.finish(), byte_pair_reference(std::span(data).subspan(0, 23)));
}

TEST(Checksum, AllZeroAndAllOnesFoldEdges) {
  // All zero bytes sum to +0 (checksum 0xffff); all 0xff bytes to the
  // one's-complement -0 (checksum 0x0000). An odd all-0xff tail pads to
  // 0xff00, whose complement is 0x00ff.
  for (std::size_t len = 0; len <= 1500; ++len) {
    const std::vector<std::uint8_t> zeros(len, 0x00);
    const std::vector<std::uint8_t> ones(len, 0xff);
    ASSERT_EQ(internet_checksum(zeros), 0xffff) << "length " << len;
    const std::uint16_t ones_expected =
        len == 0 ? 0xffff : (len % 2 == 0 ? 0x0000 : 0x00ff);
    ASSERT_EQ(internet_checksum(ones), ones_expected) << "length " << len;
    ASSERT_EQ(internet_checksum(ones), byte_pair_reference(ones));
  }
}

TEST(Checksum, TcpChecksumMatchesReferenceOverPseudoHeader) {
  // The pseudo-header words and the segment bytes land in one sum.
  const Ipv4Addr src(192, 168, 7, 9);
  const Ipv4Addr dst(10, 200, 30, 4);
  for (const std::size_t len : {0u, 1u, 2u, 3u, 20u, 21u, 1480u}) {
    const auto segment = random_bytes(len, static_cast<std::uint32_t>(len));
    std::vector<std::uint8_t> pseudo = {
        192, 168, 7, 9, 10, 200, 30, 4, 0, 6,
        static_cast<std::uint8_t>(len >> 8),
        static_cast<std::uint8_t>(len & 0xff)};
    pseudo.insert(pseudo.end(), segment.begin(), segment.end());
    EXPECT_EQ(tcp_checksum(src, dst, segment), byte_pair_reference(pseudo))
        << "length " << len;
  }
}

}  // namespace
}  // namespace tcpdemux::net

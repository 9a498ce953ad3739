#include "net/headers.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <vector>

namespace tcpdemux::net {
namespace {

Ipv4Header sample_ip() {
  Ipv4Header h;
  h.total_length = 40;
  h.identification = 0xbeef;
  h.ttl = 63;
  h.src = Ipv4Addr(10, 0, 0, 2);
  h.dst = Ipv4Addr(10, 0, 0, 1);
  return h;
}

TEST(Ipv4Header, SerializeParseRoundTrip) {
  const Ipv4Header h = sample_ip();
  std::array<std::uint8_t, 40> buf{};
  EXPECT_EQ(h.serialize(buf), Ipv4Header::kSize);
  const auto parsed = Ipv4Header::parse(buf);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->total_length, h.total_length);
  EXPECT_EQ(parsed->identification, h.identification);
  EXPECT_EQ(parsed->ttl, h.ttl);
  EXPECT_EQ(parsed->protocol, 6);
  EXPECT_EQ(parsed->src, h.src);
  EXPECT_EQ(parsed->dst, h.dst);
  EXPECT_TRUE(parsed->dont_fragment);
  EXPECT_FALSE(parsed->more_fragments);
}

TEST(Ipv4Header, ParseRejectsShortBuffer) {
  std::array<std::uint8_t, 19> buf{};
  EXPECT_FALSE(Ipv4Header::parse(buf).has_value());
}

TEST(Ipv4Header, ParseRejectsBadVersion) {
  std::array<std::uint8_t, 20> buf{};
  sample_ip().serialize(buf);
  buf[0] = 0x65;  // version 6
  EXPECT_FALSE(Ipv4Header::parse(buf).has_value());
}

TEST(Ipv4Header, ParseRejectsOptions) {
  std::array<std::uint8_t, 24> buf{};
  sample_ip().serialize(buf);
  buf[0] = 0x46;  // IHL 6 (one option word)
  EXPECT_FALSE(Ipv4Header::parse(buf).has_value());
}

TEST(Ipv4Header, ParseRejectsCorruptChecksum) {
  std::array<std::uint8_t, 40> buf{};
  sample_ip().serialize(buf);
  buf[15] ^= 0x40;
  EXPECT_FALSE(Ipv4Header::parse(buf).has_value());
}

TEST(Ipv4Header, ParseRejectsTotalLengthBeyondBuffer) {
  std::array<std::uint8_t, 20> buf{};
  Ipv4Header h = sample_ip();
  h.total_length = 100;  // claims more than the 20-byte buffer
  h.serialize(buf);
  EXPECT_FALSE(Ipv4Header::parse(buf).has_value());
}

TEST(Ipv4Header, FragmentFieldsRoundTrip) {
  Ipv4Header h = sample_ip();
  h.total_length = 20;
  h.dont_fragment = false;
  h.more_fragments = true;
  h.fragment_offset = 0x1234 & 0x1fff;
  std::array<std::uint8_t, 20> buf{};
  h.serialize(buf);
  const auto parsed = Ipv4Header::parse(buf);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_FALSE(parsed->dont_fragment);
  EXPECT_TRUE(parsed->more_fragments);
  EXPECT_EQ(parsed->fragment_offset, 0x1234 & 0x1fff);
}

TcpHeader sample_tcp() {
  TcpHeader t;
  t.src_port = 40001;
  t.dst_port = 1521;
  t.seq = 0xdeadbeef;
  t.ack = 0x01020304;
  t.set(TcpFlag::kAck);
  t.set(TcpFlag::kPsh);
  t.window = 8192;
  return t;
}

TEST(TcpHeader, SerializeParseRoundTrip) {
  const TcpHeader t = sample_tcp();
  std::array<std::uint8_t, 20> buf{};
  EXPECT_EQ(t.serialize(buf), TcpHeader::kMinSize);
  const auto parsed = TcpHeader::parse(buf);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->src_port, t.src_port);
  EXPECT_EQ(parsed->dst_port, t.dst_port);
  EXPECT_EQ(parsed->seq, t.seq);
  EXPECT_EQ(parsed->ack, t.ack);
  EXPECT_EQ(parsed->flags, t.flags);
  EXPECT_EQ(parsed->window, t.window);
  EXPECT_TRUE(parsed->options.empty());
}

TEST(TcpHeader, OptionsRoundTrip) {
  TcpHeader t = sample_tcp();
  const std::array<std::uint8_t, 4> mss = {0x02, 0x04, 0x05, 0xb4};  // 1460
  t.options = mss;
  std::array<std::uint8_t, 24> buf{};
  EXPECT_EQ(t.serialize(buf), 24u);
  EXPECT_EQ(buf[12] >> 4, 6);  // data offset 6 words
  const auto parsed = TcpHeader::parse(buf);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(std::ranges::equal(parsed->options, mss));
  // serialize() copied the bytes out; parse() views them in place.
  EXPECT_EQ(parsed->options.data(), buf.data() + TcpHeader::kMinSize);
}

TEST(TcpHeader, ParseRejectsShortBuffer) {
  std::array<std::uint8_t, 19> buf{};
  EXPECT_FALSE(TcpHeader::parse(buf).has_value());
}

TEST(TcpHeader, ParseRejectsBadDataOffset) {
  std::array<std::uint8_t, 20> buf{};
  sample_tcp().serialize(buf);
  buf[12] = 0x40;  // data offset 4 < minimum 5
  EXPECT_FALSE(TcpHeader::parse(buf).has_value());
  buf[12] = 0x60;  // data offset 6 = 24 bytes > 20-byte buffer
  EXPECT_FALSE(TcpHeader::parse(buf).has_value());
}

TEST(TcpHeader, FlagHelpers) {
  TcpHeader t;
  EXPECT_FALSE(t.has(TcpFlag::kSyn));
  t.set(TcpFlag::kSyn);
  t.set(TcpFlag::kAck);
  EXPECT_TRUE(t.has(TcpFlag::kSyn));
  EXPECT_TRUE(t.has(TcpFlag::kAck));
  EXPECT_FALSE(t.has(TcpFlag::kFin));
  EXPECT_EQ(t.flags_to_string(), "SYN|ACK");
}

TEST(TcpHeader, FlagsToStringEmpty) {
  EXPECT_EQ(TcpHeader{}.flags_to_string(), "none");
}

TEST(TcpHeader, SizeIncludesOptions) {
  TcpHeader t;
  EXPECT_EQ(t.size(), 20u);
  std::array<std::uint8_t, 8> nops;
  nops.fill(1);
  t.options = nops;
  EXPECT_EQ(t.size(), 28u);
}

}  // namespace
}  // namespace tcpdemux::net

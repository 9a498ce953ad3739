// Truncation and garbling sweep over the wire parsers — the regression
// lock for the OOB audit of headers.cc / packet.cc: every
// prefix length of a valid frame, and seeded burst-damaged variants, must
// parse (i.e. be rejected or accepted) without reading out of bounds.
// ci/check.sh runs this suite under ASan/UBSan, which turns any OOB read
// into a hard failure; in a plain build the consistency assertions below
// still catch length-accounting mistakes.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "net/ethernet.h"
#include "net/frame_fault.h"
#include "net/headers.h"
#include "net/packet.h"
#include "tcp_option_wire.h"

namespace tcpdemux::net {
namespace {

std::vector<std::uint8_t> valid_wire(std::size_t payload) {
  return PacketBuilder()
      .from({Ipv4Addr(10, 1, 0, 2), 40001})
      .to({Ipv4Addr(10, 0, 0, 1), 1521})
      .seq(0x10000001)
      .ack_seq(0x20000002)
      .payload_size(payload)
      .build();
}

TEST(FrameFault, TruncatedAndPrefixHelpersAreExact) {
  const std::vector<std::uint8_t> frame = {1, 2, 3, 4, 5};
  EXPECT_EQ(truncated(frame, 0).size(), 0u);
  EXPECT_EQ(truncated(frame, 3), (std::vector<std::uint8_t>{1, 2, 3}));
  EXPECT_EQ(truncated(frame, 99), frame);  // clamped, not UB
  const auto prefixes = all_prefixes(frame);
  ASSERT_EQ(prefixes.size(), frame.size() + 1);
  for (std::size_t len = 0; len <= frame.size(); ++len) {
    EXPECT_EQ(prefixes[len].size(), len);
  }
  EXPECT_EQ(prefixes.back(), frame);
}

TEST(FrameFault, GarbleIsSeededAndBounded) {
  const auto wire = valid_wire(32);
  const auto a = garble_bytes(wire, 7, 4);
  const auto b = garble_bytes(wire, 7, 4);
  const auto c = garble_bytes(wire, 8, 4);
  EXPECT_EQ(a, b);  // reproducible
  EXPECT_NE(a, c);  // seed-sensitive
  EXPECT_EQ(a.size(), wire.size());
}

TEST(TruncationSweep, PacketParseAcceptsOnlyTheFullFrame) {
  for (const std::size_t payload : {0u, 1u, 7u, 64u, 512u}) {
    const auto wire = valid_wire(payload);
    const auto prefixes = all_prefixes(wire);
    for (std::size_t len = 0; len < prefixes.size(); ++len) {
      const auto parsed = Packet::parse(prefixes[len]);
      // The IP total-length field covers the whole datagram, so every
      // strict prefix must be rejected; only the intact frame parses.
      EXPECT_EQ(parsed.has_value(), len == wire.size())
          << "payload " << payload << " prefix " << len;
    }
  }
}

TEST(TruncationSweep, HeaderParsersRejectEveryShortPrefix) {
  const auto wire = valid_wire(64);
  for (const auto& prefix : all_prefixes(wire)) {
    // total_length covers the whole datagram, so the IP parser must
    // reject every strict prefix — a truncated buffer never yields a
    // header that promises more bytes than exist.
    EXPECT_EQ(Ipv4Header::parse(prefix).has_value(),
              prefix.size() == wire.size())
        << "prefix " << prefix.size();
    (void)TcpHeader::parse(prefix);  // must not crash at any length
  }
  // The TCP header alone (no IP framing) through its own sweep.
  const auto packet = Packet::parse(wire);
  ASSERT_TRUE(packet.has_value());
  std::vector<std::uint8_t> tcp_bytes(64);
  const std::size_t tcp_len = packet->tcp.serialize(tcp_bytes);
  tcp_bytes.resize(tcp_len);
  for (const auto& prefix : all_prefixes(tcp_bytes)) {
    const auto tcp = TcpHeader::parse(prefix);
    EXPECT_EQ(tcp.has_value(), prefix.size() >= tcp_len)
        << "prefix " << prefix.size();
  }
}

TEST(TruncationSweep, OptionBearingHeaderRejectsEveryShortPrefix) {
  // A 20-byte SYN option block takes the data offset to 40 bytes: the TCP
  // parser bounds the option view by that offset, so every prefix that
  // ends inside the options (or the fixed header) must be rejected, and
  // every prefix of the datagram must fail Packet::parse.
  const auto wire = test::with_tcp_options(valid_wire(16), test::kSynOptions);
  const auto packet = Packet::parse(wire);
  ASSERT_TRUE(packet.has_value());
  ASSERT_EQ(packet->tcp.size(), 40u);
  const auto segment = std::span(wire).subspan(Ipv4Header::kSize);
  for (std::size_t len = 0; len <= segment.size(); ++len) {
    const auto tcp = TcpHeader::parse(segment.first(len));
    EXPECT_EQ(tcp.has_value(), len >= 40u) << "prefix " << len;
    if (tcp.has_value()) {
      EXPECT_EQ(tcp->options.size(), 20u);
    }
  }
  for (const auto& prefix : all_prefixes(wire)) {
    EXPECT_EQ(Packet::parse(prefix).has_value(), prefix.size() == wire.size())
        << "prefix " << prefix.size();
  }
}

TEST(TruncationSweep, EthernetFramesRejectEveryShortPrefix) {
  const auto datagram = valid_wire(32);
  const auto frame =
      ethernet_encapsulate(MacAddr(std::array<std::uint8_t, 6>{2, 0, 0, 0, 0, 1}),
                           MacAddr(std::array<std::uint8_t, 6>{2, 0, 0, 0, 0, 2}),
                           datagram);
  ASSERT_TRUE(ethernet_decapsulate_ipv4(frame).has_value());
  for (const auto& prefix : all_prefixes(frame)) {
    const auto inner = ethernet_decapsulate_ipv4(prefix);
    if (prefix.size() < frame.size()) {
      // A truncated frame may still decapsulate (ethernet carries no
      // length field), but the inner datagram must then fail Packet::parse
      // rather than be misread.
      if (inner.has_value()) {
        EXPECT_FALSE(Packet::parse(*inner).has_value())
            << "prefix " << prefix.size();
      }
    }
  }
}

TEST(GarbleSweep, DamagedFramesNeverCrashAndNeverParse) {
  const auto wire = valid_wire(128);
  int accepted = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const auto damaged = garble_bytes(wire, seed, 4);
    if (Packet::parse(damaged).has_value()) ++accepted;
    (void)Ipv4Header::parse(damaged);
    (void)TcpHeader::parse(damaged);
  }
  // The Internet checksum guarantees detection of single-bit damage only:
  // multi-byte overwrites can cancel in the 16-bit one's-complement sum
  // (and a draw can rewrite a byte to its own value), so allow the rare
  // lucky survivor — what this sweep locks down is "no crash, no OOB" plus
  // rejection of essentially all damage.
  EXPECT_LE(accepted, 2);
}

TEST(GarbleSweep, GarbledTruncatedCombinationsSurviveParsing) {
  const auto wire = valid_wire(48);
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    const auto damaged = garble_bytes(wire, seed, 6);
    for (std::size_t len = 0; len <= damaged.size(); len += 3) {
      const auto frame = truncated(damaged, len);
      (void)Packet::parse(frame);
      (void)Ipv4Header::parse(frame);
      (void)TcpHeader::parse(frame);
    }
  }
  SUCCEED();
}

}  // namespace
}  // namespace tcpdemux::net

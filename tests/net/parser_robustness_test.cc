// Fuzz-style robustness: the wire parsers must never crash, loop, or
// accept structurally impossible input, no matter the bytes. Deterministic
// PRNG sweeps stand in for a fuzzer so the property runs in CI.
#include <gtest/gtest.h>

#include <random>
#include <sstream>
#include <vector>

#include "net/fragment.h"
#include "net/headers.h"
#include "net/packet.h"
#include "net/pcap.h"

namespace tcpdemux::net {
namespace {

std::vector<std::uint8_t> random_bytes(std::mt19937_64& rng,
                                       std::size_t max_len) {
  std::vector<std::uint8_t> bytes(rng() % (max_len + 1));
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng());
  return bytes;
}

TEST(ParserRobustness, PacketParseNeverCrashesOnNoise) {
  std::mt19937_64 rng(1);
  int accepted = 0;
  for (int i = 0; i < 20000; ++i) {
    const auto bytes = random_bytes(rng, 128);
    if (Packet::parse(bytes)) ++accepted;
  }
  // Random noise passing an IP checksum AND a TCP checksum is essentially
  // impossible.
  EXPECT_EQ(accepted, 0);
}

TEST(ParserRobustness, HeaderParsersNeverCrashOnNoise) {
  std::mt19937_64 rng(2);
  for (int i = 0; i < 20000; ++i) {
    const auto bytes = random_bytes(rng, 80);
    (void)Ipv4Header::parse(bytes);
    (void)TcpHeader::parse(bytes);
  }
  SUCCEED();
}

TEST(ParserRobustness, CorruptedRealPacketNeverParses) {
  // Flip every single bit of a valid packet: the checksums must catch
  // every corruption (single-bit errors are exactly what the Internet
  // checksum guarantees to detect).
  const auto wire = PacketBuilder()
                        .from({Ipv4Addr(10, 1, 0, 2), 40001})
                        .to({Ipv4Addr(10, 0, 0, 1), 1521})
                        .seq(1)
                        .ack_seq(2)
                        .payload_size(16)
                        .build();
  ASSERT_TRUE(Packet::parse(wire).has_value());
  for (std::size_t byte = 0; byte < wire.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      auto corrupted = wire;
      corrupted[byte] ^= static_cast<std::uint8_t>(1u << bit);
      const auto parsed = Packet::parse(corrupted);
      EXPECT_FALSE(parsed.has_value())
          << "bit " << bit << " of byte " << byte << " undetected";
    }
  }
}

TEST(ParserRobustness, ReassemblerSurvivesNoise) {
  std::mt19937_64 rng(4);
  Reassembler r;
  for (int i = 0; i < 5000; ++i) {
    const auto bytes = random_bytes(rng, 96);
    (void)r.offer(bytes, static_cast<double>(i) * 0.001);
  }
  SUCCEED();
}

TEST(ParserRobustness, PcapReaderSurvivesNoise) {
  std::mt19937_64 rng(5);
  for (int i = 0; i < 2000; ++i) {
    const auto bytes = random_bytes(rng, 200);
    std::stringstream buffer(
        std::string(bytes.begin(), bytes.end()));
    PcapReader reader(buffer);
    while (reader.ok()) {
      if (!reader.next()) break;
    }
  }
  SUCCEED();
}

class HeaderRoundTripSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(HeaderRoundTripSweep, PacketRoundTripsAtEveryPayloadSize) {
  const std::size_t payload = GetParam();
  const auto wire = PacketBuilder()
                        .from({Ipv4Addr(172, 16, 3, 4), 55555})
                        .to({Ipv4Addr(10, 0, 0, 1), 80})
                        .seq(0xffffffff)  // wraparound values included
                        .ack_seq(0)
                        .payload_size(payload)
                        .build();
  const auto packet = Packet::parse(wire);
  ASSERT_TRUE(packet.has_value());
  EXPECT_EQ(packet->payload.size(), payload);
  EXPECT_EQ(packet->tcp.seq, 0xffffffffu);
}

INSTANTIATE_TEST_SUITE_P(PayloadSizes, HeaderRoundTripSweep,
                         ::testing::Values(0, 1, 2, 3, 7, 8, 9, 63, 64, 65,
                                           511, 512, 1000, 1459, 1460));

}  // namespace
}  // namespace tcpdemux::net

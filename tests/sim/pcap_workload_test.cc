// The pcap importer reconstructs an event trace from wire packets; the
// cleanest check is a round trip against the packet synthesizer: a trace
// expanded to packets, written as a capture, and re-imported must produce
// the same event stream the original trace contained.
#include "sim/workloads/pcap_workload.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "core/demux_registry.h"
#include "net/packet.h"
#include "net/pcap.h"
#include "sim/replay.h"
#include "sim/trace.h"
#include "sim/trace_packets.h"
#include "sim/workloads/workload_spec.h"
#include "tcp_option_wire.h"

namespace tcpdemux::sim::workloads {
namespace {

std::array<std::uint64_t, 5> count_kinds(const Trace& trace) {
  std::array<std::uint64_t, 5> counts{};
  for (const TraceEvent& e : trace.events) {
    ++counts[static_cast<std::size_t>(e.kind)];
  }
  return counts;
}

std::stringstream capture_of(const Workload& w) {
  std::stringstream buffer;
  net::PcapWriter writer(buffer);
  for (const auto& p : synthesize_packets(w.trace, w.keys)) {
    writer.write(p.time, p.wire);
  }
  return buffer;
}

TEST(PcapWorkload, RoundTripPreservesTheEventStream) {
  // Trains keep every connection talking, so the imported capture must
  // rebuild all of them (a tpca user can sit out a short window).
  const Workload original = make_workload("trains:conns=4:len=16:duration=5");
  auto buffer = capture_of(original);

  PcapImportStats stats;
  const Workload imported = make_pcap_workload(buffer, {}, &stats);

  EXPECT_TRUE(stats.clean_eof);
  EXPECT_EQ(stats.unparseable, 0u);
  EXPECT_EQ(stats.other_direction, 0u);
  EXPECT_EQ(stats.server_port, 1521) << "busiest-port vote must find OLTP";
  EXPECT_EQ(imported.trace.connections, original.trace.connections);

  const auto want = count_kinds(original.trace);
  const auto got = count_kinds(imported.trace);
  EXPECT_EQ(got[0], want[0]) << "data arrivals";
  EXPECT_EQ(got[1], want[1]) << "pure acks";
  EXPECT_EQ(got[2], want[2]) << "server transmits";
}

TEST(PcapWorkload, ImportedWorkloadReplaysClean) {
  const Workload original = make_workload("tpca:users=20:duration=20");
  auto buffer = capture_of(original);
  const Workload imported = make_pcap_workload(buffer, {});
  const auto demuxer =
      core::make_demuxer(*core::parse_demux_spec("sequent:19:crc32"));
  const auto result = sim::replay_trace(imported, *demuxer);
  EXPECT_EQ(result.misses, 0u);
  EXPECT_GT(result.lookups, 0u);
}

TEST(PcapWorkload, ExplicitServerPortMatchesVote) {
  const Workload original = make_workload("tpca:users=10:duration=20");
  auto buffer1 = capture_of(original);
  auto buffer2 = capture_of(original);
  const Workload by_vote = make_pcap_workload(buffer1, {});
  PcapWorkloadParams explicit_port;
  explicit_port.server_port = 1521;
  const Workload by_param = make_pcap_workload(buffer2, explicit_port);
  EXPECT_EQ(by_vote.trace.events, by_param.trace.events);
  EXPECT_EQ(by_vote.keys, by_param.keys);
}

/// Two back-to-back connections to port 1521, each a handshake, one
/// request/response and a FIN exchange; with `timestamps`, every segment
/// after the SYNs carries the 12-byte timestamps option block, as on a
/// Linux link.
std::stringstream handshake_capture(bool timestamps) {
  std::stringstream buffer;
  net::PcapWriter writer(buffer);
  double t = 0.0;
  const auto put = [&](std::vector<std::uint8_t> wire, bool syn) {
    if (timestamps) {
      wire = net::test::with_tcp_options(
          wire, syn ? std::span<const std::uint8_t>(net::test::kSynOptions)
                    : std::span<const std::uint8_t>(
                          net::test::kTimestampOptions));
    }
    writer.write(t += 0.001, wire);
  };
  using net::TcpFlag;
  const net::PacketBuilder::Endpoint server{net::Ipv4Addr(10, 0, 0, 1), 1521};
  for (const std::uint16_t port : {40001, 40002}) {
    const net::PacketBuilder::Endpoint client{net::Ipv4Addr(10, 1, 0, 2),
                                              port};
    const auto c2s = [&] {
      return net::PacketBuilder().from(client).to(server);
    };
    const auto s2c = [&] {
      return net::PacketBuilder().from(server).to(client);
    };
    put(c2s().seq(100).flags(TcpFlag::kSyn).build(), true);
    put(s2c().seq(500).ack_seq(101).flags(TcpFlag::kSyn).build(), true);
    put(c2s().seq(101).ack_seq(501).build(), false);
    put(c2s().seq(101).ack_seq(501).flags(TcpFlag::kPsh).payload_size(32)
            .build(), false);
    put(s2c().seq(501).ack_seq(133).flags(TcpFlag::kPsh).payload_size(64)
            .build(), false);
    put(c2s().seq(133).ack_seq(565).build(), false);
    put(c2s().seq(133).ack_seq(565).flags(TcpFlag::kFin).build(), false);
    put(s2c().seq(565).ack_seq(134).flags(TcpFlag::kFin).build(), false);
    put(c2s().seq(134).ack_seq(566).build(), false);
  }
  return buffer;
}

TEST(PcapWorkload, OptionBearingSegmentsImportLikePlainOnes) {
  auto plain_capture = handshake_capture(false);
  auto option_capture = handshake_capture(true);
  // The option-bearing capture really carries options (data offset > 5).
  std::stringstream inspect(option_capture.str());
  const auto records = net::PcapReader(inspect).read_all();
  ASSERT_EQ(records.size(), 18u);
  const auto syn = net::Packet::parse(records[0].bytes);
  const auto ack = net::Packet::parse(records[2].bytes);
  ASSERT_TRUE(syn.has_value() && ack.has_value());
  EXPECT_EQ(syn->tcp.options.size(), 20u);
  EXPECT_EQ(ack->tcp.options.size(), 12u);

  PcapImportStats plain_stats;
  PcapImportStats option_stats;
  const Workload plain = make_pcap_workload(plain_capture, {}, &plain_stats);
  const Workload with_options =
      make_pcap_workload(option_capture, {}, &option_stats);
  EXPECT_EQ(plain_stats.unparseable, 0u);
  EXPECT_EQ(option_stats.unparseable, 0u);
  EXPECT_EQ(plain_stats.server_port, 1521);
  EXPECT_EQ(option_stats.server_port, plain_stats.server_port);
  EXPECT_EQ(plain.trace.connections, 2u);
  EXPECT_EQ(with_options.trace.connections, plain.trace.connections);
  EXPECT_EQ(with_options.keys, plain.keys);
  EXPECT_EQ(with_options.trace.events, plain.trace.events);

  const auto kinds = count_kinds(plain.trace);
  EXPECT_EQ(kinds[3], 2u) << "both SYNs open a connection";
  EXPECT_EQ(kinds[4], 2u) << "both FINs close one";
}

TEST(PcapWorkload, SalvagesTruncatedCaptures) {
  const Workload original = make_workload("tpca:users=10:duration=30");
  std::string bytes = capture_of(original).str();
  bytes.resize(bytes.size() - 20);  // tear the last record
  std::stringstream truncated(bytes);
  PcapImportStats stats;
  const Workload imported = make_pcap_workload(truncated, {}, &stats);
  EXPECT_FALSE(stats.clean_eof);
  EXPECT_GT(stats.records, 0u);
  EXPECT_GT(imported.trace.events.size(), 0u);
}

TEST(PcapWorkload, RejectsNonCaptureStreams) {
  std::stringstream garbage("definitely not a pcap file .............");
  EXPECT_THROW((void)make_pcap_workload(garbage, {}), std::invalid_argument);

  // A valid pcap header with zero records has no TCP traffic to import.
  std::stringstream empty;
  { net::PcapWriter writer(empty); }
  EXPECT_THROW((void)make_pcap_workload(empty, {}), std::invalid_argument);
}

TEST(PcapWorkload, MissingFileThrows) {
  PcapWorkloadParams params;
  params.path = "/nonexistent/definitely/missing.pcap";
  EXPECT_THROW((void)make_pcap_workload(params), std::invalid_argument);
}

}  // namespace
}  // namespace tcpdemux::sim::workloads

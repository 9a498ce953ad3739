// Replay a .pcap capture through a PCB-lookup algorithm and report the
// paper's metric on real traffic — the inverse of export_pcap.
//
//   ./demux_pcap capture.pcap [demux-spec] [server-port]
//
// Connections are learned from the capture itself: the first packet of
// each flow registers a PCB (keyed toward the receiver on `server-port`,
// default: the most common destination port in the file).
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <unordered_set>

#include "core/demux_registry.h"
#include "net/ethernet.h"
#include "net/packet.h"
#include "net/pcap.h"
#include "report/table.h"
#include "sim/stats.h"

int main(int argc, char** argv) {
  using namespace tcpdemux;
  if (argc < 2) {
    std::cerr << "usage: demux_pcap capture.pcap [demux-spec] "
                 "[server-port]\n";
    return EXIT_FAILURE;
  }
  const std::string path = argv[1];
  const std::string spec = argc > 2 ? argv[2] : "sequent:19:crc32";
  const auto config = core::parse_demux_spec(spec);
  if (!config) {
    std::cerr << "unknown demux spec '" << spec << "'\n";
    return EXIT_FAILURE;
  }

  // Pass 1: parse all packets; find the busiest destination port if none
  // was given (that endpoint plays "the server").
  std::ifstream file(path, std::ios::binary);
  if (!file) {
    std::cerr << "cannot open " << path << '\n';
    return EXIT_FAILURE;
  }
  net::PcapReader reader(file);
  if (!reader.ok()) {
    std::cerr << path << " is not a readable pcap file\n";
    return EXIT_FAILURE;
  }
  // A parsed Packet views its record's bytes, so the records outlive it.
  const std::vector<net::PcapRecord> records = reader.read_all();
  std::vector<net::Packet> packets;
  std::map<std::uint16_t, std::size_t> port_votes;
  std::size_t unparseable = 0;
  const bool ethernet =
      reader.link_type() == net::PcapWriter::kLinkTypeEthernet;
  for (const net::PcapRecord& record : records) {
    std::span<const std::uint8_t> datagram = record.bytes;
    if (ethernet) {
      const auto inner = net::ethernet_decapsulate_ipv4(record.bytes);
      if (!inner) {
        ++unparseable;  // ARP, IPv6, runt frames
        continue;
      }
      datagram = *inner;
    }
    if (auto packet = net::Packet::parse(datagram)) {
      ++port_votes[packet->tcp.dst_port];
      packets.push_back(std::move(*packet));
    } else {
      ++unparseable;
    }
  }
  if (packets.empty()) {
    std::cerr << "no parseable TCP/IPv4 packets in " << path << '\n';
    return EXIT_FAILURE;
  }
  std::uint16_t server_port = 0;
  if (argc > 3) {
    server_port = static_cast<std::uint16_t>(std::atoi(argv[3]));
  } else {
    std::size_t best = 0;
    for (const auto& [port, votes] : port_votes) {
      if (votes > best) {
        best = votes;
        server_port = port;
      }
    }
  }

  // Pass 2: replay the server-bound packets.
  const auto demuxer = core::make_demuxer(*config);
  std::unordered_set<net::FlowKey> known;
  sim::SampleStats stats;
  std::uint64_t hits = 0;
  std::uint64_t skipped = 0;
  for (const net::Packet& packet : packets) {
    if (packet.tcp.dst_port != server_port) {
      ++skipped;
      continue;
    }
    const net::FlowKey key = packet.receiver_flow_key();
    if (known.insert(key).second) {
      demuxer->insert(key);  // first sight of this flow: connection setup
    }
    const bool pure_ack = packet.payload.empty() &&
                          packet.tcp.has(net::TcpFlag::kAck) &&
                          !packet.tcp.has(net::TcpFlag::kSyn) &&
                          !packet.tcp.has(net::TcpFlag::kFin);
    const auto r = demuxer->lookup(key, pure_ack ? core::SegmentKind::kAck
                                                 : core::SegmentKind::kData);
    stats.add(r.examined);
    if (r.cache_hit) ++hits;
  }

  report::Table table({"metric", "value"});
  table.add_row({"capture", path});
  table.add_row({"algorithm", demuxer->name()});
  table.add_row({"server port", std::to_string(server_port)});
  table.add_row({"packets replayed", std::to_string(stats.count())});
  table.add_row({"other-direction/skipped", std::to_string(skipped)});
  table.add_row({"unparseable records", std::to_string(unparseable)});
  table.add_row({"connections", std::to_string(demuxer->size())});
  table.add_row({"mean PCBs examined", report::fmt(stats.mean(), 2)});
  table.add_row({"p50 / p99 / max",
                 std::to_string(stats.percentile(0.5)) + " / " +
                     std::to_string(stats.percentile(0.99)) + " / " +
                     std::to_string(stats.max())});
  table.add_row({"cache hit rate",
                 report::fmt(stats.count() == 0
                                 ? 0.0
                                 : 100.0 * static_cast<double>(hits) /
                                       static_cast<double>(stats.count()),
                             1) +
                     "%"});
  table.print(std::cout);
  return EXIT_SUCCESS;
}

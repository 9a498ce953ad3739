// Quickstart: the five-minute tour of the library's public API.
//
// 1. Build a demultiplexer (the Sequent hashed-chain algorithm).
// 2. Register connections (PCBs).
// 3. Parse a real TCP/IPv4 wire packet and demultiplex it.
// 4. Read the cost accounting — the paper's "PCBs examined" metric.
#include <cstdlib>
#include <iostream>

#include "core/demux_registry.h"
#include "net/packet.h"

int main() {
  using namespace tcpdemux;

  // 1. A demuxer: 19 hash chains (the Sequent installation default),
  //    CRC-32 flow hashing, per-chain last-found cache.
  const auto demuxer = core::make_demuxer(
      *core::parse_demux_spec("sequent:19:crc32"));

  // 2. Register a few connections as the server at 10.0.0.1:1521 sees
  //    them: local half = us, foreign half = the client.
  const net::Ipv4Addr server(10, 0, 0, 1);
  for (std::uint16_t client_port = 40001; client_port <= 40016;
       ++client_port) {
    const net::FlowKey key{server, 1521, net::Ipv4Addr(10, 1, 0, 2),
                           client_port};
    if (demuxer->insert(key) == nullptr) {
      std::cerr << "duplicate key " << key.to_string() << '\n';
      return EXIT_FAILURE;
    }
  }
  std::cout << "registered " << demuxer->size() << " connections in "
            << demuxer->name() << "\n\n";

  // 3. A packet arrives from 10.1.0.2:40007. Build real wire bytes (as a
  //    NIC would deliver) and parse them back — checksums and all.
  const auto wire = net::PacketBuilder()
                        .from({net::Ipv4Addr(10, 1, 0, 2), 40007})
                        .to({server, 1521})
                        .seq(1000)
                        .ack_seq(2000)
                        .payload_size(64)
                        .build();
  const auto packet = net::Packet::parse(wire);
  if (!packet) {
    std::cerr << "packet failed to parse\n";
    return EXIT_FAILURE;
  }

  // 4. Demultiplex. The result carries the PCB and the paper's figure of
  //    merit: how many PCBs were examined to find it.
  const auto result = demuxer->lookup(packet->receiver_flow_key(),
                                      core::SegmentKind::kData);
  if (result.pcb == nullptr) {
    std::cerr << "no PCB matched\n";
    return EXIT_FAILURE;
  }
  std::cout << "packet " << packet->receiver_flow_key().to_string()
            << "\n  -> PCB in state " << core::to_string(result.pcb->state)
            << ", examined "
            << result.examined << " PCB(s), cache_hit="
            << (result.cache_hit ? "yes" : "no") << '\n';

  // A repeat lookup on the same connection hits the chain cache: cost 1.
  const auto again = demuxer->lookup(packet->receiver_flow_key(),
                                     core::SegmentKind::kData);
  std::cout << "same connection again: examined " << again.examined
            << " PCB(s), cache_hit=" << (again.cache_hit ? "yes" : "no")
            << "\n\ncumulative: " << demuxer->stats().lookups
            << " lookups, mean " << demuxer->stats().mean_examined()
            << " PCBs examined, hit rate " << demuxer->stats().hit_rate()
            << '\n';
  return EXIT_SUCCESS;
}

// LanHost's ARP hold queue: datagrams wait behind an unresolved next hop
// and leave, in their original order, once its ARP reply arrives. Also its
// receive path: IPv4 fragments arriving as Ethernet frames are reassembled
// before the socket table sees them.
#include "tcp/lan_host.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "net/arp.h"
#include "net/ethernet.h"
#include "net/fragment.h"
#include "net/headers.h"
#include "net/packet.h"

namespace tcpdemux::tcp {
namespace {

using net::Ipv4Addr;

TEST(LanHostTest, HeldDatagramsLeaveInOriginalOrderPerNextHop) {
  const Ipv4Addr self(10, 0, 0, 1);
  LanHost host(self, core::DemuxConfig{core::Algorithm::kSequent},
               [] { return 0.0; });
  std::vector<std::uint8_t> sent;  // datagram tags, in send order
  std::vector<std::vector<std::uint8_t>> requests;  // ARP request frames
  host.set_transmit([&](std::vector<std::uint8_t> frame) {
    if (const auto ip = net::ethernet_decapsulate_ipv4(frame)) {
      sent.push_back(ip->front());
    } else {
      requests.push_back(std::move(frame));
    }
  });

  // Three neighbours, none resolved yet; datagram i is tagged i.
  const Ipv4Addr b(10, 0, 0, 2);
  const Ipv4Addr c(10, 0, 0, 3);
  const Ipv4Addr d(10, 0, 0, 4);
  const std::vector<Ipv4Addr> hops = {b, c, b, d, c, b, d};
  for (std::size_t i = 0; i < hops.size(); ++i) {
    host.send_ipv4(hops[i], std::vector<std::uint8_t>(20, std::uint8_t(i)));
  }
  EXPECT_TRUE(sent.empty());
  EXPECT_EQ(host.pending(), hops.size());
  EXPECT_EQ(requests.size(), hops.size());  // one request per held datagram

  // A neighbour answers the first request aimed at it.
  auto answer = [&](Ipv4Addr neighbour) {
    net::ArpTable arp(net::MacAddr::from_ipv4(neighbour.value()), neighbour);
    for (const auto& request : requests) {
      if (auto reply = arp.handle_frame(request, 0.0)) {
        host.receive_frame(*reply);
        return;
      }
    }
    ADD_FAILURE() << "no request for " << neighbour.to_string();
  };

  answer(c);
  EXPECT_EQ(sent, (std::vector<std::uint8_t>{1, 4}));
  EXPECT_EQ(host.pending(), 5u);
  answer(b);
  EXPECT_EQ(sent, (std::vector<std::uint8_t>{1, 4, 0, 2, 5}));
  EXPECT_EQ(host.pending(), 2u);
  answer(d);
  EXPECT_EQ(sent, (std::vector<std::uint8_t>{1, 4, 0, 2, 5, 3, 6}));
  EXPECT_EQ(host.pending(), 0u);

  // Resolved now: the next datagram goes straight out.
  host.send_ipv4(c, std::vector<std::uint8_t>(20, 7));
  EXPECT_EQ(sent.back(), 7);
  EXPECT_EQ(host.pending(), 0u);
}

// Spoofed-source SYNs: each draws a SYN-ACK toward a next hop that never
// answers ARP (an IPv4 frame teaches the ARP table nothing). The hold
// queue keeps the newest kMaxPending and counts every datagram it drops.
TEST(LanHostTest, HoldQueueIsBoundedAndDropsOldestFirst) {
  const Ipv4Addr self(10, 0, 0, 1);
  LanHost host(self, core::DemuxConfig{core::Algorithm::kSequent},
               [] { return 0.0; });
  std::size_t sent = 0;
  std::vector<std::vector<std::uint8_t>> requests;
  host.set_transmit([&](std::vector<std::uint8_t> frame) {
    if (net::ethernet_decapsulate_ipv4(frame)) {
      ++sent;
    } else {
      requests.push_back(std::move(frame));
    }
  });
  host.table().listen(self, 1521);

  constexpr std::size_t kExcess = 44;
  constexpr std::size_t kSources = LanHost::kMaxPending + kExcess;
  const auto source = [](std::size_t i) {
    return Ipv4Addr(0x0a800000U + static_cast<std::uint32_t>(i));
  };
  for (std::size_t i = 0; i < kSources; ++i) {
    const auto syn = net::PacketBuilder()
                         .from({source(i), 40000})
                         .to({self, 1521})
                         .seq(100)
                         .flags(net::TcpFlag::kSyn)
                         .build();
    host.receive_frame(net::ethernet_encapsulate(
        host.mac(), net::MacAddr::from_ipv4(source(i).value()), syn));
  }
  EXPECT_EQ(sent, 0u);
  EXPECT_EQ(host.pending(), LanHost::kMaxPending);
  EXPECT_EQ(host.pending_dropped(), kExcess);
  ASSERT_EQ(requests.size(), kSources);

  // The oldest SYN-ACKs were the ones dropped: resolving the first source
  // releases nothing, resolving the newest releases its reply.
  const auto answer = [&](std::size_t i) {
    net::ArpTable arp(net::MacAddr::from_ipv4(source(i).value()), source(i));
    auto reply = arp.handle_frame(requests[i], 0.0);
    ASSERT_TRUE(reply.has_value());
    host.receive_frame(*reply);
  };
  answer(0);
  EXPECT_EQ(sent, 0u);
  answer(kSources - 1);
  EXPECT_EQ(sent, 1u);
  EXPECT_EQ(host.pending(), LanHost::kMaxPending - 1);
}

// A query larger than the LAN's MTU crosses it as IPv4 fragments. The
// host reassembles them, so the segment is delivered whole and no
// fragment is mistaken for a malformed datagram.
TEST(LanHostTest, FragmentedSegmentIsReassembledThenDelivered) {
  const Ipv4Addr self(10, 0, 0, 1);
  const Ipv4Addr peer(10, 0, 0, 2);
  const net::MacAddr peer_mac = net::MacAddr::from_ipv4(peer.value());
  LanHost host(self, core::DemuxConfig{core::Algorithm::kSequent},
               [] { return 0.0; });
  std::vector<std::vector<std::uint8_t>> datagrams;  // IPv4 the host sent
  std::vector<std::vector<std::uint8_t>> requests;   // ARP request frames
  host.set_transmit([&](std::vector<std::uint8_t> frame) {
    if (const auto ip = net::ethernet_decapsulate_ipv4(frame)) {
      datagrams.emplace_back(ip->begin(), ip->end());
    } else {
      requests.push_back(std::move(frame));
    }
  });
  host.table().listen(self, 1521);
  const auto receive = [&](std::span<const std::uint8_t> datagram) {
    host.receive_frame(net::ethernet_encapsulate(host.mac(), peer_mac,
                                                 datagram));
  };

  // Handshake: the SYN-ACK waits behind an ARP request until the peer
  // answers it.
  receive(net::PacketBuilder()
              .from({peer, 40001})
              .to({self, 1521})
              .seq(100)
              .flags(net::TcpFlag::kSyn)
              .build());
  ASSERT_EQ(requests.size(), 1u);
  net::ArpTable peer_arp(peer_mac, peer);
  const auto arp_reply = peer_arp.handle_frame(requests[0], 0.0);
  ASSERT_TRUE(arp_reply.has_value());
  host.receive_frame(*arp_reply);
  ASSERT_EQ(datagrams.size(), 1u);
  const auto synack = net::Packet::parse(datagrams[0]);
  ASSERT_TRUE(synack.has_value());
  receive(net::PacketBuilder()
              .from({peer, 40001})
              .to({self, 1521})
              .seq(101)
              .ack_seq(synack->tcp.seq + 1)
              .build());

  // A 1200-byte query fragmented at MTU 400.
  auto query = net::PacketBuilder()
                   .from({peer, 40001})
                   .to({self, 1521})
                   .seq(101)
                   .ack_seq(synack->tcp.seq + 1)
                   .flags(net::TcpFlag::kPsh)
                   .payload_size(1200)
                   .build();
  auto header = net::Ipv4Header::parse(query);
  ASSERT_TRUE(header.has_value());
  header->dont_fragment = false;
  header->serialize(query);
  const auto fragments = net::fragment_packet(query, 400);
  ASSERT_GT(fragments.size(), 2u);
  const std::uint64_t delivered = host.table().counters().delivered;
  for (const auto& fragment : fragments) receive(fragment);

  EXPECT_EQ(host.table().counters().parse_errors, 0u);
  EXPECT_EQ(host.table().counters().delivered, delivered + 1);
  const core::Pcb* pcb =
      host.table().find(net::FlowKey{self, 1521, peer, 40001});
  ASSERT_NE(pcb, nullptr);
  EXPECT_EQ(pcb->bytes_in, 1200u);
}

}  // namespace
}  // namespace tcpdemux::tcp

// LanHost's ARP hold queue: datagrams wait behind an unresolved next hop
// and leave, in their original order, once its ARP reply arrives.
#include "tcp/lan_host.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "net/arp.h"
#include "net/ethernet.h"

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

}  // namespace
}  // namespace tcpdemux::tcp

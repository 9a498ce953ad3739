#include "sim/workloads/pcap_workload.h"

#include <algorithm>
#include <fstream>
#include <map>
#include <span>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/ethernet.h"
#include "net/packet.h"
#include "net/pcap.h"

namespace tcpdemux::sim::workloads {
namespace {

constexpr double kEpsilon = 1e-6;

/// A parsed record. `packet.payload` views the record's bytes, so a view
/// must not outlive the `records` vector it was parsed from.
struct TimedPacketView {
  double time = 0.0;
  net::Packet packet;
};

bool is_pure_ack(const net::TcpHeader& tcp, std::size_t payload_bytes) {
  return payload_bytes == 0 && tcp.has(net::TcpFlag::kAck) &&
         !tcp.has(net::TcpFlag::kSyn) && !tcp.has(net::TcpFlag::kFin) &&
         !tcp.has(net::TcpFlag::kRst);
}

}  // namespace

Workload make_pcap_workload(std::istream& is,
                            const PcapWorkloadParams& params,
                            PcapImportStats* stats) {
  net::PcapReader reader(is);
  if (!reader.ok()) {
    throw std::invalid_argument("pcap workload: not a readable pcap file");
  }
  const bool ethernet =
      reader.link_type() == net::PcapWriter::kLinkTypeEthernet;
  const std::vector<net::PcapRecord> records = reader.read_all();

  PcapImportStats local;
  PcapImportStats& st = stats != nullptr ? *stats : local;
  st.records = records.size();
  st.clean_eof = reader.ok();

  // Pass 1: parse everything; vote for the server port if none was given.
  // Declared after `records`, so it is destroyed first.
  std::vector<TimedPacketView> packets;
  packets.reserve(records.size());
  std::map<std::uint16_t, std::size_t> port_votes;
  for (const net::PcapRecord& record : records) {
    std::span<const std::uint8_t> datagram = record.bytes;
    if (ethernet) {
      const auto inner = net::ethernet_decapsulate_ipv4(record.bytes);
      if (!inner) {
        ++st.unparseable;
        continue;
      }
      datagram = *inner;
    }
    if (auto packet = net::Packet::parse(datagram)) {
      ++port_votes[packet->tcp.dst_port];
      packets.push_back(TimedPacketView{record.timestamp, *packet});
    } else {
      ++st.unparseable;
    }
  }
  if (packets.empty()) {
    throw std::invalid_argument(
        "pcap workload: no parseable TCP/IPv4 packets");
  }

  std::uint16_t server_port = params.server_port;
  if (server_port == 0) {
    std::size_t best = 0;
    for (const auto& [port, votes] : port_votes) {
      if (votes > best) {
        best = votes;
        server_port = port;
      }
    }
  }
  st.server_port = server_port;

  // Pass 2: reconstruct the event stream. One FlowInstance per lifetime of
  // a 4-tuple; a SYN on a close-marked instance finalizes it and starts a
  // new connection on the same key.
  struct FlowInstance {
    std::uint32_t conn = 0;
    double last_time = 0.0;
    bool wants_close = false;
  };

  Workload w;
  w.name = params.path.empty() ? std::string("pcap")
                               : "pcap:file=" + params.path;
  std::unordered_map<net::FlowKey, FlowInstance> active;
  const double t0 = packets.front().time;

  const auto finalize = [&](FlowInstance& flow, double close_time) {
    w.trace.events.push_back(TraceEvent{std::max(close_time,
                                                 flow.last_time + kEpsilon),
                                        flow.conn, TraceEventKind::kClose});
  };

  for (const TimedPacketView& tp : packets) {
    const double t = std::max(0.0, tp.time - t0);
    const net::Packet& p = tp.packet;
    const bool to_server = p.tcp.dst_port == server_port;
    const bool from_server = p.tcp.src_port == server_port;
    if (!to_server && !from_server) {
      ++st.other_direction;
      continue;
    }
    const net::FlowKey key = to_server
                                 ? p.receiver_flow_key()
                                 : p.receiver_flow_key().reversed();
    const bool syn_only =
        p.tcp.has(net::TcpFlag::kSyn) && !p.tcp.has(net::TcpFlag::kAck);

    auto it = active.find(key);
    if (to_server && syn_only && it != active.end() &&
        it->second.wants_close) {
      // Tuple reuse: the previous connection on this 4-tuple ended; close
      // it just before the new SYN and start fresh.
      finalize(it->second, t - kEpsilon);
      active.erase(it);
      it = active.end();
    }
    if (it == active.end()) {
      if (!to_server) continue;  // server-side talk on an unknown flow
      FlowInstance flow;
      flow.conn = static_cast<std::uint32_t>(w.keys.size());
      flow.last_time = t;
      w.keys.push_back(key);
      it = active.emplace(key, flow).first;
      if (syn_only) {
        // Connection establishes mid-trace; the SYN itself is the open.
        w.trace.events.push_back(
            TraceEvent{t, flow.conn, TraceEventKind::kOpen});
      }
      // A non-SYN first packet means the flow predates the capture: no
      // event needed, replay pre-establishes it.
    }
    FlowInstance& flow = it->second;
    flow.last_time = std::max(flow.last_time, t);

    if (to_server) {
      if (!syn_only) {
        w.trace.events.push_back(TraceEvent{
            t, flow.conn,
            is_pure_ack(p.tcp, p.payload.size())
                ? TraceEventKind::kArrivalAck
                : TraceEventKind::kArrivalData});
      }
    } else {
      w.trace.events.push_back(
          TraceEvent{t, flow.conn, TraceEventKind::kTransmit});
    }
    if (p.tcp.has(net::TcpFlag::kFin) || p.tcp.has(net::TcpFlag::kRst)) {
      flow.wants_close = true;
    }
  }

  // Flows that FIN'd and never spoke again close after their last packet.
  for (auto& [key, flow] : active) {
    if (flow.wants_close) finalize(flow, flow.last_time + kEpsilon);
  }

  w.trace.connections = static_cast<std::uint32_t>(w.keys.size());
  w.trace.sort_by_time();
  return w;
}

Workload make_pcap_workload(const PcapWorkloadParams& params,
                            PcapImportStats* stats) {
  std::ifstream file(params.path, std::ios::binary);
  if (!file) {
    throw std::invalid_argument("pcap workload: cannot open " + params.path);
  }
  return make_pcap_workload(file, params, stats);
}

}  // namespace tcpdemux::sim::workloads

#include "traffic.h"

#include <cmath>
#include <cstring>
#include <queue>
#include <stdexcept>
#include <unordered_set>

#include "net/byte_order.h"
#include "net/checksum.h"
#include "net/headers.h"
#include "sim/address_space.h"
#include "sim/bulk_workload.h"
#include "sim/rng.h"
#include "sim/tpca_workload.h"

namespace rxbench {
namespace {

namespace net = tcpdemux::net;
namespace sim = tcpdemux::sim;
using net::TcpFlag;

constexpr std::uint8_t kAck = static_cast<std::uint8_t>(TcpFlag::kAck);
constexpr std::uint8_t kSyn = static_cast<std::uint8_t>(TcpFlag::kSyn);
constexpr std::uint8_t kFin = static_cast<std::uint8_t>(TcpFlag::kFin);
constexpr std::uint8_t kPsh = static_cast<std::uint8_t>(TcpFlag::kPsh);

const net::Ipv4Addr kServerAddr(10, 0, 0, 1);

// Timers (accept drain, reap_closed, expire_embryonic) run every 10 ms of
// simulated time: about 1.4k churn frames, so the accept queue reaches a
// few hundred entries and reap_closed finds about a hundred victims.
constexpr double kTickSeconds = 0.010;

// TPC/A sizes (paper §2): 120 B query, 320 B response.
constexpr std::uint16_t kQueryBytes = 120;
constexpr std::uint16_t kResponseBytes = 320;
constexpr std::uint32_t kMss = 1460;

std::uint64_t mix(std::uint64_t h, std::uint64_t v) noexcept {
  h = (h ^ v) * 0x9e3779b97f4a7c15ULL;
  return h ^ (h >> 31);
}

/// Fires once per kTickSeconds of simulated time.
class Ticker {
 public:
  bool due(double t) noexcept {
    if (t < next_) return false;
    next_ = (std::floor(t / kTickSeconds) + 1.0) * kTickSeconds;
    return true;
  }

 private:
  double next_ = 0.0;
};

std::vector<FlowKey> client_keys(std::uint32_t clients, std::uint64_t seed) {
  sim::AddressSpaceParams p;
  p.clients = clients;
  p.server_addr = kServerAddr;
  p.server_port = Traffic::kServerPort;
  p.pattern = sim::ClientPattern::kRandom;
  p.seed = seed;
  return sim::make_client_keys(p);
}

// ---------------------------------------------------------------------------
// oltp: ~1M established connections, TPC/A arrival order.
//
// The arrival order of queries and response ACKs comes from
// sim::generate_tpca_trace over the whole population. A trace of
// kTraceSeconds holds about 2M arrivals; the stream cycles through it,
// each pass kTraceSeconds later in simulated time. Sequence numbers keep
// advancing across passes, so no frame repeats.
class Oltp final : public Traffic {
 public:
  static constexpr std::uint32_t kUsers = 1'000'000;
  static constexpr double kTraceSeconds = 10.0;

  explicit Oltp(std::uint64_t seed) : rng_(seed ^ 0x01f7) {
    const auto keys = client_keys(kUsers, seed);
    conns_.reserve(keys.size());
    for (const FlowKey& k : keys) conns_.push_back(Conn{k, 0, 0});

    sim::TpcaWorkloadParams p;
    p.users = kUsers;
    p.duration = kTraceSeconds;
    p.warmup = 20.0;
    p.seed = seed;
    const sim::Trace trace = sim::generate_tpca_trace(p);
    for (const sim::TraceEvent& e : trace.events) {
      if (e.kind != sim::TraceEventKind::kArrivalData &&
          e.kind != sim::TraceEventKind::kArrivalAck) {
        continue;
      }
      const bool is_ack = e.kind == sim::TraceEventKind::kArrivalAck;
      arrivals_.push_back(e.conn << 1 | (is_ack ? 1u : 0u));
      times_.push_back(static_cast<float>(e.time));
    }
    if (arrivals_.empty()) throw std::runtime_error("oltp: empty trace");
  }

  void setup(FrameBatch& out) override {
    put_handshakes(out, conns_, rng_);
  }

  void next(FrameBatch& out, std::size_t frames) override {
    for (std::size_t i = 0; i < frames; ++i) {
      const std::uint32_t a = arrivals_[pos_];
      const double t = base_ + times_[pos_];
      if (++pos_ == arrivals_.size()) {
        pos_ = 0;
        base_ += kTraceSeconds;
      }
      Conn& c = conns_[a >> 1];
      FrameMeta m;
      m.time = t;
      m.tick = ticker_.due(t);
      if ((a & 1) != 0) {  // the client's pure ACK of the response
        m.kind = SegmentKind::kAck;
        m.rcv_nxt = c.cli_seq;
        put(out, c, kAck, c.cli_seq, 0, m);
      } else {  // a query; the server answers it
        m.rcv_nxt = c.cli_seq + kQueryBytes;
        m.goodput = kQueryBytes;
        m.action = Action::kRespond;
        m.response = kResponseBytes;
        put(out, c, kAck | kPsh, c.cli_seq, kQueryBytes, m);
        c.cli_seq += kQueryBytes;
        c.srv_seq += kResponseBytes;
      }
    }
  }

  std::size_t live_connections() const override { return conns_.size(); }
  std::size_t population() const override { return conns_.size(); }

 private:
  sim::Rng rng_;
  std::vector<Conn> conns_;
  std::vector<std::uint32_t> arrivals_;  ///< conn << 1 | is_ack
  std::vector<float> times_;             ///< within one pass
  std::size_t pos_ = 0;
  double base_ = 0.0;
  Ticker ticker_;
};

// ---------------------------------------------------------------------------
// bulk: 32 flows of MSS segments in packet trains beside ~100k idle PCBs.
//
// Train geometry (lengths, spacing, gaps, interleaving of the 32 flows)
// comes from sim::generate_bulk_trace; the stream cycles through it.
class Bulk final : public Traffic {
 public:
  static constexpr std::uint32_t kIdle = 100'000;
  static constexpr std::uint32_t kFlows = 32;
  static constexpr double kTraceSeconds = 2.0;

  explicit Bulk(std::uint64_t seed) : rng_(seed ^ 0xb01c) {
    const auto keys = client_keys(kIdle + kFlows, seed);
    conns_.reserve(keys.size());
    for (const FlowKey& k : keys) conns_.push_back(Conn{k, 0, 0});

    sim::BulkWorkloadParams p;
    p.connections = kFlows;
    p.train_length = 16;
    p.segment_spacing = 12e-6;  // MSS frames back to back at 1 Gb/s
    p.train_gap_mean = 0.004;
    p.duration = kTraceSeconds;
    p.seed = seed;
    const sim::Trace trace = sim::generate_bulk_trace(p);
    for (const sim::TraceEvent& e : trace.events) {
      if (e.kind != sim::TraceEventKind::kArrivalData) continue;
      // Flows are spread over the population rather than taking its
      // first 32 keys, so they do not share the oldest chains.
      arrivals_.push_back(e.conn * (kIdle / kFlows));
      times_.push_back(static_cast<float>(e.time));
    }
    if (arrivals_.empty()) throw std::runtime_error("bulk: empty trace");
  }

  void setup(FrameBatch& out) override {
    put_handshakes(out, conns_, rng_);
  }

  void next(FrameBatch& out, std::size_t frames) override {
    for (std::size_t i = 0; i < frames; ++i) {
      Conn& c = conns_[arrivals_[pos_]];
      const double t = base_ + times_[pos_];
      if (++pos_ == arrivals_.size()) {
        pos_ = 0;
        base_ += kTraceSeconds;
      }
      FrameMeta m;
      m.time = t;
      m.tick = ticker_.due(t);
      m.rcv_nxt = c.cli_seq + kMss;
      m.goodput = kMss;
      put(out, c, kAck | kPsh, c.cli_seq, kMss, m);
      c.cli_seq += kMss;
    }
  }

  std::size_t live_connections() const override { return conns_.size(); }
  std::size_t population() const override { return conns_.size(); }

 private:
  sim::Rng rng_;
  std::vector<Conn> conns_;
  std::vector<std::uint32_t> arrivals_;  ///< index into conns_
  std::vector<float> times_;
  std::size_t pos_ = 0;
  double base_ = 0.0;
  Ticker ticker_;
};

// ---------------------------------------------------------------------------
// churn: short sessions with ephemeral-port reuse.
//
// The session model of sim::workloads::generate_churn_workload (closed-loop
// users, geometric session length, one sim::EphemeralPortAllocator per
// client host over a 16-port range so ports wrap), run as a discrete-event
// stream instead of a materialised trace: a trace covering a multi-second
// closed loop at 50k users would not fit in memory. Each session is
//   SYN -> handshake ACK -> (query, ACK of response) x n -> FIN
//   -> the server's close -> final ACK,
// and the next session of the same user starts after a think time.
// A recycled port comes back only after the other 15 ports of its host,
// i.e. after at least 15 sessions of >= 50 ms, so its previous PCB has
// long been reaped (timers run every 10 ms).
class Churn final : public Traffic {
 public:
  static constexpr std::uint32_t kUsers = 50'000;
  static constexpr double kThinkMean = 1.0;
  static constexpr double kResponseTime = 0.05;
  static constexpr double kRtt = 0.001;
  static constexpr double kSessionTxnsMean = 4.0;
  static constexpr std::uint16_t kPortBase = 40000;
  static constexpr std::uint16_t kPortRange = 16;

  explicit Churn(std::uint64_t seed) : rng_(seed ^ 0xc4a2) {
    // One client host per user, at distinct random addresses drawn like
    // sim::make_client_keys' kRandom pattern.
    std::unordered_set<std::uint32_t> seen;
    users_.reserve(kUsers);
    while (users_.size() < kUsers) {
      const auto addr = static_cast<std::uint32_t>(
                            rng_.uniform_index(0xe0000000u)) |
                        0x0a000000u;
      if (seen.insert(addr).second) users_.emplace_back(net::Ipv4Addr(addr));
    }
  }

  void setup(FrameBatch& out) override {
    std::vector<Conn> conns;
    conns.reserve(users_.size());
    for (User& u : users_) {
      u.port = u.ports.acquire();
      conns.push_back(Conn{key_of(u), 0, 0});
    }
    put_handshakes(out, conns, rng_);
    for (std::uint32_t i = 0; i < users_.size(); ++i) {
      users_[i].conn = conns[i];
      users_[i].txns_left = session_length();
      schedule(rng_.exponential(kThinkMean), i, Step::kQuery);
    }
    live_ = users_.size();
  }

  void next(FrameBatch& out, std::size_t frames) override {
    for (std::size_t i = 0; i < frames; ++i) {
      const Event e = events_.top();
      events_.pop();
      step(out, e);
    }
  }

  std::size_t live_connections() const override { return live_; }
  std::size_t population() const override { return users_.size(); }

 private:
  enum class Step : std::uint8_t {
    kSyn,
    kHandshakeAck,
    kQuery,
    kResponseAck,
    kFin,
    kFinalAck,
  };
  struct Event {
    double time;
    std::uint64_t order;  ///< tie-break: FIFO among equal times
    std::uint32_t user;
    Step step;
    bool operator>(const Event& o) const noexcept {
      return time != o.time ? time > o.time : order > o.order;
    }
  };
  struct User {
    explicit User(net::Ipv4Addr a)
        : addr(a),
          ports(kPortBase,
                static_cast<std::uint16_t>(kPortBase + kPortRange - 1)) {}
    net::Ipv4Addr addr;
    sim::EphemeralPortAllocator ports;
    std::uint16_t port = 0;
    std::uint32_t txns_left = 0;
    Conn conn;
  };

  FlowKey key_of(const User& u) const {
    return FlowKey{kServerAddr, kServerPort, u.addr, u.port};
  }

  std::uint32_t session_length() {
    std::uint32_t n = 1;
    while (rng_.uniform() >= 1.0 / kSessionTxnsMean) ++n;
    return n;
  }

  void schedule(double t, std::uint32_t user, Step s) {
    events_.push(Event{t, order_++, user, s});
  }

  void step(FrameBatch& out, const Event& e) {
    User& u = users_[e.user];
    Conn& c = u.conn;
    const double t = e.time;
    const bool tick = ticker_.due(t);
    FrameMeta m;
    m.time = t;
    m.tick = tick;
    switch (e.step) {
      case Step::kSyn:
        u.port = u.ports.acquire();
        c = Conn{key_of(u), 0, 0};
        put_syn(out, c, t, tick, rng_);
        schedule(t + kRtt, e.user, Step::kHandshakeAck);
        return;
      case Step::kHandshakeAck:
        put_handshake_ack(out, c, t, tick);
        ++live_;
        u.txns_left = session_length();
        schedule(t + kRtt / 2, e.user, Step::kQuery);
        return;
      case Step::kQuery:
        m.rcv_nxt = c.cli_seq + kQueryBytes;
        m.goodput = kQueryBytes;
        m.action = Action::kRespond;
        m.response = kResponseBytes;
        put(out, c, kAck | kPsh, c.cli_seq, kQueryBytes, m);
        c.cli_seq += kQueryBytes;
        c.srv_seq += kResponseBytes;
        schedule(t + kResponseTime, e.user, Step::kResponseAck);
        return;
      case Step::kResponseAck:
        m.kind = SegmentKind::kAck;
        m.rcv_nxt = c.cli_seq;
        put(out, c, kAck, c.cli_seq, 0, m);
        if (--u.txns_left == 0) {
          schedule(t + 1e-6, e.user, Step::kFin);
        } else {
          schedule(t + rng_.exponential(kThinkMean), e.user, Step::kQuery);
        }
        return;
      case Step::kFin:  // server: CLOSE_WAIT, then the application closes
        m.state = TcpState::kCloseWait;
        m.rcv_nxt = c.cli_seq + 1;
        m.action = Action::kClose;
        put(out, c, kFin | kAck, c.cli_seq, 0, m);
        c.cli_seq += 1;
        c.srv_seq += 1;  // the server's FIN
        schedule(t + kRtt, e.user, Step::kFinalAck);
        return;
      case Step::kFinalAck:  // LAST_ACK -> CLOSED; reaped at the next tick
        m.kind = SegmentKind::kAck;
        m.state = TcpState::kClosed;
        m.rcv_nxt = c.cli_seq;
        put(out, c, kAck, c.cli_seq, 0, m);
        --live_;
        u.ports.release(u.port);
        schedule(t + rng_.exponential(kThinkMean), e.user, Step::kSyn);
        return;
    }
  }

  sim::Rng rng_;
  std::vector<User> users_;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> events_;
  std::uint64_t order_ = 0;
  std::size_t live_ = 0;
  Ticker ticker_;
};

}  // namespace

void Traffic::put(FrameBatch& out, const Conn& conn, std::uint8_t flags,
                  std::uint32_t seq, std::uint32_t payload_len,
                  FrameMeta meta) {
  net::Ipv4Header ip;
  ip.src = conn.key.foreign_addr;
  ip.dst = conn.key.local_addr;
  ip.total_length = static_cast<std::uint16_t>(
      net::Ipv4Header::kSize + net::TcpHeader::kMinSize + payload_len);
  ip.identification = static_cast<std::uint16_t>(seq);
  net::TcpHeader tcp;
  tcp.src_port = conn.key.foreign_port;
  tcp.dst_port = conn.key.local_port;
  tcp.seq = seq;
  tcp.ack = (flags & kAck) != 0 ? conn.srv_seq : 0;
  tcp.flags = flags;

  const std::size_t offset = out.bytes.size();
  out.bytes.resize(offset + ip.total_length);
  std::uint8_t* p = out.bytes.data() + offset;
  ip.serialize({p, net::Ipv4Header::kSize});
  std::uint8_t* segment = p + net::Ipv4Header::kSize;
  tcp.serialize({segment, net::TcpHeader::kMinSize});
  std::memset(segment + net::TcpHeader::kMinSize,
              static_cast<int>(seq & 0xff), payload_len);
  const std::uint16_t sum = net::tcp_checksum(
      ip.src, ip.dst, {segment, net::TcpHeader::kMinSize + payload_len});
  net::store_be16(segment + 16, sum);

  meta.key = conn.key;
  meta.offset = static_cast<std::uint32_t>(offset);
  meta.length = ip.total_length;

  // The header's TCP checksum covers the payload, so 40 bytes suffice.
  std::uint64_t word = 0;
  for (std::size_t i = 0; i < 40; i += 8) {
    std::memcpy(&word, p + i, 8);
    fingerprint_ = mix(fingerprint_, word);
  }
  fingerprint_ = mix(fingerprint_,
                     static_cast<std::uint64_t>(meta.status) |
                         static_cast<std::uint64_t>(meta.state) << 8 |
                         static_cast<std::uint64_t>(meta.kind) << 16 |
                         static_cast<std::uint64_t>(meta.action) << 24 |
                         static_cast<std::uint64_t>(meta.tick) << 32 |
                         static_cast<std::uint64_t>(meta.response) << 40);
  fingerprint_ = mix(fingerprint_, static_cast<std::uint64_t>(meta.rcv_nxt) |
                                       static_cast<std::uint64_t>(
                                           meta.goodput) << 32);
  std::uint64_t time_bits = 0;
  std::memcpy(&time_bits, &meta.time, sizeof time_bits);
  fingerprint_ = mix(fingerprint_, time_bits);
  out.frames.push_back(meta);
}

void Traffic::put_syn(FrameBatch& out, Conn& conn, double time, bool tick,
                      sim::Rng& rng) {
  const auto isn = static_cast<std::uint32_t>(rng.uniform_index(1ULL << 32));
  iss_ += 64000;
  conn.cli_seq = isn + 1;
  conn.srv_seq = iss_ + 1;
  FrameMeta m;
  m.time = time;
  m.tick = tick;
  m.status = Delivery::kSynCached;
  put(out, conn, kSyn, isn, 0, m);
}

void Traffic::put_handshake_ack(FrameBatch& out, const Conn& conn,
                                double time, bool tick) {
  FrameMeta m;
  m.time = time;
  m.tick = tick;
  m.status = Delivery::kNewConnection;
  m.kind = SegmentKind::kAck;
  m.rcv_nxt = conn.cli_seq;
  put(out, conn, kAck, conn.cli_seq, 0, m);
}

void Traffic::put_handshakes(FrameBatch& out, std::span<Conn> conns,
                             sim::Rng& rng) {
  constexpr std::size_t kGroup = 8;
  for (std::size_t g = 0; g < conns.size(); g += kGroup) {
    const std::size_t end = std::min(conns.size(), g + kGroup);
    for (std::size_t i = g; i < end; ++i) {
      put_syn(out, conns[i], 0.0, i == g, rng);
    }
    for (std::size_t i = g; i < end; ++i) {
      put_handshake_ack(out, conns[i], 0.0, false);
    }
  }
}

std::unique_ptr<Traffic> Traffic::make(std::string_view name,
                                       std::uint64_t seed) {
  if (name == "oltp") return std::make_unique<Oltp>(seed);
  if (name == "bulk") return std::make_unique<Bulk>(seed);
  if (name == "churn") return std::make_unique<Churn>(seed);
  return nullptr;
}

}  // namespace rxbench

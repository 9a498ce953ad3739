// WorkloadSpec: one grammar for every scenario generator, mirroring the
// demuxer registry's spec strings so a scenario is fully named by a pair
// of strings ("zipf:flows=200000:s=1.1" x "dynamic:4096:crc32").
//
// Grammar:  <kind>[:<token>]...   token := <key>=<value> | <flag>
//
//   tpca    [users=N] [duration=S] [response=R] [rtt=D] [churn=M] [seed=X]
//           the paper's TPC/A population; churn=M enables geometric
//           session lengths of mean M transactions (fresh port each time)
//   zipf    [flows=N] [s=E] [arrivals=N] [duration=S] [ack_every=K]
//           [seed=X]       heavy-tailed flow popularity (Zipf exponent s)
//   trains  [conns=N] [len=L] [spacing=S] [gap=G] [ack_every=K]
//           [duration=S] [seed=X]    packet-train bulk transfer [JR86]
//   churn   [users=N] [session=M] [think=S] [ports=W] [duration=S]
//           [seed=X] [ephemeral|fresh]
//           short-lived connections; `ephemeral` (default) recycles each
//           host's W-port range so 4-tuples genuinely repeat, `fresh`
//           never reuses a port (the old dishonest behaviour, kept as an
//           A/B control)
//   natpop  [clients=N] [nats=G] [session=M] [think=S] [duration=S]
//           [seed=X]    client population behind G NAT gateways
//   mix     flood=P% [start=F] [base=<kind>] [seed=X] [...base tokens]
//           P percent flood arrivals blended over the base workload; all
//           unrecognized tokens forward to the base spec
//   pcap    file=PATH [port=N]    import a capture (see pcap_workload.h)
//
// Numbers accept plain integers/doubles; `flood` accepts a trailing '%'.
// Unknown kinds or malformed tokens fail parse_workload_spec (nullopt);
// semantically bad values make make_workload throw std::invalid_argument.
#ifndef TCPDEMUX_SIM_WORKLOADS_WORKLOAD_SPEC_H_
#define TCPDEMUX_SIM_WORKLOADS_WORKLOAD_SPEC_H_

#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/workloads/workload.h"

namespace tcpdemux::sim::workloads {

struct WorkloadSpec {
  std::string kind;
  /// key=value tokens keep their value; bare flags carry an empty value.
  std::vector<std::pair<std::string, std::string>> params;

  /// The value of `key`, or nullopt. Flags test via has().
  [[nodiscard]] std::optional<std::string_view> get(
      std::string_view key) const;
  [[nodiscard]] bool has(std::string_view key) const;
};

/// Splits "<kind>:<tok>:<tok>..." — purely lexical; nullopt on an empty
/// kind, an empty token, or a token with an empty key ("=x").
[[nodiscard]] std::optional<WorkloadSpec> parse_workload_spec(
    std::string_view spec);

/// Known generator kinds, in matrix display order.
[[nodiscard]] std::vector<std::string_view> workload_kinds();

/// Instantiates the generator named by the spec. Throws
/// std::invalid_argument on unknown kinds, unknown/duplicate tokens, or
/// out-of-range values. Deterministic: equal spec strings produce
/// identical workloads.
[[nodiscard]] Workload make_workload(const WorkloadSpec& spec);

/// Parses and instantiates in one step (throws on parse failure too).
[[nodiscard]] Workload make_workload(std::string_view spec);

}  // namespace tcpdemux::sim::workloads

#endif  // TCPDEMUX_SIM_WORKLOADS_WORKLOAD_SPEC_H_

// Collision-flood adversarial workload: an attacker who knows (or can
// probe) the victim's demultiplexer crafts 4-tuples that all land in one
// hash chain, collapsing the paper's O(N/2H) lookup back to
// the BSD linear scan — the hash-flooding DoS of Crosby & Wallach (2003)
// aimed at a PCB table.
//
// Two crafting strengths, matching the two defense tiers in net/hashers.h:
//
//   * craft_colliding_keys targets a small *index* range (a chain number)
//     by brute force against any caller-supplied index function. This is
//     the attacker who observed which chain is slow.
//     A seeded hasher defeats the precomputation: the index function
//     changes when the seed does.
//
//   * craft_xorfold_collisions solves the xor_fold hash in closed form,
//     producing keys with identical full 32-bit hashes. These collide
//     under ANY table size, growth policy, and — because the legacy
//     hashers' seeding is a post-mix of the 32-bit value — under every
//     seed of the xor_fold family. Only a keyed PRF (siphash@seed)
//     scatters them.
//
// generate_collision_flood embeds the crafted keys in a benign TPC/A
// population: the attack connections open mid-trace (a SYN flood arriving
// at a running server) and then receive traffic, so replay measures the
// benign users' collateral damage as well as the attacker's own cost.
#ifndef TCPDEMUX_SIM_COLLISION_FLOOD_H_
#define TCPDEMUX_SIM_COLLISION_FLOOD_H_

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "net/flow_key.h"
#include "net/ip_addr.h"
#include "sim/address_space.h"
#include "sim/tpca_workload.h"
#include "sim/trace.h"

namespace tcpdemux::sim {

struct CollisionFloodParams {
  std::uint32_t count = 1024;  ///< crafted keys wanted
  net::Ipv4Addr server_addr = net::Ipv4Addr(10, 0, 0, 1);
  std::uint16_t server_port = 1521;
};

/// Brute-forces `count` distinct fully-specified keys (local = server)
/// whose `index_of` equals `target`. `index_of` is the victim structure's
/// placement function — e.g. chain_of for a chained table. The search walks foreign ports then
/// foreign addresses, so cost is ~count * index_range trials.
[[nodiscard]] std::vector<net::FlowKey> craft_colliding_keys(
    const CollisionFloodParams& params,
    const std::function<std::uint32_t(const net::FlowKey&)>& index_of,
    std::uint32_t target);

/// Closed-form xor_fold break: `count` keys (count <= 65535, one per
/// foreign port) whose full 32-bit xor_fold hash equals `target_hash`.
[[nodiscard]] std::vector<net::FlowKey> craft_xorfold_collisions(
    const CollisionFloodParams& params, std::uint32_t target_hash);

struct CollisionFloodTraceParams {
  TpcaWorkloadParams benign;             ///< background population
  AddressSpaceParams benign_addresses;   ///< its client keys
  double attack_start = 10.0;     ///< first attack open, seconds
  double attack_duration = 60.0;  ///< opens spread uniformly over this
  std::uint32_t arrivals_per_conn = 8;  ///< data arrivals per attack conn
};

struct CollisionFloodResult {
  Trace trace;                     ///< benign + attack, time-merged
  std::vector<net::FlowKey> keys;  ///< one per trace connection
  std::uint32_t benign_conns = 0;  ///< keys[0..benign_conns) are benign
};

/// Builds the mixed workload: the benign TPC/A trace plus one attack
/// connection per crafted key, each opening mid-trace (kOpen); every
/// attack connection then receives `arrivals_per_conn` data segments
/// after the full flood is established, so the lookups measure the
/// polluted table rather than each PCB's moment at its chain head.
[[nodiscard]] CollisionFloodResult generate_collision_flood(
    const CollisionFloodTraceParams& params,
    std::span<const net::FlowKey> attack_keys);

}  // namespace tcpdemux::sim

#endif  // TCPDEMUX_SIM_COLLISION_FLOOD_H_

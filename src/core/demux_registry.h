// Factory for demuxer instances, used by examples, benches, and the replay
// harness to instantiate algorithms uniformly.
#ifndef TCPDEMUX_CORE_DEMUX_REGISTRY_H_
#define TCPDEMUX_CORE_DEMUX_REGISTRY_H_

#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "core/demuxer.h"
#include "net/hashers.h"

namespace tcpdemux::core {

enum class Algorithm : std::uint8_t {
  kBsd,           ///< §3.1 linear list + 1-entry cache
  kMtf,           ///< §3.2 Crowcroft move-to-front
  kSrCache,       ///< §3.3 Partridge/Pink send/receive cache
  kSequent,       ///< §3.4 hash chains + per-chain cache
  kHashedMtf,     ///< §3.5 rejected combination
  kConnectionId,  ///< §3.5 protocol-extension strawman
  kDynamic,       ///< self-resizing hash chains (post-paper extension)
  kRcu,           ///< lock-free-read hash chains + epoch reclaim (RCU)
  kSharded,       ///< N RSS-steered shards, each wrapping an inner backend
};

struct DemuxConfig {
  Algorithm algorithm = Algorithm::kSequent;
  std::uint32_t chains = 19;  ///< Sequent / hashed-MTF only
  /// Seed 0 = unkeyed (the paper-fidelity default); hashed_mtf reads only
  /// `.kind`.
  net::HashSpec hasher = net::HasherKind::kXorFold;
  bool per_chain_cache = true;      ///< Sequent only
  std::size_t id_capacity = 65536;  ///< connection-ID only
  // Adversarial-resilience knobs (see DESIGN.md "Adversarial resilience").
  /// sequent: seed-rotating rehash
  bool rehash_on_overload = false;
  /// sequent/dynamic: 0 = unbounded
  std::size_t max_pcbs = 0;
  // Sharded receive path (algorithm == kSharded only; see DESIGN.md
  // "Sharded receive path").
  std::uint32_t shards = 0;   ///< shard count (>= 1 when kSharded)
  std::string inner_spec{};   ///< per-shard backend spec, re-parsed at build
};

/// Instantiates the configured demuxer.
[[nodiscard]] std::unique_ptr<Demuxer> make_demuxer(const DemuxConfig& config);

/// Parses a spec string:
///   "bsd" | "mtf" | "srcache"
///   "connection_id[:capacity]"               (negotiated ID-space size)
///   "sequent[:chains[:hasher][:opts...]]"   e.g. "sequent:101:crc32"
///   "hashed_mtf[:chains[:hasher]]"
///   "dynamic[:initial_chains[:hasher][:opts...]]"
///   "rcu[:chains[:hasher][:opts...]]"        (lock-free-read Sequent)
///   "sharded:N:<inner-spec>"                 (N RSS-steered shards, each an
///                                            instance of the inner spec —
///                                            any spec above; sharded itself
///                                            cannot nest)
///
/// The count token, when an algorithm takes one, must come directly after
/// the algorithm name; the hasher token and the option tokens may then
/// appear in any order, each at most once. So "dynamic:max=100" and
/// "sequent:rehash:crc32c" are valid, while conflicting duplicates
/// ("sequent:rehash:rehash", two "max=N" tokens, two hasher tokens) are
/// rejected — nesting specs under sharded makes silent last-wins
/// unacceptable.
///
/// A hasher token may carry a hex seed suffix, "hasher@1f2e" — the keyed
/// family (seed 0 == "@0" == unkeyed, bit-identical to the plain name).
/// A token may carry at most one "@"; "crc32@1f@2e" is rejected.
/// hashed_mtf, as a deliberately frozen strawman, rejects seeds.
///
/// Option tokens, each at most once:
///   "nocache"   sequent/rcu: disable the per-chain cache
///   "rehash"    sequent: rehash with a fresh seed on overload watermark
///   "max=N"     sequent/dynamic: shed inserts beyond N PCBs (N > 0)
/// There is no growth option: dynamic always drains a
/// doubling's outgoing table a bounded batch per operation, with the
/// memory-pressure degradation ladder (DESIGN.md "Incremental resize &
/// degradation ladder").
/// Returns nullopt on any unrecognized, duplicate, or unsupported token.
[[nodiscard]] std::optional<DemuxConfig> parse_demux_spec(
    std::string_view spec);

/// As above, but on failure writes a human-readable reason into `*error`
/// (when non-null) naming the offending token — "duplicate 'rehash'
/// token", "'nocache' is not supported by dynamic", ... Callers that surface
/// spec strings to users (benches, examples, nested sharded specs) use
/// this overload.
[[nodiscard]] std::optional<DemuxConfig> parse_demux_spec(
    std::string_view spec, std::string* error);

/// Parses a hasher name as printed by net::hasher_name().
[[nodiscard]] std::optional<net::HasherKind> parse_hasher_name(
    std::string_view name);

/// Parses "name" or "name@hexseed" (1-8 hex digits) into a HashSpec —
/// the inverse of net::hash_spec_name().
[[nodiscard]] std::optional<net::HashSpec> parse_hash_spec_token(
    std::string_view token);

/// Short algorithm name for display.
[[nodiscard]] std::string_view algorithm_name(Algorithm algorithm) noexcept;

}  // namespace tcpdemux::core

#endif  // TCPDEMUX_CORE_DEMUX_REGISTRY_H_

// Hash functions over TCP/IPv4 flow keys.
//
// The paper closes §3.5 with "efficient hash functions for protocol
// addresses are well known [Jai89, McK91]". This module provides the
// classic candidates from that literature plus three modern references:
//
//   kBsdModulo        (faddr + fport + lport) — the historical BSD inpcb hash
//   kXorFold          XOR-fold of all 96 key bits into 32
//   kAddFold          16-bit one's-complement-style additive fold [Jai89]
//   kMultiplicative   Fibonacci/Knuth multiplicative hash of the folded key
//   kCrc32            CRC-32 (IEEE 802.3 polynomial) over the 12 key bytes,
//                     Jain's recommendation for address lookup [Jai89]
//   kCrc32c           CRC-32C (Castagnoli) over the same bytes — identical
//                     mixing pedigree, but x86 SSE4.2 / ARMv8 execute it in
//                     hardware (net/crc32c.h), so CRC-quality hashing costs
//                     about as much as the naive folds
//   kJenkins          Bob Jenkins' 96-bit mix (lookup2 final mix)
//   kToeplitz         Microsoft RSS Toeplitz hash with the canonical key —
//                     what contemporary NIC receive-side scaling uses
//   kSipHash          SipHash-1-3 over the 12 key bytes — the keyed PRF
//                     production hash tables adopted once hash-flooding
//                     attacks [AuB12] made unkeyed hashes a DoS vector
//
// Every hasher returns a full-width 32-bit value; chain selection reduces it
// modulo the chain count (the Sequent algorithm's installation default was a
// prime, 19, which repairs weak low-order bits in the cheap folds).
//
// Keyed hashing: `HashSpec` pairs a hasher with an optional 32-bit seed.
// Seed 0 is bit-identical to the unkeyed functions, so every paper-fidelity
// result is untouched by default. A non-zero seed changes the hash family:
//
//   * kSipHash derives its 128-bit SipHash key from the seed, so the full
//     32-bit hash is unpredictable without the seed — collisions cannot be
//     precomputed at all;
//   * every other kind gets a seeded avalanche post-mix,
//     mix32_avalanche(h ^ f(seed)). That randomizes which *chain or slot* a
//     key lands on (defeating chain-targeting floods), but keys whose full
//     32-bit unkeyed hash already collides still collide under every seed —
//     an attacker who can solve the base fold (trivial for xor_fold) defeats
//     the post-mix. Deployments facing that adversary use kSipHash.
#ifndef TCPDEMUX_NET_HASHERS_H_
#define TCPDEMUX_NET_HASHERS_H_

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "net/flow_key.h"

namespace tcpdemux::net {

enum class HasherKind : std::uint8_t {
  kBsdModulo,
  kXorFold,
  kAddFold,
  kMultiplicative,
  kCrc32,
  kCrc32c,
  kJenkins,
  kToeplitz,
  kSipHash,
};

/// All hasher kinds, for iteration in tests and benches.
inline constexpr std::array<HasherKind, 9> kAllHashers = {
    HasherKind::kBsdModulo,      HasherKind::kXorFold,
    HasherKind::kAddFold,        HasherKind::kMultiplicative,
    HasherKind::kCrc32,          HasherKind::kCrc32c,
    HasherKind::kJenkins,        HasherKind::kToeplitz,
    HasherKind::kSipHash,
};

/// Short stable name ("crc32", "siphash", ...).
[[nodiscard]] std::string_view hasher_name(HasherKind kind) noexcept;

/// Hashes `key` with the chosen function, unkeyed (seed 0). Full 32-bit
/// result.
[[nodiscard]] std::uint32_t hash_flow(HasherKind kind,
                                      const FlowKey& key) noexcept;

/// Convenience: chain index in [0, chains).
[[nodiscard]] inline std::uint32_t hash_chain(HasherKind kind,
                                              const FlowKey& key,
                                              std::uint32_t chains) noexcept {
  return hash_flow(kind, key) % chains;
}

/// A hasher plus an optional seed. Implicitly constructible from a bare
/// HasherKind (seed 0 == the unkeyed function, bit for bit), so every
/// pre-seed call site and Options aggregate keeps compiling unchanged.
struct HashSpec {
  HasherKind kind = HasherKind::kXorFold;
  std::uint32_t seed = 0;

  constexpr HashSpec() noexcept = default;
  // NOLINTNEXTLINE: implicit by design, see above.
  constexpr HashSpec(HasherKind k, std::uint32_t s = 0) noexcept
      : kind(k), seed(s) {}

  [[nodiscard]] constexpr bool keyed() const noexcept { return seed != 0; }
  friend constexpr bool operator==(const HashSpec&,
                                   const HashSpec&) noexcept = default;
};

/// Hashes `key` under `spec`. spec.seed == 0 delegates to the unkeyed
/// hash_flow(kind, key) exactly.
[[nodiscard]] std::uint32_t hash_flow(const HashSpec& spec,
                                      const FlowKey& key) noexcept;

[[nodiscard]] inline std::uint32_t hash_chain(const HashSpec& spec,
                                              const FlowKey& key,
                                              std::uint32_t chains) noexcept {
  return hash_flow(spec, key) % chains;
}

/// Display name: "crc32" unkeyed, "crc32@1f2e" keyed (seed in hex) —
/// the same token the registry spec grammar accepts.
[[nodiscard]] std::string hash_spec_name(const HashSpec& spec);

/// 32-bit avalanche finalizer (Prospector's low-bias constants). Used by
/// the seeded post-mix; exposed so tests can reproduce seeded chain indices
/// exactly.
[[nodiscard]] constexpr std::uint32_t mix32_avalanche(std::uint32_t x) noexcept {
  x ^= x >> 16;
  x *= 0x7feb352dU;
  x ^= x >> 15;
  x *= 0x846ca68bU;
  x ^= x >> 16;
  return x;
}

/// Deterministic seed rotation for rehash-on-overload: a splitmix32 step
/// that never returns 0 (0 means "unkeyed"). Reproducible by design — the
/// repo bans ambient randomness so attack experiments replay exactly.
[[nodiscard]] std::uint32_t next_seed(std::uint32_t seed) noexcept;

/// SipHash with c compression and d finalization rounds per message block
/// (SipHash-c-d) over arbitrary bytes, 64-bit key (k0, k1). Exposed with
/// round counts so tests can pin the official SipHash-2-4 vectors as well
/// as the SipHash-1-3 variant the flow hasher uses.
[[nodiscard]] std::uint64_t siphash(std::span<const std::uint8_t> data,
                                    std::uint64_t k0, std::uint64_t k1,
                                    int c_rounds, int d_rounds) noexcept;

/// CRC-32 (IEEE, reflected) over arbitrary bytes; exposed for tests.
[[nodiscard]] std::uint32_t crc32_ieee(
    std::span<const std::uint8_t> bytes) noexcept;

/// Toeplitz hash over arbitrary input with a caller-supplied key; exposed
/// so tests can check against the Microsoft RSS verification vectors.
[[nodiscard]] std::uint32_t toeplitz_hash(
    std::span<const std::uint8_t> input,
    std::span<const std::uint8_t> key) noexcept;

/// The canonical 40-byte RSS verification key from the Microsoft RSS spec.
[[nodiscard]] std::span<const std::uint8_t> rss_default_key() noexcept;

/// Serialized RSS input for a TCP/IPv4 flow: source address, destination
/// address, source port, destination port — from the *packet's*
/// perspective (source = our foreign half). This is the byte string both
/// Toeplitz paths hash; exposed so differential tests can feed the
/// identical input to the key-schedule table and the caller-key oracle.
[[nodiscard]] std::array<std::uint8_t, 12> rss_flow_input(
    const FlowKey& key) noexcept;

/// The seeded post-mix every non-SipHash hasher applies when
/// HashSpec::seed != 0: mix32_avalanche(h ^ f(seed)), f = one splitmix64
/// step over the seed. Exposed so tests can compose the keyed table path
/// from the unkeyed oracle and prove both Toeplitz paths stay bit-identical
/// under @hexseed rotation.
[[nodiscard]] std::uint32_t seeded_hash_mix(std::uint32_t hash,
                                            std::uint32_t seed) noexcept;

}  // namespace tcpdemux::net

#endif  // TCPDEMUX_NET_HASHERS_H_

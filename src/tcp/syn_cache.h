// SYN cache: compact storage for half-open passive connections.
//
// Creating a full PCB for every arriving SYN lets an attacker (or just a
// flash crowd) blow up the connection table that the demultiplexer must
// search — the SYN-flood problem that hit the real Internet a few years
// after this paper. The fix production stacks adopted keeps embryonic
// connections in a small fixed-budget hash cache of ~40-byte entries;
// only the handshake-completing ACK promotes one to a real PCB.
//
// This implementation follows the classic BSD syncache shape: H buckets,
// per-bucket entry limit with oldest-entry eviction, global timeout.
// Stats is its one ledger: every embryo that leaves the cache is counted
// once, as evicted, expired, promoted or shed.
//
// Threading: single-owner by design — one SynCache belongs to one tcp
// machine (and, in the sharded receive path, one shard), so it carries no
// lock and no capability annotations; concurrent use requires external
// synchronization. The `lock-discipline` lint pass keeps this honest at
// compile time: any mutex added to src/tcp must be the annotated
// core::Mutex from core/thread_annotations.h, so the moment this type
// grows a lock it becomes -Wthread-safety-checkable by construction.
#ifndef TCPDEMUX_TCP_SYN_CACHE_H_
#define TCPDEMUX_TCP_SYN_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

#include "net/flow_key.h"
#include "net/hashers.h"

namespace tcpdemux::tcp {

class SynCache {
 public:
  struct Options {
    std::uint32_t buckets = 64;
    std::uint32_t bucket_limit = 8;  ///< entries per bucket before eviction
    double timeout = 30.0;           ///< seconds an embryonic entry lives
    net::HashSpec hasher = net::HasherKind::kCrc32;  ///< seed 0 = unkeyed
    /// Global embryonic-connection budget (0 = buckets * bucket_limit is
    /// the only bound). At the cap, add() evicts the globally oldest
    /// embryo before admitting the newcomer — a flood cannot grow the
    /// cache, only churn it — and counts the kill in stats().shed.
    std::size_t max_entries = 0;
  };

  /// One embryonic connection: just enough to finish the handshake.
  struct Entry {
    net::FlowKey key;
    std::uint32_t irs = 0;  ///< peer's initial sequence number
    std::uint32_t iss = 0;  ///< our initial sequence number
    double created = 0.0;
  };

  struct Stats {
    std::uint64_t added = 0;
    std::uint64_t evicted = 0;   ///< dropped for bucket overflow
    std::uint64_t expired = 0;
    std::uint64_t promoted = 0;  ///< completed handshakes removed via take
    std::uint64_t duplicates = 0;
    std::uint64_t shed = 0;      ///< globally-oldest kills at max_entries
    std::uint64_t alloc_failed = 0;  ///< adds refused by fault injection
  };

  SynCache() : SynCache(Options()) {}
  explicit SynCache(Options options);

  /// Records an arriving SYN. A duplicate key refreshes nothing and
  /// returns the existing entry (the peer retransmitted its SYN). When the
  /// bucket is full the oldest entry is evicted — the flood defense. At
  /// the global max_entries cap the globally oldest embryo is shed first.
  /// Returns nullptr only when allocation-failure injection refuses the
  /// add (core::FaultInjector).
  const Entry* add(const net::FlowKey& key, std::uint32_t irs,
                   std::uint32_t iss, double now);

  /// Finds the embryonic entry for `key`, or nullptr. A query only: the
  /// receive path completes a handshake with one take().
  [[nodiscard]] const Entry* find(const net::FlowKey& key) const;

  /// Removes and returns the entry (handshake completed or RST received),
  /// counting it in stats().promoted. Returns false if absent.
  bool take(const net::FlowKey& key, Entry* out = nullptr);

  /// Drops entries older than the timeout. Returns how many.
  std::size_t expire(double now);

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }


 private:
  using Bucket = std::deque<Entry>;  ///< oldest at the front

  [[nodiscard]] Bucket& bucket_of(const net::FlowKey& key) {
    return buckets_[net::hash_chain(options_.hasher, key,
                                    options_.buckets)];
  }
  [[nodiscard]] const Bucket& bucket_of(const net::FlowKey& key) const {
    return buckets_[net::hash_chain(options_.hasher, key,
                                    options_.buckets)];
  }

  /// Evicts the globally oldest embryo (max_entries overflow policy).
  void shed_oldest();

  Options options_;
  std::vector<Bucket> buckets_;
  std::size_t size_ = 0;
  Stats stats_;
};

}  // namespace tcpdemux::tcp

#endif  // TCPDEMUX_TCP_SYN_CACHE_H_

// Self-tuning hashed PCB lookup — the paper's "the system administrator
// may increase the value of H" (§3.4) turned into policy.
//
// Identical to the Sequent algorithm, except the chain table grows itself:
// when the mean load (PCBs per chain) exceeds `max_load`, the table
// rehashes to the next prime roughly twice the size, relinking the
// existing PCBs in place (no PCB is reallocated, so Pcb* handles stay
// valid — the same guarantee a kernel needs). This is the direction
// production stacks actually took (e.g. dynamically sized inpcb hash
// tables in later BSDs and Linux's ehash).
#ifndef TCPDEMUX_CORE_DYNAMIC_HASH_H_
#define TCPDEMUX_CORE_DYNAMIC_HASH_H_

#include <cstdint>
#include <vector>

#include "core/demuxer.h"
#include "core/pcb_list.h"
#include "core/resize_policy.h"
#include "net/hashers.h"

namespace tcpdemux::core {

class DynamicHashDemuxer final : public Demuxer {
 public:
  struct Options {
    std::uint32_t initial_chains = 19;
    double max_load = 2.0;  ///< rehash when size > max_load * chains
    net::HashSpec hasher = net::HasherKind::kCrc32;  ///< seed 0 = unkeyed
    bool per_chain_cache = true;
    /// Refuse inserts beyond this many PCBs (0 = unbounded). Refused
    /// inserts return nullptr and count in resilience().inserts_shed.
    /// There is no rehash-on-overload here: this table's answer to load is
    /// growth, which dilutes benign skew but not a collision flood — pair
    /// a keyed hasher with the cap for hostile deployments.
    std::size_t max_pcbs = 0;
    /// Drain the outgoing bucket array incrementally, a bounded batch per
    /// operation, instead of relinking it all at the growth trigger, so no
    /// insert ever pays an O(size) pause (see DESIGN.md "Incremental
    /// resize & degradation ladder").
    bool incremental = false;
  };

  DynamicHashDemuxer() : DynamicHashDemuxer(Options()) {}
  explicit DynamicHashDemuxer(Options options);

  Pcb* insert(const net::FlowKey& key) override;
  bool erase(const net::FlowKey& key) override;
  using Demuxer::lookup;
  LookupResult lookup(const net::FlowKey& key, SegmentKind kind) override;
  LookupResult lookup_wildcard(const net::FlowKey& key) override;
  [[nodiscard]] std::size_t size() const override { return size_; }
  void for_each_pcb(
      const std::function<void(const Pcb&)>& fn) const override;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::size_t memory_bytes() const override;

  bool migration_step() override;
  /// True while an outgoing bucket array is still draining.
  [[nodiscard]] bool migrating() const noexcept { return resize_.migrating(); }
  /// PCBs still resident in the outgoing array (0 when not migrating).
  [[nodiscard]] std::size_t migration_debt() const noexcept {
    return resize_.debt();
  }
  /// True while growth is allocation-blocked (ladder rung 1 engaged).
  [[nodiscard]] bool growth_blocked() const noexcept {
    return resize_.blocked();
  }

  [[nodiscard]] std::uint32_t chains() const noexcept {
    return static_cast<std::uint32_t>(buckets_.size());
  }
  /// Table doublings so far (the paper's "increase H"); seed rotations are
  /// a different event, and this table has none.
  [[nodiscard]] std::uint64_t rehash_count() const noexcept {
    return doublings_;
  }
  [[nodiscard]] std::vector<std::size_t> occupancy() const override;

  [[nodiscard]] ResilienceStats resilience() const override;
  /// Longest chain an overload check would tolerate at the current size
  /// (reported in resilience() so operators can watch skew even though
  /// this table's only automatic response is growth).
  [[nodiscard]] std::uint64_t watermark_limit() const noexcept {
    return 16 + 8 * (size_ / buckets_.size() + 1);
  }

  /// The next prime >= 2 * n from a fixed doubling-prime ladder (exposed
  /// for tests).
  [[nodiscard]] static std::uint32_t next_table_size(std::uint32_t n) noexcept;

 private:
  friend class StructuralValidator;   // src/core/validate.h
  friend struct ValidatorTestAccess;  // negative validator tests only

  struct Bucket {
    PcbList list;
    Pcb* cache = nullptr;
  };
  using Table = std::vector<Bucket>;
  template <class>
  friend class ResizeEngine;

  [[nodiscard]] std::uint32_t chain_of(const net::FlowKey& key) const noexcept {
    return chain_in(buckets_, key);
  }
  [[nodiscard]] std::uint32_t chain_in(const Table& table,
                                       const net::FlowKey& key) const noexcept {
    return net::hash_chain(options_.hasher, key,
                           static_cast<std::uint32_t>(table.size()));
  }
  void maybe_grow();
  [[nodiscard]] Table grown_table() const {
    return Table(next_table_size(chains()));
  }
  /// Relinks the head PCB of outgoing chain `c` onto its live chain.
  bool migrate_unit(Table& old, std::size_t c, DrainMode mode);

  Options options_;
  Table buckets_;
  /// Total PCBs across the live and (during migration) outgoing arrays.
  std::size_t size_ = 0;
  std::uint64_t doublings_ = 0;
  std::uint64_t watermark_ = 0;
  std::uint64_t inserts_shed_ = 0;
  ResizeEngine<Table> resize_;
};

}  // namespace tcpdemux::core

#endif  // TCPDEMUX_CORE_DYNAMIC_HASH_H_

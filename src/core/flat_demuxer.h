// Cache-conscious flat demuxer: open addressing with robin-hood probing,
// one-byte fingerprint tags, and tombstone-free backward-shift deletion.
//
// The paper's figure of merit — PCBs examined per lookup — is a surrogate
// for memory traffic: every chain-following demuxer in this library (BSD,
// MTF, SR, Sequent, RCU) pays at least one dependent pointer chase into a
// few-hundred-byte PCB per examined node. This structure attacks the
// traffic directly, the way modern flow tables (Cuckoo++ [LeS17], DPDK
// hash) do:
//
//   * power-of-two slot array, structure-of-arrays layout: a probe walks a
//     dense 1-byte tag array first, so resolving a slot costs a fraction
//     of a cache line, not a PCB-sized load;
//   * the tag holds an occupied bit plus 7 fingerprint bits from the top
//     of the hash. A key comparison (the 96-bit flow key, in its own dense
//     array) happens only on a fingerprint match — with 7 bits, ~1/128 of
//     colliding probes are false positives;
//   * robin-hood insertion bounds probe-sequence variance (an inserting
//     key displaces any resident closer to its home slot), which keeps the
//     early-exit bound on misses tight;
//   * deletion backward-shifts the following probe run instead of leaving
//     tombstones, so load factor — and therefore probe length — never
//     degrades with churn;
//   * growth doubles the table at 7/8 occupancy (amortized O(1) per
//     insert): the doubled array is allocated first, then the old one
//     drains into it a bounded batch per insert/erase/lookup, so no
//     operation re-places more than O(batch) residents. Pcb objects live
//     in the demuxer's PcbSlab and the slot arrays hold only pointers, so
//     Pcb* stay stable across growth and slot shifts. When the doubled
//     array cannot be allocated the table degrades down a ladder —
//     defer-and-retry with exponential backoff, then shed-at-watermark —
//     instead of corrupting state (see core/resize_policy.h and DESIGN.md
//     "Incremental resize & degradation ladder").
//
// Accounting: `examined` counts key comparisons (fingerprint hits), the
// moments this structure actually touches a connection's identity. Tag
// probes are free by design — that is the whole point of the layout — so
// a miss that never matches a fingerprint reports 0 examined PCBs.
//
// The hash is finalized with a 32-bit avalanche mix before use: the table
// masks low bits for the slot index and takes the top bits as the
// fingerprint, so weak folds (the 1992 candidates) would otherwise cluster
// both. Chained tables hide this behind a prime modulus; a flat table must
// repair it itself.
#ifndef TCPDEMUX_CORE_FLAT_DEMUXER_H_
#define TCPDEMUX_CORE_FLAT_DEMUXER_H_

#include <cstdint>
#include <vector>

#include "core/demuxer.h"
#include "core/pcb_slab.h"
#include "core/resize_policy.h"
#include "net/hashers.h"

namespace tcpdemux::core {

class FlatDemuxer final : public Demuxer {
 public:
  struct Options {
    std::size_t initial_capacity = 1024;  ///< rounded up to a power of two
    net::HashSpec hasher = net::HasherKind::kXorFold;  ///< seed 0 = unkeyed
    /// Rotate the hash seed and rehash in place when an insert's probe run
    /// exceeds the overload watermark (collision-flood defense).
    bool rehash_on_overload = false;
    /// Refuse inserts beyond this many PCBs (0 = unbounded). Refused
    /// inserts return nullptr and count in resilience().inserts_shed.
    std::size_t max_pcbs = 0;
  };

  FlatDemuxer() : FlatDemuxer(Options()) {}
  explicit FlatDemuxer(Options options);

  Pcb* insert(const net::FlowKey& key) override;
  bool erase(const net::FlowKey& key) override;
  using Demuxer::lookup;
  LookupResult lookup(const net::FlowKey& key, SegmentKind kind) override;
  void lookup_batch(std::span<const net::FlowKey> keys,
                    std::span<LookupResult> results,
                    SegmentKind kind) override;
  LookupResult lookup_wildcard(const net::FlowKey& key) override;
  [[nodiscard]] std::size_t size() const override { return size_; }
  void for_each_pcb(
      const std::function<void(const Pcb&)>& fn) const override;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::size_t memory_bytes() const override;

  /// Current slot count (doubles as the table grows). Test/bench hook.
  /// While a migration is in flight this is the *new* array's capacity;
  /// the draining old array is extra (see memory_bytes()).
  [[nodiscard]] std::size_t capacity() const noexcept {
    return table_.capacity();
  }

  bool migration_step() override;
  /// True while a migration is draining the old array.
  [[nodiscard]] bool migrating() const noexcept { return resize_.migrating(); }
  /// Residents still waiting in the old array (0 when not migrating).
  [[nodiscard]] std::size_t migration_debt() const noexcept {
    return resize_.debt();
  }
  /// True while the degradation ladder has growth blocked on allocation
  /// failure (inserts shed once occupancy reaches 15/16).
  [[nodiscard]] bool growth_blocked() const noexcept {
    return resize_.blocked();
  }
  /// Longest probe sequence any resident key currently needs (test hook:
  /// robin-hood keeps this small even at high load).
  [[nodiscard]] std::size_t max_probe_distance() const noexcept;

  /// Open addressing has no chains; the natural partition is the probe
  /// run — a maximal span of contiguous occupied slots (wrapping), which
  /// bounds every resident's probe cost. Run lengths sum to size().
  [[nodiscard]] std::vector<std::size_t> occupancy() const override;

  [[nodiscard]] ResilienceStats resilience() const override;
  /// Current hash spec (seed changes after an overload rehash; test hook).
  [[nodiscard]] net::HashSpec hash_spec() const noexcept {
    return options_.hasher;
  }
  /// Longest probe run an overload check tolerates: robin-hood keeps benign
  /// probe runs near O(log capacity) even at 7/8 load, while a flood aimed
  /// at one home slot grows a run linearly and crosses this quickly.
  [[nodiscard]] std::uint64_t watermark_limit() const noexcept {
    std::uint64_t log2 = 0;
    for (std::size_t c = capacity(); c > 1; c >>= 1) ++log2;
    return 24 + 4 * log2;
  }

 private:
  friend class StructuralValidator;   // src/core/validate.h
  friend struct ValidatorTestAccess;  // negative validator tests only

  static constexpr std::size_t kNpos = static_cast<std::size_t>(-1);
  static constexpr std::size_t kMinCapacity = 16;

  /// Structure-of-arrays slot storage. Parallel, all sized capacity(): a
  /// probe touches tags (1 B/slot), then hashes for the robin-hood bound
  /// (4 B/slot), and keys (12 B/slot) only on a fingerprint match. The PCB
  /// itself is touched only when returned to the caller. The outgoing
  /// table of a migration has this same type.
  struct Table {
    std::size_t mask = 0;  ///< capacity - 1 (capacity is a power of two)
    std::vector<std::uint8_t> tags;
    std::vector<std::uint32_t> hashes;
    std::vector<net::FlowKey> keys;
    std::vector<Pcb*> pcbs;

    Table() = default;
    /// An empty table of `capacity` slots (a power of two).
    explicit Table(std::size_t capacity);
    [[nodiscard]] std::size_t capacity() const noexcept { return mask + 1; }
    /// Distance of slot `i`'s resident from its home slot, in probe steps.
    [[nodiscard]] std::size_t probe_distance(std::size_t i) const noexcept {
      return (i - (hashes[i] & mask)) & mask;
    }
  };
  template <class>
  friend class ResizeEngine;

  /// Tag byte: occupied bit (0x80) | top 7 hash bits. 0 means empty.
  [[nodiscard]] static constexpr std::uint8_t tag_of(std::uint32_t h) noexcept {
    return static_cast<std::uint8_t>(0x80U | (h >> 25));
  }

  /// The avalanche finalizer (net::mix32_avalanche) repairs weak folds so
  /// every input bit reaches the masked index bits and fingerprint bits.
  [[nodiscard]] std::uint32_t hash_of(const net::FlowKey& key) const noexcept {
    return net::mix32_avalanche(net::hash_flow(options_.hasher, key));
  }

  struct Probe {
    std::size_t slot = kNpos;      ///< kNpos when absent
    std::uint32_t examined = 0;    ///< key comparisons performed
  };
  /// Byte-at-a-time robin-hood probe of `t`: the live table's, and the
  /// outgoing table's while a migration drains.
  [[nodiscard]] static Probe find_slot(const Table& t, std::uint32_t h,
                                       const net::FlowKey& key) noexcept;

  /// Robin-hood placement of a (pre-hashed) entry into `t`; the caller has
  /// already established the key is absent and the load factor is
  /// acceptable. Returns the longest probe distance the placement walked
  /// (the overload watermark signal).
  static std::size_t place(Table& t, std::uint32_t h, net::FlowKey key,
                           Pcb* pcb);
  /// Backward-shift removal of the resident at slot `i` of `t`; the PCB
  /// itself is left alone (erase returns it to the slab, a migration has
  /// already placed it in the live table).
  static void remove_at(Table& t, std::size_t i);
  /// Growth trigger at 7/8 occupancy; the shared engine does the rest.
  void maybe_grow();
  [[nodiscard]] Table grown_table() const { return Table(capacity() * 2); }
  [[nodiscard]] Table same_size_table() const { return Table(capacity()); }
  /// Moves the resident of outgoing slot `i` into the live table, under
  /// its stored hash or, in a rotation's kRehash sweep, a fresh one.
  /// Nothing is ever placed into the outgoing table and a step's backward
  /// shift only vacates slots, so the drained prefix [0, cursor) never
  /// refills.
  bool migrate_unit(Table& old, std::size_t i, DrainMode mode);
  /// Watermark bookkeeping after a successful insert; triggers a seed
  /// rotation when the overload policy says so.
  void note_insert(std::size_t place_distance);
  /// A rotation's watermark: the longest probe distance it left.
  [[nodiscard]] std::uint64_t rotated_watermark() const noexcept {
    return max_probe_distance();
  }

  Options options_;
  Table table_;
  std::size_t size_ = 0;   ///< residents across the live and old arrays
  ResizeEngine<Table> resize_;
  PcbSlab slab_;
};

}  // namespace tcpdemux::core

#endif  // TCPDEMUX_CORE_FLAT_DEMUXER_H_

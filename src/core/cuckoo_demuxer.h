// Bucketized cuckoo demuxer with per-bucket presence filters (Cuckoo++).
//
// The flat robin-hood table makes hits cheap but a miss still walks its
// probe run. This structure makes *misses* O(1): every key has exactly two
// candidate buckets (4 slots each), so a lookup examines at most 8 tags —
// and, following Cuckoo++ [LeS17], each bucket carries a 16-bit presence
// filter of the fingerprints that overflowed to their alternate bucket, so
// the overwhelming majority of negative lookups stop after ONE bucket:
//
//   * bucket = 4 one-byte fingerprint tags + 16-bit filter, 6 bytes of
//     metadata loaded together — a negative probe touches ~1 cache line;
//   * the alternate bucket is derived from the primary and the tag alone
//     (b2 = b1 ^ (mix(tag)|1), an involution: either bucket recovers the
//     other), so displacing a resident never needs its key re-hashed;
//   * insertion breadth-first-searches the kick graph for the shortest
//     displacement path (bounded node budget), moving at most a handful of
//     entries; Pcbs live in the demuxer's PcbSlab and the slot arrays hold
//     only pointers, so Pcb* survive kicks, growth, and seed rotation;
//   * the filter is *counted* (per-bucket count per filter index, cold
//     array off the lookup path), so deletions and kick-backs clear bits
//     exactly when the last overflowed resident leaves — no false
//     negatives, ever (the StructuralValidator proves it after every
//     mutation in the fuzz suites);
//   * growth doubles the bucket array at 7/8 occupancy through the shared
//     resize engine (core/resize_policy.h): allocate the doubled table,
//     then drain the old one into it a bounded batch per operation, behind
//     a slot cursor. An insert whose kick search exhausts its budget
//     triggers the keyed-seed rotation (`rehash` option) and then growth,
//     and is shed only if the table stays unplaceable while half empty —
//     the signature of crafted full-hash collisions, which no table
//     geometry can absorb.
//
// Accounting: `examined` counts key comparisons (fingerprint hits), as in
// the flat table. Tag and filter probes are free by design. The watermark
// is the worst BFS search effort (nodes expanded) an insert has needed;
// the limit is the search budget, so a bucket-targeted flood that
// exhausts the budget crosses the watermark by definition.
#ifndef TCPDEMUX_CORE_CUCKOO_DEMUXER_H_
#define TCPDEMUX_CORE_CUCKOO_DEMUXER_H_

#include <array>
#include <cstdint>
#include <vector>

#include "core/demuxer.h"
#include "core/pcb_slab.h"
#include "core/resize_policy.h"
#include "net/hashers.h"

namespace tcpdemux::core {

class CuckooDemuxer final : public Demuxer {
 public:
  struct Options {
    std::size_t initial_capacity = 1024;  ///< slots; rounded up to 2^k >= 16
    /// Cuckoo derives the alternate bucket from the fingerprint tag, so a
    /// collapsible fold (xor_fold) turns every colliding key into a shared
    /// (b1, b2) pair and the table sheds past 8 co-residents. Default to
    /// the hardware-CRC32C family; the registry applies the same default.
    net::HashSpec hasher = net::HasherKind::kCrc32c;  ///< seed 0 = unkeyed
    /// Rotate the hash seed and rebuild in place when an insert's kick
    /// search exhausts its budget (collision-flood defense).
    bool rehash_on_overload = false;
    /// Refuse inserts beyond this many PCBs (0 = unbounded). Refused
    /// inserts return nullptr and count in resilience().inserts_shed.
    std::size_t max_pcbs = 0;
  };

  CuckooDemuxer() : CuckooDemuxer(Options()) {}
  explicit CuckooDemuxer(Options options);

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

  /// Current slot count (buckets * 4; doubles as the table grows).
  [[nodiscard]] std::size_t capacity() const noexcept {
    return table_.capacity();
  }
  [[nodiscard]] std::size_t bucket_count() const noexcept {
    return table_.bucket_count();
  }

  /// Cumulative buckets examined across all lookups (test/bench hook: the
  /// Cuckoo++ claim is ~1 per negative lookup; at most 2 ever).
  [[nodiscard]] std::uint64_t buckets_probed() const noexcept {
    return buckets_probed_;
  }

  /// The natural partition is the bucket: 4-slot resident counts
  /// (including empty buckets), summing to size().
  [[nodiscard]] std::vector<std::size_t> occupancy() const override;

  [[nodiscard]] ResilienceStats resilience() const override;
  /// Current hash spec (seed changes after an overload rehash; test hook).
  [[nodiscard]] net::HashSpec hash_spec() const noexcept {
    return options_.hasher;
  }
  /// Kick-search budget in BFS nodes: the overload watermark limit. A
  /// benign insert at 7/8 load finds a path after a handful of nodes; only
  /// bucket-targeted floods (or crafted full-hash collisions) exhaust it.
  [[nodiscard]] std::uint64_t watermark_limit() const noexcept {
    return kMaxBfsNodes;
  }

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

  static constexpr std::size_t kBucketWidth = 4;

 private:
  friend class StructuralValidator;   // src/core/validate.h
  friend struct ValidatorTestAccess;  // negative validator tests only

  static constexpr std::size_t kNpos = static_cast<std::size_t>(-1);
  static constexpr std::size_t kMinBuckets = 4;  ///< 16 slots
  static constexpr std::size_t kMaxBfsNodes = 64;

  /// One bucket's lookup metadata, loaded as a unit: 4 fingerprint tags
  /// (0 = empty slot) and the Cuckoo++ presence filter — bit (tag & 15) is
  /// set while any key with that fingerprint nibble whose *primary* bucket
  /// is this one resides in its alternate bucket.
  struct BucketMeta {
    std::array<std::uint8_t, kBucketWidth> tags{};
    std::uint16_t filter = 0;
  };

  /// Tag byte: occupied bit (0x80) | top 7 hash bits. 0 means empty.
  [[nodiscard]] static constexpr std::uint8_t tag_of(std::uint32_t h) noexcept {
    return static_cast<std::uint8_t>(0x80U | (h >> 25));
  }
  [[nodiscard]] static constexpr std::uint32_t filter_index(
      std::uint8_t tag) noexcept {
    return tag & 15U;
  }

  /// Hot metadata (one 6-byte record per bucket), then the slot arrays
  /// (slot = bucket * 4 + i). The counted-filter backing store is cold:
  /// only mutations touch it. The outgoing table of a migration has this
  /// same type.
  struct Table {
    std::size_t bucket_mask = 0;  ///< bucket_count - 1 (power of two)
    std::vector<BucketMeta> meta;
    std::vector<std::uint32_t> hashes;
    std::vector<net::FlowKey> keys;
    std::vector<Pcb*> pcbs;
    std::vector<std::array<std::uint16_t, 16>> filter_counts;

    Table() = default;
    /// An empty table of `buckets` buckets (a power of two >= 4).
    explicit Table(std::size_t buckets);
    [[nodiscard]] std::size_t bucket_count() const noexcept {
      return bucket_mask + 1;
    }
    [[nodiscard]] std::size_t capacity() const noexcept {
      return bucket_count() * kBucketWidth;
    }
    [[nodiscard]] std::uint8_t tag_at(std::size_t slot) const noexcept {
      return meta[slot / kBucketWidth].tags[slot % kBucketWidth];
    }
    /// Partial-key alternate bucket [LeS17]: derived from the bucket and
    /// the tag only, via an xor involution. The offset is forced odd so it
    /// never masks to zero (bucket counts are powers of two >= 4),
    /// guaranteeing b1 != b2.
    [[nodiscard]] std::size_t alt_bucket(std::size_t bucket,
                                         std::uint8_t tag) const noexcept {
      return (bucket ^ (net::mix32_avalanche(tag) | 1U)) & bucket_mask;
    }
  };
  template <class>
  friend class ResizeEngine;

  /// Avalanche-finalized hash (same repair as the flat table: the bucket
  /// index masks low bits, the fingerprint takes top bits).
  [[nodiscard]] std::uint32_t hash_of(const net::FlowKey& key) const noexcept {
    return net::mix32_avalanche(net::hash_flow(options_.hasher, key));
  }

  struct Probe {
    std::size_t slot = kNpos;    ///< kNpos when absent
    std::uint32_t examined = 0;  ///< key comparisons performed
    std::uint32_t buckets = 1;   ///< buckets touched (1 or 2)
  };
  /// Probes `t` (the live table, or the outgoing one mid-migration).
  [[nodiscard]] static Probe find_slot(const Table& t, std::uint32_t h,
                                       const net::FlowKey& key) noexcept;

  static void filter_add(Table& t, std::size_t bucket,
                         std::uint8_t tag) noexcept;
  static void filter_remove(Table& t, std::size_t bucket,
                            std::uint8_t tag) noexcept;
  /// Empties `slot` of `t`, deregistering an overflowed resident from its
  /// primary bucket's counted filter.
  static void clear_slot(Table& t, std::size_t slot) noexcept;

  /// Growth trigger at 7/8 occupancy; the shared engine does the rest.
  void maybe_grow();
  [[nodiscard]] Table grown_table() const {
    return Table(bucket_count() * 2);
  }
  [[nodiscard]] Table same_size_table() const { return Table(bucket_count()); }
  /// Moves the resident of outgoing slot `slot` into the live table, under
  /// its stored hash or, in a rotation's kRehash sweep, a fresh one.
  /// Nothing is ever placed or kicked into the outgoing table, so the
  /// drained prefix [0, cursor) never refills; its counted filters are
  /// kept exact, so old-side negative probes keep the one-bucket
  /// guarantee.
  bool migrate_unit(Table& old, std::size_t slot, DrainMode mode);
  /// A rotation's watermark: search effort restarts under the fresh seed.
  [[nodiscard]] static std::uint64_t rotated_watermark() noexcept { return 0; }

  /// Installs the (pre-hashed, known-absent) entry into `t`, kicking
  /// residents along a BFS-shortest displacement path if both candidate
  /// buckets are full. Reports the search effort and returns true on
  /// success; on false the table is unchanged.
  static bool place_entry(Table& t, std::uint32_t h, const net::FlowKey& key,
                          Pcb* pcb, std::size_t* effort);
  /// Moves the resident of `from` into the empty slot `to` (the other
  /// member of its bucket pair), maintaining the filter registration.
  static void move_slot(Table& t, std::size_t from, std::size_t to) noexcept;
  static void set_slot(Table& t, std::size_t slot, std::uint32_t h,
                       const net::FlowKey& key, Pcb* pcb) noexcept;

  /// Re-places every live resident into a freshly allocated table of
  /// twice the buckets, doubling further if placement fails (only
  /// degenerate hash sets need it). Pointer-stable, and the live table
  /// stays intact until the swap.
  void double_in_place();

  Options options_;
  Table table_;
  /// Total PCBs across the live and (during migration) outgoing arrays.
  std::size_t size_ = 0;
  std::uint64_t buckets_probed_ = 0;
  ResizeEngine<Table> resize_;
  PcbSlab slab_;
};

}  // namespace tcpdemux::core

#endif  // TCPDEMUX_CORE_CUCKOO_DEMUXER_H_

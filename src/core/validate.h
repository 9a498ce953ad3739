// Structural invariant validators for every PCB-lookup algorithm.
//
// The demuxers are intrusive pointer structures — per-chain caches pointing
// into linked lists, move-to-front splices, epoch-deferred frees. A single
// dangling cache pointer or miscounted chain silently corrupts the "PCBs
// examined" metric the whole reproduction is built on, so each algorithm
// gets a validator that proves the structure is well-formed:
//
//   * every doubly linked chain is consistent (next/prev mirror each other,
//     the head has no prev, and no walk reaches more nodes than the whole
//     structure's size(): a cycle is reported, not followed);
//   * every single-entry cache points at a live member of the structure it
//     caches for (never a freed or foreign PCB);
//   * every PCB sits on exactly the chain its key hashes to;
//   * per-chain occupancy totals reconcile with the advertised size();
//   * no PCB is reachable twice and no two PCBs share a key;
//   * (slab-backed demuxers) every reachable PCB is a live 64-byte-aligned
//     slot of the demuxer's own PcbSlab, and the slab's live count equals
//     size() — a slot taken but linked nowhere is a leak;
//   * (RCU) no reachable node is flagged retired, no cache resurrects a
//     retired node, and the epoch manager's freed count never exceeds its
//     retired count.
//
// Validators are read-only and single-threaded: for the RCU demuxer the
// caller must be quiescent (no concurrent readers or writers), exactly the
// contract of its destructor. They are deliberately O(n) or worse — they
// are the oracle for tests/core/fuzz_ops_test, not a production path.
#ifndef TCPDEMUX_CORE_VALIDATE_H_
#define TCPDEMUX_CORE_VALIDATE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace tcpdemux::core {

class PcbList;
class PcbSlab;
class BsdListDemuxer;
class MoveToFrontDemuxer;
class SendReceiveCacheDemuxer;
class SequentDemuxer;
class HashedMtfDemuxer;
class ConnectionIdDemuxer;
class RcuSequentDemuxer;
class FlatDemuxer;
class CuckooDemuxer;
class ShardedDemuxer;
class Demuxer;
struct Pcb;

/// Outcome of one structural validation pass. Empty errors == well-formed.
struct ValidationReport {
  std::vector<std::string> errors;

  [[nodiscard]] bool ok() const noexcept { return errors.empty(); }
  /// All errors joined with newlines ("" when ok), for test failure output.
  [[nodiscard]] std::string to_string() const;
};

/// The validator proper. A class (not free functions) so a single friend
/// declaration per demuxer grants read access to the private structure.
class StructuralValidator {
 public:
  static ValidationReport validate(const BsdListDemuxer& demuxer);
  static ValidationReport validate(const MoveToFrontDemuxer& demuxer);
  static ValidationReport validate(const SendReceiveCacheDemuxer& demuxer);
  static ValidationReport validate(const SequentDemuxer& demuxer);
  static ValidationReport validate(const HashedMtfDemuxer& demuxer);
  static ValidationReport validate(const ConnectionIdDemuxer& demuxer);
  /// RCU variant: caller must be quiescent (no concurrent readers/writers).
  static ValidationReport validate(const RcuSequentDemuxer& demuxer);
  /// Flat table: tag/key/hash agreement per slot, robin-hood probe-distance
  /// ordering, occupancy vs size() vs load-factor bound.
  static ValidationReport validate(const FlatDemuxer& demuxer);
  /// Cuckoo table: tag/key/hash agreement per slot, bucket/alt-bucket
  /// placement, counted-filter soundness (every overflowed resident is
  /// registered in its primary bucket's filter, every bit backed by a
  /// nonzero count), occupancy vs size() vs load-factor bound.
  static ValidationReport validate(const CuckooDemuxer& demuxer);
  /// Sharded fleet: every shard's inner structure (recursive, via
  /// validate_demuxer), sum-of-shard-sizes vs size(), the cross-shard
  /// no-duplicate-key invariant, and — while steering has not drifted
  /// (misplaced_possible() false) — every PCB resident on exactly the
  /// shard its key steers to.
  static ValidationReport validate(const ShardedDemuxer& demuxer);
};

/// Validates a registry-created demuxer by dynamic type. Reports an error
/// for a type no validator covers, so a future algorithm cannot silently
/// skip validation in the fuzz harness.
[[nodiscard]] ValidationReport validate_demuxer(const Demuxer& demuxer);

/// Test-only mutable access to demuxer internals, used by the negative
/// validator tests to plant precise corruptions (stale cache pointer,
/// PCB on the wrong chain, bad size counter) and by nothing else.
/// Every accessor returns a reference so the test can restore the original
/// value before the structure is destroyed.
struct ValidatorTestAccess {
  static PcbList& list(BsdListDemuxer& d);
  static Pcb*& cache(BsdListDemuxer& d);
  static PcbList& list(MoveToFrontDemuxer& d);
  static PcbList& list(SendReceiveCacheDemuxer& d);
  static Pcb*& recv_cache(SendReceiveCacheDemuxer& d);
  static Pcb*& send_cache(SendReceiveCacheDemuxer& d);
  static PcbList& chain(SequentDemuxer& d, std::uint32_t chain);
  static Pcb*& cache(SequentDemuxer& d, std::uint32_t chain);
  static std::size_t& size(SequentDemuxer& d);
  /// The PCB slab (leak plant: a slot made but linked nowhere). Undo by
  /// destroying the planted slot.
  static PcbSlab& slab(SequentDemuxer& d);
  static PcbList& chain(HashedMtfDemuxer& d, std::uint32_t chain);
  static std::size_t& size(HashedMtfDemuxer& d);
  /// Rebinds `key`'s table entry to `id` (planting a key->slot mismatch).
  static void rebind_id(ConnectionIdDemuxer& d, const Pcb& pcb,
                        std::uint32_t id);
  /// Pushes `id` onto the free list without clearing its slot.
  static void push_free_id(ConnectionIdDemuxer& d, std::uint32_t id);
  static void pop_free_id(ConnectionIdDemuxer& d);
  /// Moves the head node of `from` onto chain `to` (wrong-chain plant).
  /// Returns false if `from` is empty. Undo by moving it back.
  static bool rcu_move_head(RcuSequentDemuxer& d, std::uint32_t from,
                            std::uint32_t to);
  /// Points chain `chain`'s cache at chain `other`'s head node (foreign
  /// cache plant). Returns false if `other` is empty.
  static bool rcu_cache_foreign_head(RcuSequentDemuxer& d, std::uint32_t chain,
                                     std::uint32_t other);
  static void rcu_clear_cache(RcuSequentDemuxer& d, std::uint32_t chain);
  /// Flips the retired flag on `chain`'s head node (reachable-but-retired
  /// plant). Returns false if the chain is empty.
  static bool rcu_toggle_head_retired(RcuSequentDemuxer& d,
                                      std::uint32_t chain);
  static void rcu_adjust_size(RcuSequentDemuxer& d, std::ptrdiff_t delta);
  /// Flat-table plants: the slot-tag byte (flip a fingerprint bit), the
  /// size counter, and a whole-slot move (from must be occupied, to empty)
  /// that breaks the robin-hood probe invariant. Undo by moving back.
  static std::vector<std::uint8_t>& flat_tags(FlatDemuxer& d);
  static std::size_t& flat_size(FlatDemuxer& d);
  static void flat_move_slot(FlatDemuxer& d, std::size_t from, std::size_t to);
  /// Cuckoo-table plants: the slot-tag byte (flip a fingerprint bit), the
  /// presence-filter word of a bucket (plant a false negative), the size
  /// counter, and a raw whole-slot move (from occupied, to empty) that
  /// skips filter bookkeeping — breaking bucket placement, filter
  /// membership, or both. Undo by moving back.
  static std::uint8_t& cuckoo_tag(CuckooDemuxer& d, std::size_t slot);
  static std::uint16_t& cuckoo_filter(CuckooDemuxer& d, std::size_t bucket);
  static std::size_t& cuckoo_size(CuckooDemuxer& d);
  static void cuckoo_move_slot(CuckooDemuxer& d, std::size_t from,
                               std::size_t to);
};

}  // namespace tcpdemux::core

#endif  // TCPDEMUX_CORE_VALIDATE_H_

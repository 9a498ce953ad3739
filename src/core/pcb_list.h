// PcbList: an intrusive, doubly linked list of PCBs with examined-count
// accounting.
//
// Every list-structured demuxer in the paper (BSD, move-to-front,
// send/receive cache, each Sequent hash chain) is built on this primitive.
// find_scan() returns how many PCBs the linear scan touched — the paper's
// figure of merit — so the demuxers only add their cache-probe accounting
// on top. The list is pure linkage: one head pointer, no tail and no
// count. It allocates and frees nothing; the PCBs belong to the owning
// demuxer's PcbSlab, which is why a rehash can relink them between lists
// without reallocating one.
//
// Keeping it one pointer keeps a Sequent bucket (list + cache) at 16 bytes.
// The owner counts: the single-list demuxers keep their own size, a hash
// table keeps its total, and a chain's length — wanted by the overload
// watermark and the occupancy reports — is the scan an insert already did
// (find_scan().examined on a miss) or, on cold paths, a walk (count()).
#ifndef TCPDEMUX_CORE_PCB_LIST_H_
#define TCPDEMUX_CORE_PCB_LIST_H_

#include <cstddef>
#include <cstdint>
#include <utility>

#include "core/pcb.h"
#include "net/flow_key.h"

namespace tcpdemux::core {

class PcbList {
 public:
  /// Result of a linear scan: the PCB found (or nullptr) and the number of
  /// list nodes whose keys were inspected (the found node included).
  struct ScanResult {
    Pcb* pcb = nullptr;
    std::uint32_t examined = 0;
  };

  PcbList() noexcept = default;

  PcbList(const PcbList&) = delete;
  PcbList& operator=(const PcbList&) = delete;
  PcbList(PcbList&& other) noexcept
      : head_(std::exchange(other.head_, nullptr)) {}
  PcbList& operator=(PcbList&& other) noexcept {
    if (this != &other) head_ = std::exchange(other.head_, nullptr);
    return *this;
  }

  /// Links the detached `pcb` at the head (BSD inserts new PCBs at the
  /// front of the list).
  void link_front(Pcb* pcb) noexcept;

  /// Linear scan for an exact key match, counting every node inspected.
  /// A miss examines the whole list, so its count is the list's length.
  [[nodiscard]] ScanResult find_scan(const net::FlowKey& key) const noexcept;

  /// Linear scan for the best wildcard match (BSD in_pcblookup semantics):
  /// the matching PCB with the fewest wildcard fields wins; earlier nodes
  /// win ties. Counts every node inspected (always the full list unless an
  /// exact match short-circuits).
  [[nodiscard]] ScanResult find_best_match(
      const net::FlowKey& key) const noexcept;

  /// Unlinks `pcb` and relinks it at the head (Crowcroft's heuristic).
  /// `pcb` must be a member of this list.
  void move_to_front(Pcb* pcb) noexcept;

  /// Unlinks `pcb`, leaving it detached. `pcb` must be a member of this
  /// list.
  void unlink(Pcb* pcb) noexcept;

  /// Unlinks and returns the head (nullptr when empty). Rehashing demuxers
  /// drain a chain with it.
  [[nodiscard]] Pcb* pop_front() noexcept;

  [[nodiscard]] Pcb* head() const noexcept { return head_; }
  [[nodiscard]] bool empty() const noexcept { return head_ == nullptr; }
  /// The number of linked PCBs, by walking the list: O(length), for cold
  /// paths (occupancy reports, a rotation's watermark) only.
  [[nodiscard]] std::size_t count() const noexcept {
    std::size_t n = 0;
    for (const Pcb* p = head_; p != nullptr; p = p->next) ++n;
    return n;
  }

  /// Calls `fn(Pcb&)` for every PCB in list order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (Pcb* p = head_; p != nullptr; p = p->next) {
      fn(*p);
    }
  }

 private:
  Pcb* head_ = nullptr;
};

static_assert(sizeof(PcbList) == sizeof(Pcb*),
              "a chain header is one pointer: hash buckets pack four to a "
              "cache line");

}  // namespace tcpdemux::core

#endif  // TCPDEMUX_CORE_PCB_LIST_H_

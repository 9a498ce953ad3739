// PcbList: an intrusive, doubly linked list of PCBs with examined-count
// accounting.
//
// Every list-structured demuxer in the paper (BSD, move-to-front,
// send/receive cache, each Sequent hash chain) is built on this primitive.
// find_scan() returns how many PCBs the linear scan touched — the paper's
// figure of merit — so the demuxers only add their cache-probe accounting
// on top. The list is pure linkage: it allocates and frees nothing. The
// PCBs belong to the owning demuxer's PcbSlab, which is why a rehash can
// relink them between lists without reallocating one.
#ifndef TCPDEMUX_CORE_PCB_LIST_H_
#define TCPDEMUX_CORE_PCB_LIST_H_

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
  PcbList(PcbList&& other) noexcept;
  PcbList& operator=(PcbList&& other) noexcept;

  /// Links the detached `pcb` at the head (BSD inserts new PCBs at the
  /// front of the list).
  void link_front(Pcb* pcb) noexcept;

  /// Linear scan for an exact key match, counting every node inspected.
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
  [[nodiscard]] Pcb* tail() const noexcept { return tail_; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  /// Calls `fn(Pcb&)` for every PCB in list order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (Pcb* p = head_; p != nullptr; p = p->next) {
      fn(*p);
    }
  }

 private:
  Pcb* head_ = nullptr;
  Pcb* tail_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace tcpdemux::core

#endif  // TCPDEMUX_CORE_PCB_LIST_H_

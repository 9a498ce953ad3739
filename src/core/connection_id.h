// Connection-ID direct indexing — the protocol-extension strawman of §3.5.
//
// TP4, X.25, and XTP negotiate a small integer connection ID carried in
// every data packet, which the receiver uses to index a PCB array directly:
// exactly one PCB examined, no search at all. The paper's point is that
// hashing makes PCB lookup cheap enough that this protocol surgery is not
// worth its cost; this demuxer provides the lower bound the comparison
// needs.
//
// Modeling note: with a real protocol the ID arrives in the packet header.
// Here the "negotiation" is insert() assigning a slot, and lookup() by flow
// key stands in for the receiver reading the ID out of the header — it
// costs the 1 examined PCB the array access would, via an O(1) exact-match
// side table. lookup_by_id() is the literal array access for callers that
// carry the ID themselves.
#ifndef TCPDEMUX_CORE_CONNECTION_ID_H_
#define TCPDEMUX_CORE_CONNECTION_ID_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/demuxer.h"
#include "core/pcb_slab.h"

namespace tcpdemux::core {

class ConnectionIdDemuxer final : public Demuxer {
 public:
  /// `capacity` bounds the PCB array, like a negotiated ID space would.
  explicit ConnectionIdDemuxer(std::size_t capacity = 65536);

  Pcb* insert(const net::FlowKey& key) override;
  bool erase(const net::FlowKey& key) override;
  using Demuxer::lookup;
  LookupResult lookup(const net::FlowKey& key, SegmentKind kind) override;
  [[nodiscard]] Pcb* find(const net::FlowKey& key) const override;
  [[nodiscard]] std::size_t size() const override { return id_by_key_.size(); }
  void for_each_pcb(
      const std::function<void(const Pcb&)>& fn) const override;
  [[nodiscard]] std::string name() const override { return "connection_id"; }
  [[nodiscard]] std::size_t memory_bytes() const override {
    // Slot array + free list + exact-match side table (node estimate).
    return slab_.bytes() + sizeof(*this) +
           slots_.capacity() * sizeof(slots_[0]) +
           free_ids_.capacity() * sizeof(std::uint32_t) +
           id_by_key_.size() * (sizeof(net::FlowKey) + 2 * sizeof(void*));
  }

  /// The negotiated ID for `pcb` (its slot index), as the peer would carry
  /// it in packet headers. `pcb` must be registered here.
  [[nodiscard]] std::uint32_t id_of(const Pcb& pcb) const {
    return id_by_key_.at(pcb.key);
  }

  /// Direct array access by negotiated ID. Always examines exactly 1 PCB.
  [[nodiscard]] Pcb* lookup_by_id(std::uint32_t id) const noexcept;

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

 private:
  friend class StructuralValidator;   // src/core/validate.h
  friend struct ValidatorTestAccess;  // negative validator tests only

  std::size_t capacity_;
  std::vector<Pcb*> slots_;
  std::vector<std::uint32_t> free_ids_;
  std::unordered_map<net::FlowKey, std::uint32_t> id_by_key_;
  PcbSlab slab_;
};

}  // namespace tcpdemux::core

#endif  // TCPDEMUX_CORE_CONNECTION_ID_H_

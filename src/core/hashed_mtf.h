// Hash chains with move-to-front — the combination considered and rejected
// in the paper's §3.5.
//
// "One could imagine combining move-to-front with hash chains. However,
// better results can be obtained simply by increasing the number of hash
// chains." This demuxer exists so tbl5_combination can measure that claim:
// MTF inside a chain buys at most the ~2x a perfect front-of-chain policy
// can deliver, while going from 19 to 100 chains buys ~5x.
#ifndef TCPDEMUX_CORE_HASHED_MTF_H_
#define TCPDEMUX_CORE_HASHED_MTF_H_

#include <cstdint>
#include <vector>

#include "core/demuxer.h"
#include "core/pcb_list.h"
#include "core/pcb_slab.h"
#include "net/hashers.h"

namespace tcpdemux::core {

class HashedMtfDemuxer final : public Demuxer {
 public:
  struct Options {
    std::uint32_t chains = 19;
    net::HasherKind hasher = net::HasherKind::kXorFold;
  };

  HashedMtfDemuxer() : HashedMtfDemuxer(Options()) {}
  explicit HashedMtfDemuxer(Options options);

  Pcb* insert(const net::FlowKey& key) override;
  bool erase(const net::FlowKey& key) override;
  using Demuxer::lookup;
  LookupResult lookup(const net::FlowKey& key, SegmentKind kind) override;
  LookupResult lookup_wildcard(const net::FlowKey& key) override;
  [[nodiscard]] std::size_t size() const override { return size_; }
  void for_each_pcb(
      const std::function<void(const Pcb&)>& fn) const override;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::size_t memory_bytes() const override {
    return slab_.bytes() + sizeof(*this) +
           buckets_.capacity() * sizeof(PcbList);
  }
  [[nodiscard]] std::vector<std::size_t> occupancy() const override {
    std::vector<std::size_t> sizes;
    sizes.reserve(buckets_.size());
    for (const auto& list : buckets_) sizes.push_back(list.count());
    return sizes;
  }

 private:
  friend class StructuralValidator;   // src/core/validate.h
  friend struct ValidatorTestAccess;  // negative validator tests only

  [[nodiscard]] std::uint32_t chain_of(const net::FlowKey& key) const noexcept {
    return net::hash_chain(options_.hasher, key, options_.chains);
  }

  Options options_;
  std::vector<PcbList> buckets_;
  std::size_t size_ = 0;
  PcbSlab slab_;
};

}  // namespace tcpdemux::core

#endif  // TCPDEMUX_CORE_HASHED_MTF_H_

// PcbSlab: the one allocator every PCB-owning demuxer draws its PCBs from.
//
// The paper's figure of merit, PCBs examined, stands in for cache lines
// touched — which only holds if examining a PCB costs one line. A PCB
// allocated by itself lands in an 80-byte malloc chunk aligned to 16
// bytes: three PCBs in four then straddle two lines. The slab instead
// hands out 64-byte slots, 64-byte aligned, carved from fixed-size chunks
// that never move. A chunk is one 2 MiB-aligned 2 MiB mapping (core/
// page_memory.h), so once full it can sit on a single huge page:
//
//   * a slot is exactly one cache line, so a chain walk (key, next) and
//     the TCP fast path read the same single line (pcb.h asserts the
//     layout);
//   * fresh slots are bump-allocated in address order, so a chunk's pages
//     become resident only as its slots are used — which is why a chunk is
//     not advised huge up front: THP would fault in all 2 MiB on the first
//     touch, and the last, partly used chunk would cost up to 2 MiB;
//   * when the next chunk is opened the previous one is full, every page
//     of it touched, so it is collapsed onto a huge page then
//     (MADV_COLLAPSE) and a PCB reference stops paying a 4 KiB page walk;
//   * freed slots are threaded onto an intrusive free list and reused
//     last-in first-out, so the next insert reuses a line still in cache;
//   * Pcb* handles stay valid until destroy(): chunks are only unmapped
//     when the slab itself is destroyed, and then all at once (no walk
//     over the live PCBs).
//
// Each demuxer owns its own slab; the slab is not thread-safe (the
// concurrent demuxer guards its slab with a dedicated mutex).
//
// Under AddressSanitizer every slot that is free or not yet handed out is
// poisoned, so a stale Pcb* read after erase() is reported as a
// use-after-poison — the slab does not hide the bugs per-PCB new/delete
// let ASan catch.
#ifndef TCPDEMUX_CORE_PCB_SLAB_H_
#define TCPDEMUX_CORE_PCB_SLAB_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <new>
#include <type_traits>
#include <vector>

#include "core/page_memory.h"
#include "core/pcb.h"
#include "net/flow_key.h"

namespace tcpdemux::core {

class PcbSlab {
 public:
  /// Slot alignment: a cache line.
  static constexpr std::size_t kSlotAlign = 64;
  /// A chunk is one huge page's worth of slots (32768).
  static constexpr std::size_t kChunkBytes = kHugePageBytes;
  static constexpr std::size_t kSlotsPerChunk = kChunkBytes / sizeof(Pcb);

  PcbSlab() noexcept = default;
  ~PcbSlab() {
    for (Pcb* chunk : chunks_) {
      unpoison_region(chunk, kChunkBytes);
      unmap_pages(chunk, kChunkBytes);
    }
  }

  PcbSlab(const PcbSlab&) = delete;
  PcbSlab& operator=(const PcbSlab&) = delete;

  /// Constructs a PCB for `key` in a free slot: the most recently freed
  /// one, else the next fresh slot, else the first slot of a new chunk
  /// (the only path that allocates; it may throw std::bad_alloc, leaving
  /// the slab unchanged).
  [[nodiscard]] Pcb* make(const net::FlowKey& key) {
    void* slot = nullptr;
    if (free_ != nullptr) {
      unpoison_region(free_, sizeof(Pcb));
      slot = free_;
      free_ = free_->next;
    } else {
      if (fresh_ == fresh_end_) add_chunk();
      slot = fresh_++;
      unpoison_region(slot, sizeof(Pcb));
    }
    ++live_;
    return new (slot) Pcb(key);
  }

  /// Returns `pcb`'s slot to the free list. `pcb` must have come from this
  /// slab's make() and not been destroyed since.
  void destroy(Pcb* pcb) noexcept {
    pcb->~Pcb();
    free_ = new (static_cast<void*>(pcb)) FreeSlot{free_};
    poison_region(pcb, sizeof(Pcb));
    --live_;
  }

  /// PCBs constructed and not yet destroyed.
  [[nodiscard]] std::size_t live() const noexcept { return live_; }
  /// Bytes of chunk memory in use: every chunk but the newest is full, and
  /// the newest counts up to the fresh-slot frontier, rounded up to whole
  /// pages (untouched pages of a mapping are not resident). 0 before the
  /// first make().
  [[nodiscard]] std::size_t bytes() const noexcept {
    if (chunks_.empty()) return 0;
    const Pcb* newest = fresh_end_ - kSlotsPerChunk;
    return (chunks_.size() - 1) * kChunkBytes +
           round_to_pages(static_cast<std::size_t>(fresh_ - newest) *
                          sizeof(Pcb));
  }
  /// True if `pcb` is a slot this slab has handed out: 64-byte aligned, on
  /// a slot boundary inside one of its chunks, and not past the fresh-slot
  /// frontier. Says nothing about whether the slot is live now (see
  /// for_each_free). O(log chunks); a validator hook, not a fast path.
  [[nodiscard]] bool handed_out(const Pcb* pcb) const noexcept {
    const auto addr = std::bit_cast<std::uintptr_t>(pcb);
    if (addr % kSlotAlign != 0) return false;
    const auto after = std::upper_bound(chunks_.begin(), chunks_.end(), pcb,
                                        std::less<const Pcb*>());
    if (after == chunks_.begin()) return false;
    const Pcb* chunk = *(after - 1);
    const auto base = std::bit_cast<std::uintptr_t>(chunk);
    if (addr >= base + kChunkBytes || (addr - base) % sizeof(Pcb) != 0) {
      return false;
    }
    return chunk + kSlotsPerChunk != fresh_end_ || pcb < fresh_;
  }

  /// Calls `fn(const Pcb*)` with the address of every slot on the free
  /// list (validator hook: a reachable PCB on it is a use-after-free).
  template <typename Fn>
  void for_each_free(Fn&& fn) const {
    for (const FreeSlot* s = free_; s != nullptr;) {
      fn(static_cast<const Pcb*>(static_cast<const void*>(s)));
      unpoison_region(s, sizeof(FreeSlot));
      const FreeSlot* next = s->next;
      poison_region(s, sizeof(FreeSlot));
      s = next;
    }
  }

 private:
  /// A free slot's storage: the link to the next free slot.
  struct FreeSlot {
    FreeSlot* next;
  };
  static_assert(std::is_trivially_destructible_v<Pcb>,
                "chunks are released without destroying their PCBs");
  static_assert(sizeof(Pcb) % kSlotAlign == 0,
                "every slot of an aligned chunk must itself be aligned");
  static_assert(kChunkBytes % sizeof(Pcb) == 0,
                "a full chunk is every byte of its huge page");

  void add_chunk() {
    chunks_.reserve(chunks_.size() + 1);  // may throw before any change
    auto* chunk = static_cast<Pcb*>(map_pages(kChunkBytes));
    poison_region(chunk, kChunkBytes);
    // The chunk being left is full: every page of it is resident.
    if (fresh_end_ != nullptr) {
      collapse_huge(fresh_end_ - kSlotsPerChunk, kChunkBytes);
    }
    // Kept in address order, so handed_out() can binary-search.
    chunks_.insert(std::upper_bound(chunks_.begin(), chunks_.end(), chunk,
                                    std::less<Pcb*>()),
                   chunk);
    fresh_ = chunk;
    fresh_end_ = chunk + kSlotsPerChunk;
  }

  std::vector<Pcb*> chunks_;  ///< chunk bases, in address order
  FreeSlot* free_ = nullptr;  ///< free-list head (LIFO)
  Pcb* fresh_ = nullptr;      ///< next never-used slot of the newest chunk
  Pcb* fresh_end_ = nullptr;  ///< end of the newest chunk
  std::size_t live_ = 0;
};

}  // namespace tcpdemux::core

#endif  // TCPDEMUX_CORE_PCB_SLAB_H_

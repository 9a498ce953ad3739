// PcbSlab: the one allocator every PCB-owning demuxer draws its PCBs from.
//
// The paper's figure of merit, PCBs examined, stands in for cache lines
// touched — which only holds if examining a PCB costs one line. A PCB
// allocated by itself lands in a 144-byte malloc chunk aligned to 16
// bytes: three PCBs in four then span three lines, and one in four has
// its key and its chain link on different lines. The slab instead hands
// out 128-byte slots, 64-byte aligned, carved from fixed-size chunks that
// never move:
//
//   * a slot is exactly two cache lines, and the fields a chain walk reads
//     (key, next) share the first (pcb.h asserts the layout);
//   * fresh slots are bump-allocated in address order, so a chunk's pages
//     become resident only as its slots are used;
//   * freed slots are threaded onto an intrusive free list and reused
//     last-in first-out, so the next insert reuses a line still in cache;
//   * Pcb* handles stay valid until destroy(): chunks are only released
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

#include "core/pcb.h"
#include "net/flow_key.h"

#if defined(__SANITIZE_ADDRESS__)
#define TCPDEMUX_PCB_SLAB_POISONS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define TCPDEMUX_PCB_SLAB_POISONS 1
#endif
#endif

#ifdef TCPDEMUX_PCB_SLAB_POISONS
#include <sanitizer/asan_interface.h>
#endif

namespace tcpdemux::core {

class PcbSlab {
 public:
  /// Slot alignment: a cache line.
  static constexpr std::size_t kSlotAlign = 64;
  /// Slots per chunk; a chunk is 64 KiB.
  static constexpr std::size_t kSlotsPerChunk = 512;
  static constexpr std::size_t kChunkBytes = kSlotsPerChunk * sizeof(Pcb);

  PcbSlab() noexcept = default;
  ~PcbSlab() {
    for (Pcb* chunk : chunks_) {
      unpoison(chunk, kChunkBytes);
      ::operator delete(static_cast<void*>(chunk),
                        std::align_val_t{kSlotAlign});
    }
  }

  PcbSlab(const PcbSlab&) = delete;
  PcbSlab& operator=(const PcbSlab&) = delete;

  /// Constructs a PCB for `key` in a free slot: the most recently freed
  /// one, else the next fresh slot, else the first slot of a new chunk
  /// (the only path that allocates; it may throw std::bad_alloc, leaving
  /// the slab unchanged).
  [[nodiscard]] Pcb* make(const net::FlowKey& key, std::uint64_t conn_id) {
    void* slot = nullptr;
    if (free_ != nullptr) {
      unpoison(free_, sizeof(Pcb));
      slot = free_;
      free_ = free_->next;
    } else {
      if (fresh_ == fresh_end_) add_chunk();
      slot = fresh_++;
      unpoison(slot, sizeof(Pcb));
    }
    ++live_;
    return new (slot) Pcb(key, conn_id);
  }

  /// Returns `pcb`'s slot to the free list. `pcb` must have come from this
  /// slab's make() and not been destroyed since.
  void destroy(Pcb* pcb) noexcept {
    pcb->~Pcb();
    free_ = new (static_cast<void*>(pcb)) FreeSlot{free_};
    poison(pcb, sizeof(Pcb));
    --live_;
  }

  /// PCBs constructed and not yet destroyed.
  [[nodiscard]] std::size_t live() const noexcept { return live_; }
  /// Bytes of chunk memory held (0 before the first make()).
  [[nodiscard]] std::size_t bytes() const noexcept {
    return chunks_.size() * kChunkBytes;
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
      unpoison(s, sizeof(FreeSlot));
      const FreeSlot* next = s->next;
      poison(s, sizeof(FreeSlot));
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

  void add_chunk() {
    chunks_.reserve(chunks_.size() + 1);  // may throw before any change
    auto* chunk = static_cast<Pcb*>(
        ::operator new(kChunkBytes, std::align_val_t{kSlotAlign}));
    poison(chunk, kChunkBytes);
    // Kept in address order, so handed_out() can binary-search.
    chunks_.insert(std::upper_bound(chunks_.begin(), chunks_.end(), chunk,
                                    std::less<Pcb*>()),
                   chunk);
    fresh_ = chunk;
    fresh_end_ = chunk + kSlotsPerChunk;
  }

  static void poison([[maybe_unused]] const void* p,
                     [[maybe_unused]] std::size_t n) noexcept {
#ifdef TCPDEMUX_PCB_SLAB_POISONS
    ASAN_POISON_MEMORY_REGION(p, n);
#endif
  }
  static void unpoison([[maybe_unused]] const void* p,
                       [[maybe_unused]] std::size_t n) noexcept {
#ifdef TCPDEMUX_PCB_SLAB_POISONS
    ASAN_UNPOISON_MEMORY_REGION(p, n);
#endif
  }

  std::vector<Pcb*> chunks_;  ///< chunk bases, in address order
  FreeSlot* free_ = nullptr;  ///< free-list head (LIFO)
  Pcb* fresh_ = nullptr;      ///< next never-used slot of the newest chunk
  Pcb* fresh_end_ = nullptr;  ///< end of the newest chunk
  std::size_t live_ = 0;
};

}  // namespace tcpdemux::core

#endif  // TCPDEMUX_CORE_PCB_SLAB_H_

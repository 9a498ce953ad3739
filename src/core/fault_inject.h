// FaultInjector: a process-wide allocation-failure injection point for the
// robustness harness.
//
// Demuxer insert paths (and the SYN cache) call poll_alloc() after their
// duplicate check and *before* any allocation or mutation; a `true` return
// means "pretend the allocator failed" and the caller must back out with no
// state change — exactly the contract a real std::bad_alloc at that point
// would impose. A table's growth and its seed rotation poll too, before
// they allocate their new table; a refusal there defers the growth or
// skips the rotation and leaves every resident where it was. Tests arm the injector, hammer the structure, and run the
// StructuralValidator after every refusal to prove no partial state leaks.
//
// Disarmed cost is a single relaxed atomic load — cheap enough to leave the
// hook compiled into release builds (checkpoints are only counted while
// armed). All state is atomic so TSan-instrumented concurrency tests can
// arm it too.
#ifndef TCPDEMUX_CORE_FAULT_INJECT_H_
#define TCPDEMUX_CORE_FAULT_INJECT_H_

#include <atomic>
#include <cstdint>

namespace tcpdemux::core {

class FaultInjector {
 public:
  /// The process-wide injector instance.
  [[nodiscard]] static FaultInjector& instance() noexcept;

  /// The hook: returns true if this allocation attempt must fail.
  /// Checkpoints are counted only while armed, so test runs are
  /// deterministic regardless of how much code ran while disarmed.
  [[nodiscard]] bool poll_alloc() noexcept {
    if (mode_.load(std::memory_order_relaxed) == Mode::kOff) return false;
    return poll_armed();
  }

  /// Fails every `n`-th checkpoint (n >= 1; n == 1 fails every attempt).
  void arm_every(std::uint64_t n) noexcept;

  /// Fails exactly one checkpoint, the `n`-th from now (n >= 1), then
  /// self-disarms.
  void arm_after(std::uint64_t n) noexcept;

  /// Stops injecting. Counters are left readable.
  void disarm() noexcept;

  /// Disarms and zeroes both counters.
  void reset() noexcept;

  /// Checkpoints polled while armed since the last reset().
  [[nodiscard]] std::uint64_t checkpoints() const noexcept {
    return checkpoints_.load(std::memory_order_relaxed);
  }
  /// Failures injected since the last reset().
  [[nodiscard]] std::uint64_t injected() const noexcept {
    return injected_.load(std::memory_order_relaxed);
  }

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

 private:
  enum class Mode : std::uint8_t { kOff, kEvery, kOnce };

  FaultInjector() noexcept = default;
  [[nodiscard]] bool poll_armed() noexcept;

  std::atomic<Mode> mode_{Mode::kOff};
  std::atomic<std::uint64_t> period_{0};
  std::atomic<std::uint64_t> countdown_{0};
  std::atomic<std::uint64_t> checkpoints_{0};
  std::atomic<std::uint64_t> injected_{0};
};

}  // namespace tcpdemux::core

#endif  // TCPDEMUX_CORE_FAULT_INJECT_H_

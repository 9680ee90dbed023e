// Fixed-capacity lock-free single-producer/single-consumer ring.
//
// The streaming daemon's ingest edge: one application thread pushes
// actions, the reconciler thread drains them. The classic Lamport queue
// with two refinements that matter at millions of ops/sec:
//
//   * head and tail live on their own cache lines (no false sharing), and
//     each side keeps a *cached* copy of the opposite index so the common
//     case (ring neither full nor empty) touches no shared line at all —
//     the shared index is re-read only when the cached value says stop;
//   * `pop_batch` drains a run of slots under a single acquire load, which
//     is what lets the consumer keep up with a producer in a tight loop.
//
// Memory ordering is the textbook pairing: the producer's release store of
// `tail_` publishes the slot write; the consumer's acquire load of `tail_`
// observes it (and symmetrically for `head_` on the return path). T must be
// default-constructible and movable; slots are reused in place, so a
// moved-from T is all the cleanup a pop leaves behind.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <new>
#include <utility>

namespace icecube {

/// Destructive-interference distance. Pinned to 64 rather than read from
/// std::hardware_destructive_interference_size: the library value is an
/// ABI variable (GCC warns on any use), and every platform this builds on
/// pads to 64-byte lines.
inline constexpr std::size_t kCacheLineSize = 64;

/// `CapacityPow2` must be a power of two; the ring holds CapacityPow2 - 1
/// elements (one slot separates full from empty).
template <typename T, std::size_t CapacityPow2>
class SpscRing {
  static_assert(CapacityPow2 >= 2 && (CapacityPow2 & (CapacityPow2 - 1)) == 0,
                "capacity must be a power of two");

 public:
  SpscRing() = default;
  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  [[nodiscard]] static constexpr std::size_t capacity() {
    return CapacityPow2 - 1;
  }

  /// Producer side. False when the ring is full (backpressure: the caller
  /// retries or sheds).
  [[nodiscard]] bool try_push(T value) {
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    const std::size_t next = (tail + 1) & kMask;
    if (next == head_cache_) {
      head_cache_ = head_.load(std::memory_order_acquire);
      if (next == head_cache_) return false;
    }
    slots_[tail] = std::move(value);
    tail_.store(next, std::memory_order_release);
    return true;
  }

  /// Consumer side. False when the ring is empty.
  [[nodiscard]] bool try_pop(T& out) {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    if (head == tail_cache_) {
      tail_cache_ = tail_.load(std::memory_order_acquire);
      if (head == tail_cache_) return false;
    }
    out = std::move(slots_[head]);
    head_.store((head + 1) & kMask, std::memory_order_release);
    return true;
  }

  /// Consumer side: moves up to `max` elements into `out_first, ...` and
  /// returns how many were drained. One acquire load covers the whole run.
  template <typename OutputIt>
  std::size_t pop_batch(OutputIt out_first, std::size_t max) {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    // Refresh the cached tail too: a stale cache behind the new head would
    // make a later try_pop read slots the producer has not published.
    tail_cache_ = tail_.load(std::memory_order_acquire);
    std::size_t avail = (tail_cache_ - head) & kMask;
    if (avail > max) avail = max;
    for (std::size_t i = 0; i < avail; ++i) {
      *out_first++ = std::move(slots_[(head + i) & kMask]);
    }
    if (avail > 0) {
      head_.store((head + avail) & kMask, std::memory_order_release);
    }
    return avail;
  }

  /// Approximate occupancy (exact from the consumer thread).
  [[nodiscard]] std::size_t size() const {
    return (tail_.load(std::memory_order_acquire) -
            head_.load(std::memory_order_acquire)) &
           kMask;
  }
  [[nodiscard]] bool empty() const { return size() == 0; }

 private:
  static constexpr std::size_t kMask = CapacityPow2 - 1;

  std::array<T, CapacityPow2> slots_{};

  alignas(kCacheLineSize) std::atomic<std::size_t> head_{0};  // consumer
  alignas(kCacheLineSize) std::size_t tail_cache_ = 0;  // consumer-private
  alignas(kCacheLineSize) std::atomic<std::size_t> tail_{0};  // producer
  alignas(kCacheLineSize) std::size_t head_cache_ = 0;  // producer-private
};

}  // namespace icecube

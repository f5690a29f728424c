// spsc_ring.hpp — the paper's synchronization-free circular queue.
//
// "ShareStreams' per-stream queues are circular buffers with separate read
// and write pointers for concurrent access, without any synchronization
// needs.  This allows a producer to populate the per-stream queues, while
// the Transmission Engine may concurrently transfer scheduled frames to
// the network."  (Section 4.2.)
//
// This is the classic single-producer/single-consumer lock-free ring:
// the producer owns the write index, the consumer owns the read index,
// and acquire/release pairs order the payload writes against the index
// publication.  Capacity is a power of two; one slot is sacrificed to
// distinguish full from empty.  Cache-line padding keeps the two indices
// from false-sharing — the modern statement of "separate read and write
// pointers".
//
// The buffer is raw storage that no slot is written to before try_push
// fills it, so a ring commits memory page by page as it first fills: a
// 2^17-slot ring costs address space up front, not 3 MB of zeroed pages.
//
// The consumer pops one item per call.  The Transmission Engine pops once
// per grant, and a decision grants each stream at most once, so a
// multi-item pop would never move more than one frame.
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>

#include "util/bitops.hpp"

namespace ss::queueing {

// 64 bytes covers x86-64 and most AArch64 parts; a constant keeps the ABI
// stable across translation units (GCC warns that the library value may
// drift between compiler versions).
inline constexpr std::size_t kCacheLine = 64;

template <typename T>
class SpscRing {
  // Slots are copied in and out of uninitialized storage, never
  // constructed or destroyed one by one.
  static_assert(std::is_trivially_copyable_v<T>,
                "SpscRing holds trivially copyable items only");

 public:
  /// Capacity is rounded up to a power of two; usable slots = capacity-1.
  explicit SpscRing(std::size_t capacity)
      : mask_(next_pow2(capacity < 2 ? 2 : capacity) - 1),
        buf_(static_cast<T*>(::operator new((mask_ + 1) * sizeof(T),
                                            std::align_val_t{alignof(T)}))) {}

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  /// Producer side.  Returns false (drops) when full — the Queue Manager
  /// counts drops rather than blocking the producer thread.
  bool try_push(const T& v) {
    const std::size_t w = write_.load(std::memory_order_relaxed);
    const std::size_t next = (w + 1) & mask_;
    if (next == read_.load(std::memory_order_acquire)) return false;
    buf_[w] = v;
    write_.store(next, std::memory_order_release);
    return true;
  }

  /// Consumer side.
  bool try_pop(T& out) {
    const std::size_t r = read_.load(std::memory_order_relaxed);
    if (r == write_.load(std::memory_order_acquire)) return false;
    out = buf_[r];
    read_.store((r + 1) & mask_, std::memory_order_release);
    return true;
  }

  /// Consumer-side peek without consuming (the scheduler reads head
  /// attributes before committing to a grant).
  bool try_peek(T& out) const { return try_peek_at(0, out); }

  /// Consumer side: copy the `k`-th queued item (0 = the head) without
  /// consuming anything.  Returns false when `k` items or fewer are queued.
  bool try_peek_at(std::size_t k, T& out) const {
    const std::size_t r = read_.load(std::memory_order_relaxed);
    const std::size_t w = write_.load(std::memory_order_acquire);
    if (k >= ((w - r) & mask_)) return false;
    out = buf_[(r + k) & mask_];
    return true;
  }

  /// Approximate size — exact when called from either endpoint's thread
  /// between its own operations.  The read index is loaded FIRST: r <= w
  /// holds at every instant and w only grows, so this order can never
  /// observe r ahead of w.  The reverse order let an observer racing both
  /// endpoints pair a stale w with a fresh r and report a near-full ring
  /// (the (w - r) & mask_ underflow) for an almost-empty one.
  [[nodiscard]] std::size_t size() const {
    const std::size_t r = read_.load(std::memory_order_acquire);
    const std::size_t w = write_.load(std::memory_order_acquire);
    const std::size_t n = (w - r) & mask_;
    return n <= capacity() ? n : capacity();
  }
  [[nodiscard]] bool empty() const { return size() == 0; }
  [[nodiscard]] std::size_t capacity() const { return mask_; }

 private:
  struct Release {
    void operator()(T* p) const {
      ::operator delete(p, std::align_val_t{alignof(T)});
    }
  };
  std::size_t mask_;
  std::unique_ptr<T[], Release> buf_;
  alignas(kCacheLine) std::atomic<std::size_t> read_{0};
  alignas(kCacheLine) std::atomic<std::size_t> write_{0};
};

}  // namespace ss::queueing

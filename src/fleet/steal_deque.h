// A Chase-Lev work-stealing deque (DESIGN.md §2k). The owning worker pushes and
// pops machine tasks at the bottom; idle workers steal from the top with a
// single CAS. Lock-free: the only contended case is a one-element deque, where
// the owner's pop and a thief race on the same CAS and exactly one wins.
//
// Memory orderings follow Lê/Pop/Cohen/Zappa Nardelli, "Correct and Efficient
// Work-Stealing for Weak Memory Models" (PPoPP'13) — the C11 formalization of
// Chase-Lev — so the implementation is data-race-free under the C++ memory
// model. The one deviation is Push, which publishes with a release store instead
// of a release fence, so ThreadSanitizer (which ignores standalone fences) can see
// the hand-off; the tsan preset's fleet_test runs multi-worker fleets over it.
//
// The buffer is fixed-size (capacity chosen at construction): a fleet has a
// known machine count and a machine is enqueued in at most one deque at a time,
// so `capacity >= machine count` can never overflow. Push checks anyway.

#ifndef SRC_FLEET_STEAL_DEQUE_H_
#define SRC_FLEET_STEAL_DEQUE_H_

#include <atomic>
#include <cstdint>
#include <memory>

#include "src/common/check.h"

namespace vfm {

template <typename T>
class StealDeque {
 public:
  explicit StealDeque(size_t min_capacity) {
    capacity_ = 1;
    while (capacity_ < min_capacity) {
      capacity_ <<= 1;
    }
    mask_ = capacity_ - 1;
    buffer_ = std::make_unique<std::atomic<T*>[]>(capacity_);
  }

  size_t capacity() const { return capacity_; }

  // Owner only: enqueue at the bottom.
  void Push(T* item) {
    const int64_t b = bottom_.load(std::memory_order_relaxed);
    const int64_t t = top_.load(std::memory_order_acquire);
    VFM_CHECK_MSG(b - t < static_cast<int64_t>(capacity_), "StealDeque overflow");
    buffer_[b & mask_].store(item, std::memory_order_relaxed);
    // Publish the element before the new bottom becomes visible to thieves: this
    // release store pairs with Steal's acquire load of bottom_. (Lê et al.'s
    // standalone release fence plus a relaxed store is equivalent, but TSan does not
    // model standalone fences, and on x86 both compile to a plain store.)
    bottom_.store(b + 1, std::memory_order_release);
  }

  // Owner only: dequeue from the bottom (LIFO — keeps the owner on cache-warm
  // work). Returns nullptr when empty or when a thief won the last element.
  T* Pop() {
    const int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
    bottom_.store(b, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    int64_t t = top_.load(std::memory_order_relaxed);
    T* item = nullptr;
    if (t <= b) {
      item = buffer_[b & mask_].load(std::memory_order_relaxed);
      if (t == b) {
        // Last element: race the thieves for it.
        if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                          std::memory_order_relaxed)) {
          item = nullptr;
        }
        bottom_.store(b + 1, std::memory_order_relaxed);
      }
    } else {
      bottom_.store(b + 1, std::memory_order_relaxed);
    }
    return item;
  }

  // Any thread: steal from the top (FIFO — thieves take the oldest work, the
  // most likely to be cache-cold anyway). Returns nullptr when empty or when
  // another thread won the race; the caller just tries the next victim.
  T* Steal() {
    int64_t t = top_.load(std::memory_order_acquire);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    const int64_t b = bottom_.load(std::memory_order_acquire);
    if (t >= b) {
      return nullptr;
    }
    T* item = buffer_[t & mask_].load(std::memory_order_relaxed);
    if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                      std::memory_order_relaxed)) {
      return nullptr;
    }
    return item;
  }

  bool Empty() const {
    return bottom_.load(std::memory_order_relaxed) <=
           top_.load(std::memory_order_relaxed);
  }

 private:
  std::unique_ptr<std::atomic<T*>[]> buffer_;
  size_t capacity_ = 0;
  size_t mask_ = 0;
  // top_ only grows (steals and winning pops); bottom_ is owner-private except
  // for the acquire load in Steal.
  std::atomic<int64_t> top_{0};
  std::atomic<int64_t> bottom_{0};
};

}  // namespace vfm

#endif  // SRC_FLEET_STEAL_DEQUE_H_

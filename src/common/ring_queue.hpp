// FIFO queue over a ring buffer that keeps its capacity.
//
// RingQueue<T> stores its elements in one std::vector used as a ring whose
// size is a power of two. It grows by doubling when full and never shrinks,
// so a queue that is pushed and popped in steady state allocates nothing
// once warm (a std::deque allocates a chunk whenever the queue advances
// past a chunk boundary). A popped slot is reset to T{}, which releases
// whatever the element held; recycle_front() instead leaves the element
// in its slot, so the next push_slot() that lands there reuses whatever
// storage it kept.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "common/assert.hpp"

namespace troxy {

template <class T>
class RingQueue {
  public:
    [[nodiscard]] std::size_t size() const noexcept { return size_; }
    [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

    void push_back(T&& value) {
        if (size_ == slots_.size()) grow();
        slots_[(head_ + size_) & (slots_.size() - 1)] = std::move(value);
        ++size_;
    }

    /// Appends a slot and returns it as its last occupant left it: a
    /// never-used slot holds T{}, a recycled one its old element, whose
    /// storage the caller overwrites in place.
    [[nodiscard]] T& push_slot() {
        if (size_ == slots_.size()) grow();
        ++size_;
        return back();
    }

    [[nodiscard]] T& front() noexcept { return slots_[head_]; }
    [[nodiscard]] T& back() noexcept { return (*this)[size_ - 1]; }

    /// Resets the front slot and advances past it.
    void pop_front() {
        TROXY_ASSERT(size_ > 0, "pop_front on an empty queue");
        slots_[head_] = T{};
        head_ = (head_ + 1) & (slots_.size() - 1);
        --size_;
    }

    /// Advances past the front slot without resetting it: the element
    /// stays for a later push_slot(). The caller first drops whatever in
    /// it must not outlive the pop.
    void recycle_front() {
        TROXY_ASSERT(size_ > 0, "recycle_front on an empty queue");
        head_ = (head_ + 1) & (slots_.size() - 1);
        --size_;
    }

    /// The i-th element from the front.
    [[nodiscard]] T& operator[](std::size_t i) noexcept {
        return slots_[(head_ + i) & (slots_.size() - 1)];
    }
    [[nodiscard]] const T& operator[](std::size_t i) const noexcept {
        return slots_[(head_ + i) & (slots_.size() - 1)];
    }

    /// Empties the queue, keeping its capacity.
    void clear() {
        while (size_ > 0) pop_front();
        head_ = 0;
    }

  private:
    void grow() {
        std::vector<T> wider(slots_.empty() ? 8 : 2 * slots_.size());
        for (std::size_t i = 0; i < size_; ++i) {
            wider[i] = std::move((*this)[i]);
        }
        slots_ = std::move(wider);
        head_ = 0;
    }

    std::vector<T> slots_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
};

}  // namespace troxy

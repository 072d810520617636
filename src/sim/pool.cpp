#include "sim/pool.hpp"

#include <utility>

namespace troxy::sim {

std::size_t BufferPool::class_for(std::size_t size) noexcept {
    for (std::size_t c = 0; c < kClassSizes.size(); ++c) {
        if (size <= kClassSizes[c]) return c;
    }
    return kClassSizes.size();
}

std::size_t BufferPool::class_of_capacity(std::size_t capacity) noexcept {
    // Buffers below the smallest class serve no acquire(); buffers above
    // the largest would be retained at their full (unbounded) capacity if
    // banked into the top class, so both are discarded.
    if (capacity < kClassSizes.front() ||
        capacity > kClassSizes.back() * 2) {
        return kClassSizes.size();
    }
    std::size_t best = 0;
    for (std::size_t c = 0; c < kClassSizes.size(); ++c) {
        if (kClassSizes[c] <= capacity) best = c;
    }
    return best;
}

Bytes BufferPool::acquire(std::size_t size) {
    Bytes buffer = acquire_empty(size);
    buffer.resize(size);
    return buffer;
}

Bytes BufferPool::acquire_empty(std::size_t capacity) {
    const std::size_t c = class_for(capacity);
    if (c < kClassSizes.size() && !classes_[c].empty()) {
        ++stats_.hits;
        Bytes buffer = std::move(classes_[c].back());
        classes_[c].pop_back();
        retained_[c] -= buffer.capacity();
        buffer.clear();
        return buffer;
    }
    ++stats_.misses;
    Bytes buffer;
    buffer.reserve(c < kClassSizes.size() ? kClassSizes[c] : capacity);
    return buffer;
}

void BufferPool::release(Bytes&& buffer) noexcept {
    (void)release_counted(std::move(buffer));
}

bool BufferPool::release_counted(Bytes&& buffer) noexcept {
    const std::size_t capacity = buffer.capacity();
    const std::size_t c = class_of_capacity(capacity);
    if (c >= kClassSizes.size() ||
        retained_[c] + capacity > kClassBudgetBytes) {
        ++stats_.discarded;
        return false;
    }
    ++stats_.recycled;
    retained_[c] += capacity;
    classes_[c].push_back(std::move(buffer));
    return true;
}

}  // namespace troxy::sim

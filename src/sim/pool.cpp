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
        return take(c, classes_[c].size() - 1);
    }
    if (c == kClassSizes.size() && capacity <= kClassSizes.back() * 2) {
        // Just above the top class: the top class banks buffers of up to
        // twice its size, so the most recent one large enough serves.
        std::vector<Bytes>& top = classes_.back();
        for (std::size_t i = top.size(); i-- > 0;) {
            if (top[i].capacity() >= capacity) {
                return take(kClassSizes.size() - 1, i);
            }
        }
    }
    ++stats_.misses;
    Bytes buffer;
    buffer.reserve(c < kClassSizes.size() ? kClassSizes[c] : capacity);
    return buffer;
}

Bytes BufferPool::take(std::size_t c, std::size_t index) {
    ++stats_.hits;
    std::vector<Bytes>& stock = classes_[c];
    Bytes buffer = std::move(stock[index]);
    stock.erase(stock.begin() + static_cast<std::ptrdiff_t>(index));
    retained_[c] -= buffer.capacity();
    buffer.clear();
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

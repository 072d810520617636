#include "troxy/cache.hpp"

#include <algorithm>

namespace troxy::troxy_core {

FastReadCache::FastReadCache(enclave::EnclaveGate& gate,
                             std::size_t capacity_bytes)
    : gate_(gate), capacity_(capacity_bytes) {}

std::size_t FastReadCache::footprint(std::string_view key,
                                     std::size_t result_size) {
    return key.size() + result_size + sizeof(CacheEntry) + 64;
}

void FastReadCache::unlink(std::uint32_t index) {
    Slot& s = slot(index);
    (s.prev == kNil ? head_ : slot(s.prev).next) = s.next;
    (s.next == kNil ? tail_ : slot(s.next).prev) = s.prev;
}

void FastReadCache::push_front(std::uint32_t index) {
    Slot& s = slot(index);
    s.prev = kNil;
    s.next = head_;
    (head_ == kNil ? tail_ : slot(head_).prev) = index;
    head_ = index;
}

const CacheEntry* FastReadCache::get(std::string_view state_key) {
    const std::uint32_t* found = index_.find(state_key);
    if (found == nullptr) return nullptr;
    unlink(*found);
    push_front(*found);
    return &slot(*found).entry;
}

void FastReadCache::put(std::string_view state_key,
                        const crypto::Sha256Digest& request_digest,
                        ByteView result,
                        const crypto::Sha256Digest& result_digest) {
    invalidate(state_key);
    const std::size_t size = footprint(state_key, result.size());
    std::uint32_t index = free_;
    if (index == kNil) {
        index = slots_used_++;
        if (index % kChunkSlots == 0) {
            chunks_.push_back(std::make_unique<Slot[]>(kChunkSlots));
        }
    } else {
        free_ = slot(index).next;
    }
    Slot& s = slot(index);
    s.key.assign(state_key);
    s.entry.request_digest = request_digest;
    s.entry.result.assign(result.begin(), result.end());
    s.entry.result_digest = result_digest;
    push_front(index);
    index_.try_emplace(state_key, index);
    bytes_ += size;
    gate_.allocate(size);
    evict_if_needed();
}

void FastReadCache::invalidate(std::string_view state_key) {
    const std::uint32_t* found = index_.find(state_key);
    if (found == nullptr) return;
    const std::uint32_t index = *found;
    Slot& s = slot(index);
    const std::size_t size = footprint(s.key, s.entry.result.size());
    unlink(index);
    index_.erase(state_key);  // may view s.key: erase before clearing it
    s.key.clear();
    s.entry.result.clear();
    s.next = free_;
    free_ = index;
    bytes_ -= size;
    gate_.release(size);
}

void FastReadCache::clear() {
    gate_.release(bytes_);
    bytes_ = 0;
    chunks_.clear();
    slots_used_ = 0;
    index_.clear();
    head_ = tail_ = free_ = kNil;
}

void FastReadCache::evict_if_needed() {
    while (bytes_ > capacity_ && tail_ != kNil) {
        invalidate(slot(tail_).key);
    }
}

void MissRateMonitor::record(bool miss) {
    const double alpha = 1.0 / static_cast<double>(options_.window);
    if (samples_ < options_.window) ++samples_;
    miss_ewma_ = (1.0 - alpha) * miss_ewma_ + alpha * (miss ? 1.0 : 0.0);

    if (!options_.adaptive || !fast_enabled_) return;
    if (samples_ >= options_.window / 2 &&
        miss_ewma_ > options_.miss_threshold) {
        fast_enabled_ = false;
        cooldown_left_ = options_.cooldown;
        ++switches_;
        // Reset the estimate so the next probe starts fresh.
        miss_ewma_ = 0.0;
        samples_ = 0;
    }
}

void MissRateMonitor::record_total_order() {
    if (fast_enabled_ || !options_.adaptive) return;
    if (cooldown_left_ > 0) --cooldown_left_;
    if (cooldown_left_ == 0) {
        fast_enabled_ = true;
        ++switches_;
    }
}

double MissRateMonitor::miss_rate() const noexcept { return miss_ewma_; }

}  // namespace troxy::troxy_core

#include "troxy/shard_router.hpp"

#include <algorithm>
#include <stdexcept>

namespace troxy::troxy_core {

ShardMap ShardMap::split_evenly(std::vector<std::string> keys, int shards) {
    if (shards < 1) {
        throw std::invalid_argument(
            "ShardMap::split_evenly: shard count must be at least 1, got " +
            std::to_string(shards));
    }
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    if (static_cast<int>(keys.size()) < shards) {
        throw std::invalid_argument(
            "ShardMap::split_evenly: " + std::to_string(keys.size()) +
            " distinct keys cannot populate " + std::to_string(shards) +
            " shards");
    }
    std::vector<std::string> boundaries;
    boundaries.reserve(static_cast<std::size_t>(shards) - 1);
    for (int s = 1; s < shards; ++s) {
        boundaries.push_back(
            keys[keys.size() * static_cast<std::size_t>(s) /
                 static_cast<std::size_t>(shards)]);
    }
    ShardMap map(std::move(boundaries));
    map.validate();
    return map;
}

int ShardMap::shard_of(std::string_view state_key) const noexcept {
    // Half-open ranges: shard index = number of boundaries ≤ key, so a
    // key equal to boundary b_i lands in the shard b_i starts (i+1).
    const auto it = std::upper_bound(boundaries_.begin(), boundaries_.end(),
                                     state_key);
    return static_cast<int>(it - boundaries_.begin());
}

ShardSet ShardMap::shards_of(const hybster::RequestInfo& info) const {
    ShardSet shards;
    for (const std::string& key : info.keys()) shards.insert(shard_of(key));
    return shards;
}

namespace {

/// SplitMix64 finalizer: a cheap, well-mixed 64-bit hash whose output is
/// a pure function of its input — exactly what a deterministic,
/// seed-replayable ring needs (no process-randomized std::hash).
std::uint64_t mix64(std::uint64_t x) noexcept {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

}  // namespace

FrontMap::FrontMap(int fronts, int vnodes) : fronts_(fronts) {
    if (fronts_ < 1) {
        throw std::invalid_argument(
            "FrontMap: front count must be at least 1, got " +
            std::to_string(fronts));
    }
    if (vnodes < 1) {
        throw std::invalid_argument(
            "FrontMap: vnodes per front must be at least 1, got " +
            std::to_string(vnodes));
    }
    ring_.reserve(static_cast<std::size_t>(fronts_) *
                  static_cast<std::size_t>(vnodes));
    for (int f = 0; f < fronts_; ++f) {
        for (int v = 0; v < vnodes; ++v) {
            // Domain-separate front id and replica index so ring points
            // never collide structurally across (f, v) pairs.
            const std::uint64_t point =
                mix64((static_cast<std::uint64_t>(f) << 32) |
                      (static_cast<std::uint64_t>(v) + 1));
            ring_.emplace_back(point, f);
        }
    }
    std::sort(ring_.begin(), ring_.end());
}

int FrontMap::front_of(std::uint64_t client) const noexcept {
    const std::uint64_t point = mix64(client ^ 0xf7043f5fa2f0df0dULL);
    auto it = std::lower_bound(
        ring_.begin(), ring_.end(),
        std::make_pair(point, 0),
        [](const auto& a, const auto& b) { return a.first < b.first; });
    if (it == ring_.end()) it = ring_.begin();  // wrap at the ring's top
    return it->second;
}

std::vector<int> FrontMap::failover_order(std::uint64_t client) const {
    std::vector<int> order;
    order.reserve(static_cast<std::size_t>(fronts_));
    const std::uint64_t point = mix64(client ^ 0xf7043f5fa2f0df0dULL);
    auto it = std::lower_bound(
        ring_.begin(), ring_.end(),
        std::make_pair(point, 0),
        [](const auto& a, const auto& b) { return a.first < b.first; });
    for (std::size_t walked = 0;
         walked < ring_.size() &&
         order.size() < static_cast<std::size_t>(fronts_);
         ++walked, ++it) {
        if (it == ring_.end()) it = ring_.begin();
        const int front = it->second;
        if (std::find(order.begin(), order.end(), front) == order.end()) {
            order.push_back(front);
        }
    }
    return order;
}

void ShardMap::validate() const {
    if (shard_count() > ShardSet::kMaxShards) {
        throw std::invalid_argument(
            "ShardMap: " + std::to_string(shard_count()) +
            " shards exceed the maximum of " +
            std::to_string(ShardSet::kMaxShards));
    }
    for (std::size_t i = 0; i < boundaries_.size(); ++i) {
        if (boundaries_[i].empty()) {
            throw std::invalid_argument(
                "ShardMap: boundary " + std::to_string(i + 1) +
                " is empty — shard " + std::to_string(i) +
                "'s key range would be empty");
        }
        if (i > 0 && boundaries_[i] <= boundaries_[i - 1]) {
            throw std::invalid_argument(
                "ShardMap: boundaries must be strictly increasing, but "
                "boundary " +
                std::to_string(i + 1) + " (\"" + boundaries_[i] +
                "\") <= boundary " + std::to_string(i) + " (\"" +
                boundaries_[i - 1] + "\") — shard " + std::to_string(i) +
                "'s key range would be empty");
        }
    }
}

}  // namespace troxy::troxy_core

// Open-addressing hash table for bookkeeping that is only looked up.
//
// FlatMap keeps every entry in one slot array: linear probing on insert
// and lookup, backward-shift deletion on erase (no tombstones, so a
// steady insert/erase cycle never rehashes and never allocates once the
// array has grown to fit). String-keyed tables look up by
// std::string_view without building a temporary std::string.
//
// The table deliberately offers no iteration: its slot order depends on
// hashes and history, so any table whose order can reach the simulation
// stays an ordered container. Pointers returned by find/try_emplace are
// invalidated by the next insert or erase.
#pragma once

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace troxy {

/// Default hash: the MurmurHash3 64-bit finalizer for integers (request
/// numbers and ids are sequential; mixing spreads them over all bits),
/// std::hash<std::string_view> for strings.
template <class K>
struct FlatHash {
    std::size_t operator()(std::uint64_t x) const noexcept
        requires std::integral<K>
    {
        x ^= x >> 33;
        x *= 0xff51afd7ed558ccdULL;
        x ^= x >> 33;
        x *= 0xc4ceb9fe1a85ec53ULL;
        x ^= x >> 33;
        return static_cast<std::size_t>(x);
    }
};

template <>
struct FlatHash<std::string> {
    std::size_t operator()(std::string_view key) const noexcept {
        return std::hash<std::string_view>{}(key);
    }
};

template <class K, class V, class Hash = FlatHash<K>>
class FlatMap {
  public:
    [[nodiscard]] std::size_t size() const noexcept { return size_; }
    [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

    /// The value stored under `key`, or nullptr.
    template <class Q>
    [[nodiscard]] V* find(const Q& key) noexcept {
        const std::size_t i = locate(key);
        return i == kNone ? nullptr : &slots_[i].entry->value;
    }
    template <class Q>
    [[nodiscard]] const V* find(const Q& key) const noexcept {
        const std::size_t i = locate(key);
        return i == kNone ? nullptr : &slots_[i].entry->value;
    }
    template <class Q>
    [[nodiscard]] bool contains(const Q& key) const noexcept {
        return locate(key) != kNone;
    }

    /// Inserts V(args...) under `key` unless the key is present; returns
    /// the stored value and whether it was inserted.
    template <class Q, class... Args>
    std::pair<V*, bool> try_emplace(Q&& key, Args&&... args) {
        if ((size_ + 1) * 4 > slots_.size() * 3) grow();
        const std::size_t hash = Hash{}(key);
        std::size_t i = hash & mask();
        while (slots_[i].entry) {
            if (slots_[i].hash == hash && slots_[i].entry->key == key) {
                return {&slots_[i].entry->value, false};
            }
            i = (i + 1) & mask();
        }
        slots_[i].hash = hash;
        slots_[i].entry.emplace(std::forward<Q>(key),
                                std::forward<Args>(args)...);
        ++size_;
        return {&slots_[i].entry->value, true};
    }

    /// Removes `key`; returns whether it was present.
    template <class Q>
    bool erase(const Q& key) {
        std::size_t hole = locate(key);
        if (hole == kNone) return false;
        // Backward shift (Knuth's Algorithm R): walk the rest of the
        // probe run and move back every entry whose home slot does not
        // lie cyclically in (hole, j], so every lookup still finds its
        // key without tombstones.
        for (std::size_t j = (hole + 1) & mask(); slots_[j].entry;
             j = (j + 1) & mask()) {
            const std::size_t home = slots_[j].hash & mask();
            const bool stays = hole <= j ? (hole < home && home <= j)
                                         : (hole < home || home <= j);
            if (stays) continue;
            move_slot(slots_[j], slots_[hole]);
            hole = j;
        }
        slots_[hole].entry.reset();
        --size_;
        return true;
    }

    /// Drops every entry; the slot array keeps its capacity.
    void clear() noexcept {
        for (Slot& slot : slots_) slot.entry.reset();
        size_ = 0;
    }

  private:
    struct Entry {
        template <class Q, class... Args>
        explicit Entry(Q&& k, Args&&... args)
            : key(std::forward<Q>(k)), value(std::forward<Args>(args)...) {}
        K key;
        V value;
    };
    struct Slot {
        std::size_t hash = 0;
        std::optional<Entry> entry;  // engaged = occupied
    };

    static constexpr std::size_t kNone = ~std::size_t{0};

    [[nodiscard]] std::size_t mask() const noexcept {
        return slots_.size() - 1;
    }

    template <class Q>
    [[nodiscard]] std::size_t locate(const Q& key) const noexcept {
        if (size_ == 0) return kNone;
        const std::size_t hash = Hash{}(key);
        for (std::size_t i = hash & mask(); slots_[i].entry;
             i = (i + 1) & mask()) {
            if (slots_[i].hash == hash && slots_[i].entry->key == key) {
                return i;
            }
        }
        return kNone;
    }

    /// Doubles the slot array (power of two, at least 8) and reinserts
    /// every entry by its stored hash, keeping the load at most 3/4.
    void grow() {
        std::vector<Slot> old(slots_.empty() ? 8 : slots_.size() * 2);
        old.swap(slots_);
        for (Slot& slot : old) {
            if (!slot.entry) continue;
            std::size_t i = slot.hash & mask();
            while (slots_[i].entry) i = (i + 1) & mask();
            move_slot(slot, slots_[i]);
        }
    }

    static void move_slot(Slot& from, Slot& to) {
        to.hash = from.hash;
        to.entry.reset();
        to.entry.emplace(std::move(*from.entry));
    }

    std::vector<Slot> slots_;
    std::size_t size_ = 0;
};

/// A key-only FlatMap.
template <class K>
using FlatSet = FlatMap<K, std::monostate>;

}  // namespace troxy

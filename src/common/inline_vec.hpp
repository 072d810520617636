// Small vector with inline capacity for short per-request lists.
//
// InlineVec<T, N> keeps up to N elements in an inline array and moves
// them to a heap vector only when an (N+1)-th arrives. Elements are
// contiguous in either mode, so the list sorts and indexes like a
// vector. clear() keeps every buffer: the inline slots stay constructed
// (a std::string slot keeps its own capacity for the next assignment)
// and a spilled list keeps its heap capacity, so a list that is cleared
// and refilled allocates nothing once warm. Copies and moves carry only
// the live elements.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <initializer_list>
#include <utility>
#include <vector>

namespace troxy {

template <class T, std::size_t N>
class InlineVec {
  public:
    using value_type = T;
    using iterator = T*;
    using const_iterator = const T*;

    InlineVec() = default;
    InlineVec(std::initializer_list<T> items) {
        assign(items.begin(), items.end());
    }
    InlineVec(const InlineVec& other) { assign(other.begin(), other.end()); }
    InlineVec(InlineVec&& other) noexcept { take(other); }
    InlineVec& operator=(const InlineVec& other) {
        if (this != &other) assign(other.begin(), other.end());
        return *this;
    }
    InlineVec& operator=(InlineVec&& other) noexcept {
        if (this != &other) {
            clear();
            take(other);
        }
        return *this;
    }

    /// Replaces the contents with [first, last).
    template <class It>
    void assign(It first, It last) {
        clear();
        for (; first != last; ++first) push_back(*first);
    }

    void push_back(const T& value) { put(value); }
    void push_back(T&& value) { put(std::move(value)); }

    /// Spills to the heap when `capacity` exceeds the inline array.
    void reserve(std::size_t capacity) {
        if (capacity <= N && !spilled_) return;
        heap_.reserve(capacity);
        if (spilled_) return;
        for (std::size_t i = 0; i < size_; ++i) {
            heap_.push_back(std::move(inline_[i]));
        }
        spilled_ = true;
    }

    /// Removes [first, last), shifting the tail down.
    iterator erase(const_iterator first, const_iterator last) {
        T* const from = begin() + (first - begin());
        T* const to = begin() + (last - begin());
        std::move(to, end(), from);
        const std::size_t removed = static_cast<std::size_t>(to - from);
        if (spilled_) heap_.erase(heap_.end() - removed, heap_.end());
        size_ -= removed;
        return from;
    }

    /// Empties the list, keeping the inline slots and any heap capacity.
    void clear() noexcept {
        heap_.clear();
        spilled_ = false;
        size_ = 0;
    }

    [[nodiscard]] std::size_t size() const noexcept { return size_; }
    [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
    [[nodiscard]] T* data() noexcept {
        return spilled_ ? heap_.data() : inline_.data();
    }
    [[nodiscard]] const T* data() const noexcept {
        return spilled_ ? heap_.data() : inline_.data();
    }
    [[nodiscard]] iterator begin() noexcept { return data(); }
    [[nodiscard]] iterator end() noexcept { return data() + size_; }
    [[nodiscard]] const_iterator begin() const noexcept { return data(); }
    [[nodiscard]] const_iterator end() const noexcept {
        return data() + size_;
    }
    [[nodiscard]] const T& operator[](std::size_t i) const noexcept {
        return data()[i];
    }

    friend bool operator==(const InlineVec& a, const InlineVec& b) {
        return std::equal(a.begin(), a.end(), b.begin(), b.end());
    }

  private:
    /// Appends `value`, assigning into an inline slot (which keeps that
    /// slot's own buffer) until the array is full, then spilling.
    template <class U>
    void put(U&& value) {
        if (!spilled_ && size_ == N) reserve(2 * N);
        if (spilled_) {
            heap_.push_back(std::forward<U>(value));
        } else {
            inline_[size_] = std::forward<U>(value);
        }
        ++size_;
    }

    /// Moves `other`'s live elements in; `this` must be empty.
    void take(InlineVec& other) noexcept {
        if (other.spilled_) {
            heap_ = std::move(other.heap_);
            spilled_ = true;
        } else {
            std::move(other.inline_.begin(),
                      other.inline_.begin() + other.size_, inline_.begin());
        }
        size_ = other.size_;
        other.clear();
    }

    std::array<T, N> inline_{};
    std::vector<T> heap_;
    std::size_t size_ = 0;
    bool spilled_ = false;
};

}  // namespace troxy

// Size-class buffer pool.
//
// Wire messages and payload buffers churn through the simulator at
// millions per run; allocating a fresh std::vector backing store for each
// one makes malloc the hot path. The network owns one pool and the wire
// loop around it is closed: every frame a host sends is drawn from it
// (encoders take the pool, not a heap fallback), and every frame a host
// consumes goes back to it, including the members an Outbox copies into
// a Bundle and the frames a crashed host drops. release() banks a retired
// buffer on its class freelist (LIFO), acquire() hands the capacity back
// out without touching the allocator. Contents of acquired buffers are
// unspecified — callers overwrite every byte they use.
//
// Each class retains at most kClassBudgetBytes of buffer capacity, so a
// small class keeps the thousands of frames a pipelined load has in
// flight while the 64 KiB class keeps a handful; a release past the
// budget frees its buffer.
//
// The pool is fully deterministic (no randomness, LIFO order) and only
// ever moves capacity, never bytes, so pooled runs replay bit-identically
// to unpooled ones.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/bytes.hpp"

namespace troxy::sim {

class BufferPool {
  public:
    /// Capacity classes; buffers above twice the largest class are never
    /// pooled.
    static constexpr std::array<std::size_t, 6> kClassSizes = {
        64, 256, 1024, 4096, 16384, 65536};
    /// Capacity, in bytes, each class retains at most; releases past it
    /// are discarded to bound steady-state memory. The 1 KiB class keeps
    /// up to 4,096 frames, the 16 KiB class 256 and the 64 KiB class 64.
    static constexpr std::size_t kClassBudgetBytes = std::size_t{4} << 20;

    struct Stats {
        std::uint64_t hits = 0;       // acquires served from a freelist
        std::uint64_t misses = 0;     // acquires that had to allocate
        std::uint64_t recycled = 0;   // releases banked on a freelist
        std::uint64_t discarded = 0;  // releases dropped (size/budget)
    };

    /// Returns a buffer of exactly `size` bytes (unspecified contents),
    /// recycled when a matching class has stock.
    [[nodiscard]] Bytes acquire(std::size_t size);

    /// Like acquire() but returns an *empty* buffer whose capacity covers
    /// `capacity` bytes — for append-style writers. A capacity above the
    /// top class but at most twice it takes the most recently banked
    /// top-class buffer that is large enough, since the top class banks
    /// buffers of that size.
    [[nodiscard]] Bytes acquire_empty(std::size_t capacity);

    /// Banks a retired buffer for reuse; cheap no-op when it does not fit
    /// any class or the class is full.
    void release(Bytes&& buffer) noexcept;

    /// release() that reports whether the buffer was banked (true) or
    /// discarded (false) — for callers that keep their own counters.
    bool release_counted(Bytes&& buffer) noexcept;

    [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

  private:
    /// Smallest class covering `size`; kClassSizes.size() if oversize.
    [[nodiscard]] static std::size_t class_for(std::size_t size) noexcept;
    /// Largest class a buffer of `capacity` can serve; kClassSizes.size()
    /// if below the smallest class.
    [[nodiscard]] static std::size_t class_of_capacity(
        std::size_t capacity) noexcept;
    /// Hands out the banked buffer at `index` of class `c`, emptied.
    [[nodiscard]] Bytes take(std::size_t c, std::size_t index);

    std::array<std::vector<Bytes>, kClassSizes.size()> classes_;
    /// Summed capacity of each class's banked buffers.
    std::array<std::size_t, kClassSizes.size()> retained_{};
    Stats stats_;
};

}  // namespace troxy::sim

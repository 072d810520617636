// Managed fast-read cache (§IV).
//
// The cache maps a state key (the partition a request touches, from
// Service::classify) to the last correctly executed read on that key:
// request digest plus result. It is *actively maintained*: every write
// reply that passes through the trusted reply-authentication path removes
// the entry for the written key before the write becomes visible to any
// client — this is what lets the quorum-intersection argument of §IV-B
// guarantee linearizability of fast reads.
//
// Entries enter the cache from two trustworthy-enough sources:
//   * local ordered-read execution (value correctness is protected by the
//     f+1 cache-match quorum at read time, so a faulty local replica can
//     only cause mismatches, never wrong results), and
//   * voted results at the contact Troxy (already proven correct).
// Write replies never *update* the cache ("a faulty replica should not be
// able to pollute the cache", §IV-B) — they only invalidate.
//
// A miss-rate monitor implements the §IV-B / §VI-C3 optimization: when the
// recent miss/conflict rate exceeds a threshold, the fast path is switched
// off in favour of total ordering, and probed again after a cooldown.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.hpp"
#include "common/flat_map.hpp"
#include "crypto/sha256.hpp"
#include "enclave/gate.hpp"

namespace troxy::troxy_core {

struct CacheEntry {
    crypto::Sha256Digest request_digest{};
    Bytes result;
    /// SHA-256 of `result`, computed once at insertion so that remote
    /// cache queries and quorum comparisons never re-hash large replies.
    crypto::Sha256Digest result_digest{};
};

class FastReadCache {
  public:
    /// `gate` accounts the entries against the EPC model; `capacity_bytes`
    /// bounds the cache (LRU eviction).
    FastReadCache(enclave::EnclaveGate& gate, std::size_t capacity_bytes);

    /// Looks up the entry for a state key (refreshes LRU position).
    [[nodiscard]] const CacheEntry* get(std::string_view state_key);

    /// Inserts or overwrites the entry for a state key. The result is
    /// copied into the slot's kept buffer, so a warm refill allocates
    /// nothing.
    void put(std::string_view state_key,
             const crypto::Sha256Digest& request_digest, ByteView result,
             const crypto::Sha256Digest& result_digest);

    /// Removes the entry for a state key (write invalidation). The slot
    /// keeps its buffers, cleared, for the next put().
    void invalidate(std::string_view state_key);

    /// Drops everything (enclave restart: "the cache would simply lose
    /// its entire state", §IV-B).
    void clear();

    [[nodiscard]] std::size_t entries() const noexcept {
        return index_.size();
    }
    [[nodiscard]] std::size_t bytes_used() const noexcept { return bytes_; }

  private:
    static constexpr std::uint32_t kNil = ~std::uint32_t{0};

    /// Slots per chunk of the slot store.
    static constexpr std::uint32_t kChunkSlots = 256;

    /// One cached key, linked into the LRU list by slot index. Unused
    /// slots chain through `next` on the free list and are reused before
    /// the slot store grows.
    struct Slot {
        std::string key;
        CacheEntry entry;
        std::uint32_t prev = kNil;  // towards the most recent
        std::uint32_t next = kNil;  // towards the least recent
    };

    [[nodiscard]] Slot& slot(std::uint32_t index) noexcept {
        return chunks_[index / kChunkSlots][index % kChunkSlots];
    }

    [[nodiscard]] static std::size_t footprint(std::string_view key,
                                               std::size_t result_size);
    void unlink(std::uint32_t slot);
    void push_front(std::uint32_t slot);
    void evict_if_needed();

    enclave::EnclaveGate& gate_;
    std::size_t capacity_;
    std::size_t bytes_ = 0;
    /// The slot store grows one fixed chunk of kChunkSlots at a time, in
    /// one allocation: the slots never move, and a large cache does not
    /// hold a doubled array (a doubling slot vector raised the peak RSS
    /// of a 65,536-key read-mostly run by about 10 %). Only the chunk
    /// pointers double.
    std::vector<std::unique_ptr<Slot[]>> chunks_;
    std::uint32_t slots_used_ = 0;  // slots ever handed out
    FlatMap<std::string, std::uint32_t> index_;  // key → slot
    std::uint32_t head_ = kNil;  // most recent
    std::uint32_t tail_ = kNil;  // least recent: evicted first
    std::uint32_t free_ = kNil;
};

/// Sliding-window miss-rate monitor with hysteresis: above
/// `miss_threshold` over the last `window` fast-read attempts the Troxy
/// leaves fast-read mode; after `cooldown` ordered requests it probes the
/// fast path again.
class MissRateMonitor {
  public:
    struct Options {
        double miss_threshold = 0.5;
        std::uint32_t window = 64;
        std::uint32_t cooldown = 256;
        bool adaptive = true;  // false: never switch modes (Fig. 10 ablation)
    };

    explicit MissRateMonitor(Options options) : options_(options) {}

    /// Records a fast-read attempt outcome.
    void record(bool miss);

    /// Records an ordered request processed while the fast path is off
    /// (progress towards the probe).
    void record_total_order();

    [[nodiscard]] bool fast_path_enabled() const noexcept {
        return fast_enabled_;
    }
    [[nodiscard]] double miss_rate() const noexcept;
    [[nodiscard]] std::uint64_t mode_switches() const noexcept {
        return switches_;
    }

  private:
    Options options_;
    std::uint32_t samples_ = 0;   // capped at window
    double miss_ewma_ = 0.0;      // exponentially weighted over the window
    bool fast_enabled_ = true;
    std::uint32_t cooldown_left_ = 0;
    std::uint64_t switches_ = 0;
};

}  // namespace troxy::troxy_core

// Key-range shard map: the partition function of the sharded Troxy.
//
// Service state is partitioned across S independent Hybster groups by
// lexicographic ranges over the classifier's state-key strings. The map
// is S-1 boundary keys b_1 < b_2 < … < b_{S-1}: shard 0 owns
// ["", b_1), shard i owns [b_i, b_{i+1}), and the last shard owns
// [b_{S-1}, ∞) — half-open ranges, so a key exactly equal to a boundary
// belongs to the shard that boundary *starts*. Coverage is total and
// disjoint by construction whenever the boundaries validate, which is
// what lets the router treat "which shard owns this key" as a pure
// function shared by the front, the benches and the tests.
//
// Routing rule: a request is routed to the shard owning its state_key.
// The extra_keys closure (write-set announcements from PR 5) only
// matters when some extra key maps to a *different* shard — that is the
// cross-shard case. This distinction is load-bearing: KvService mutations
// name scan-prefix keys in every closure, so routing by the closure's
// full key set would make every write cross-shard.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "hybster/service.hpp"

namespace troxy::troxy_core {

/// A set of shard indices, kept as one bit per shard so it never
/// allocates. Iteration and indexing run in ascending shard order.
class ShardSet {
  public:
    /// The most shards a ShardMap may have (one bit each).
    static constexpr int kMaxShards = 64;

    void insert(int shard) noexcept { bits_ |= std::uint64_t{1} << shard; }
    [[nodiscard]] std::size_t size() const noexcept {
        return static_cast<std::size_t>(std::popcount(bits_));
    }
    /// The k-th smallest shard (k < size()).
    [[nodiscard]] int operator[](std::size_t k) const noexcept {
        std::uint64_t bits = bits_;
        for (; k > 0; --k) bits &= bits - 1;
        return std::countr_zero(bits);
    }

  private:
    std::uint64_t bits_ = 0;
};

class ShardMap {
  public:
    /// Single shard covering the whole key space.
    ShardMap() = default;

    /// `boundaries` are the S-1 split keys (sorted, strictly increasing,
    /// none empty). Call validate() to surface malformed input as
    /// std::invalid_argument instead of undefined routing.
    explicit ShardMap(std::vector<std::string> boundaries)
        : boundaries_(std::move(boundaries)) {}

    /// Splits `keys` into `shards` contiguous lexicographic ranges of
    /// near-equal population: sorts a copy and takes every (i·n/S)-th key
    /// as a boundary. The natural way to build a balanced map for a known
    /// key universe (benches, chaos runs). Throws std::invalid_argument
    /// when the keys cannot yield `shards` distinct non-empty ranges.
    static ShardMap split_evenly(std::vector<std::string> keys, int shards);

    [[nodiscard]] int shard_count() const noexcept {
        return static_cast<int>(boundaries_.size()) + 1;
    }

    /// The shard owning `state_key`: the number of boundaries ≤ the key.
    [[nodiscard]] int shard_of(std::string_view state_key) const noexcept;

    /// Distinct shards touched by the request's full key closure
    /// (state_key + extra_keys). Size 1 means shard-local.
    [[nodiscard]] ShardSet shards_of(const hybster::RequestInfo& info) const;

    /// Throws std::invalid_argument with a precise message on empty or
    /// non-strictly-increasing boundaries (either would make some shard's
    /// range empty, breaking the total-and-disjoint coverage guarantee),
    /// or on more than ShardSet::kMaxShards shards.
    void validate() const;

    [[nodiscard]] const std::vector<std::string>& boundaries()
        const noexcept {
        return boundaries_;
    }

  private:
    std::vector<std::string> boundaries_;
};

/// Consistent-hash client assignment over F routing fronts.
///
/// The front tier holds no protocol state (SplitBFT's argument for
/// replicating the untrusted routing layer freely): any front can serve
/// any client, so assignment only has to be deterministic and balanced.
/// Each front owns `vnodes` points on a 64-bit hash ring; a client is
/// served by the front owning the first point at or after the client's
/// own hash. Adding or removing one front therefore moves only the
/// clients whose arcs that front owned — the classic consistent-hashing
/// property — and every party (cluster builder, benches, tests) can
/// recompute the assignment as a pure function of (front count, client
/// id).
class FrontMap {
  public:
    FrontMap() : FrontMap(1) {}

    /// `fronts` >= 1; `vnodes` points per front smooth the ring (16 keeps
    /// the max/min client load ratio small without bloating the table).
    explicit FrontMap(int fronts, int vnodes = 16);

    [[nodiscard]] int front_count() const noexcept { return fronts_; }

    /// The front serving `client` (its node id): owner of the first ring
    /// point at or after hash(client), wrapping at the top.
    [[nodiscard]] int front_of(std::uint64_t client) const noexcept;

    /// Failover order for `client`: the owner first, then each *distinct*
    /// front met walking the ring clockwise. Every front appears exactly
    /// once, so a client facing f dead fronts still reaches a live one.
    [[nodiscard]] std::vector<int> failover_order(
        std::uint64_t client) const;

  private:
    int fronts_ = 1;
    /// (ring point, front) sorted by point.
    std::vector<std::pair<std::uint64_t, int>> ring_;
};

}  // namespace troxy::troxy_core

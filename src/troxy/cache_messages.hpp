// Fast-read coordination messages between Troxies (Channel::TroxyCache).
//
// A voting Troxy with a local cache hit queries f randomly chosen remote
// Troxies (Fig. 4). The exchange is authenticated with trusted-subsystem
// certificates; responses carry the *hash* of the cached result rather
// than the full reply ("the fast-read cache only needs to transfer the
// hash of the reply between replicas", §VI-C2), which is what makes the
// fast path cheap for large replies.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <iterator>
#include <string>
#include <type_traits>
#include <vector>

#include "common/bytes.hpp"
#include "common/serialize.hpp"
#include "crypto/sha256.hpp"
#include "enclave/trinx.hpp"
#include "net/envelope.hpp"
#include "sim/node.hpp"
#include "sim/pool.hpp"

namespace troxy::troxy_core {

struct CacheQuery {
    /// Wire tags: a lone query, and a batch of them.
    static constexpr std::uint8_t kTag = 1;
    static constexpr std::uint8_t kBatchTag = 3;

    sim::NodeId requester = 0;
    std::uint64_t query_id = 0;
    std::string state_key;
    crypto::Sha256Digest request_digest{};
    enclave::Certificate cert{};

    /// Certified bytes, written into `scratch`; the view aliases it.
    ByteView certified_view(Bytes& scratch) const;
    void encode(Writer& w) const;
    static CacheQuery decode(Reader& r);

    /// Encoded size of everything but the state key's bytes.
    static constexpr std::size_t kFixedWireSize =
        4 + 8 + 4 + crypto::kSha256DigestSize + sizeof(enclave::Certificate);

    /// Exact encoded size, used to charge the real ecall copy-in cost.
    [[nodiscard]] std::size_t wire_size() const noexcept {
        return kFixedWireSize + state_key.size();
    }
};

struct CacheResponse {
    /// Wire tags: a lone response, and a batch of them.
    static constexpr std::uint8_t kTag = 2;
    static constexpr std::uint8_t kBatchTag = 4;

    sim::NodeId responder = 0;
    std::uint32_t responder_replica = 0;
    std::uint64_t query_id = 0;
    bool has_entry = false;
    crypto::Sha256Digest request_digest{};
    crypto::Sha256Digest result_digest{};
    enclave::Certificate cert{};

    /// responder ‖ replica ‖ query id ‖ has-entry ‖ both digests.
    using View =
        std::array<std::uint8_t, 17 + 2 * crypto::kSha256DigestSize>;

    [[nodiscard]] View certified_view() const;
    void encode(Writer& w) const;
    static CacheResponse decode(Reader& r);

    /// Exact encoded size, used to charge the real ecall copy-in cost.
    [[nodiscard]] static constexpr std::size_t wire_size() noexcept {
        return 4 + 4 + 8 + 1 + 2 * crypto::kSha256DigestSize +
               sizeof(enclave::Certificate);
    }
};

/// A cache message on the wire is a tag byte and a body. A lone query or
/// response travels in its plain form (tags 1 and 2); a burst of two or
/// more for one destination travels as a batch (tags 3 and 4): a u16
/// count, matching the secure channel's record limit, then the items.
/// A batch is answered, or applied, in a single enclave transition.
namespace cache_wire {

/// Exact encoded size of the items [first, last), tag included.
template <std::forward_iterator It, typename Proj>
std::size_t size(It first, It last, Proj proj) {
    std::size_t size = std::distance(first, last) > 1 ? 1 + 2 : 1;
    for (It it = first; it != last; ++it) {
        size += std::invoke(proj, *it).wire_size();
    }
    return size;
}

template <std::forward_iterator It, typename Proj>
void write(Writer& w, It first, It last, Proj proj) {
    using Item = std::remove_cvref_t<
        std::invoke_result_t<Proj&, std::iter_reference_t<It>>>;
    const auto count = static_cast<std::size_t>(std::distance(first, last));
    TROXY_ASSERT(count >= 1 && count <= 0xffff,
                 "a cache burst holds 1 to 65535 items");
    if (count == 1) {
        w.u8(Item::kTag);
    } else {
        w.u8(Item::kBatchTag);
        w.u16(static_cast<std::uint16_t>(count));
    }
    for (It it = first; it != last; ++it) std::invoke(proj, *it).encode(w);
}

}  // namespace cache_wire

/// Encodes the items [first, last) as one cache message: `proj` maps an
/// element of the range to its CacheQuery or CacheResponse. Heap-backed,
/// for tests and cold paths.
template <std::forward_iterator It, typename Proj = std::identity>
Bytes encode_cache_message(It first, It last, Proj proj = {}) {
    Writer w;
    w.reserve(cache_wire::size(first, last, proj));
    cache_wire::write(w, first, last, proj);
    return std::move(w).take();
}

/// wrap(Channel::TroxyCache, encode_cache_message(first, last, proj)),
/// written once into a wire buffer from `pool`. The items are encoded
/// straight from the caller's range, so a burst builds no batch.
template <std::forward_iterator It, typename Proj = std::identity>
Bytes encode_cache_frame(It first, It last, sim::BufferPool& pool,
                         Proj proj = {}) {
    Writer w(pool.acquire_empty(1 + cache_wire::size(first, last, proj)));
    w.u8(static_cast<std::uint8_t>(net::Channel::TroxyCache));
    cache_wire::write(w, first, last, proj);
    return std::move(w).take();
}

/// A received cache message, decoded into lists its receiver keeps and
/// decodes into again (like hybster::decode_prepare_into): a warm
/// receiver decodes a burst without allocating. A plain message is a
/// burst of one.
struct CacheBurst {
    std::vector<CacheQuery> queries;
    std::vector<CacheResponse> responses;
};

/// Decodes one cache message into `out`: on success exactly one of its
/// lists holds the message's items and the other is empty. False on a
/// truncated, oversized or unknown message, an empty batch, or trailing
/// bytes; `out` then holds a partial decode.
bool decode_cache_burst(ByteView data, CacheBurst& out);

}  // namespace troxy::troxy_core

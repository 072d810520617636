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
#include <ranges>
#include <string>
#include <tuple>
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
    ByteView certified_view(Bytes& scratch) const {
        return write_certified(scratch, *this);
    }

    template <class Io, class M>
    static void layout(Io& io, M& m) {
        io.u32(m.requester);
        io.u64(m.query_id);
        io.str(m.state_key);
        io.array(m.request_digest);
        io.cert(m.cert);
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

    [[nodiscard]] View certified_view() const {
        Uncertified<FixedWriter<std::tuple_size_v<View>>> w;
        layout(w, *this);
        return w.take();
    }

    template <class Io, class M>
    static void layout(Io& io, M& m) {
        io.u32(m.responder);
        io.u32(m.responder_replica);
        io.u64(m.query_id);
        io.flag(m.has_entry);
        io.array(m.request_digest);
        io.array(m.result_digest);
        io.cert(m.cert);
    }
};

/// A cache message on the wire is a tag byte and a body. A lone query or
/// response travels in its plain form (tags 1 and 2); a burst of two or
/// more for one destination travels as a batch (tags 3 and 4): a u16
/// count, matching the secure channel's record limit, then the items.
/// A batch is answered, or applied, in a single enclave transition.
namespace cache_wire {

inline constexpr std::uint16_t kMaxBurst = 0xffff;

/// Writes (or sizes) the items [first, last) as one cache message.
template <class Io, std::forward_iterator It, typename Proj>
void write(Io& io, It first, It last, Proj proj) {
    using Item = std::remove_cvref_t<
        std::invoke_result_t<Proj&, std::iter_reference_t<It>>>;
    const auto count = static_cast<std::size_t>(std::distance(first, last));
    TROXY_ASSERT(count >= 1, "a cache burst holds at least one item");
    if (count == 1) {
        io.u8(Item::kTag);
        Item::layout(io, std::invoke(proj, *first));
        return;
    }
    io.u8(Item::kBatchTag);
    io.list(std::views::transform(std::ranges::subrange(first, last, count),
                                  proj),
            kMaxBurst);
}

/// Exact encoded size of the items [first, last), tag included.
template <std::forward_iterator It, typename Proj>
std::size_t size(It first, It last, Proj proj) {
    Sizer sizer;
    write(sizer, first, last, proj);
    return sizer.size();
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
/// truncated, oversized or unknown message, a batch of fewer than two
/// items, a has-entry byte above 1, or trailing bytes; `out` then holds
/// a partial decode. What decodes re-encodes to the same bytes.
bool decode_cache_burst(ByteView data, CacheBurst& out);

}  // namespace troxy::troxy_core

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
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "common/bytes.hpp"
#include "common/serialize.hpp"
#include "crypto/sha256.hpp"
#include "enclave/trinx.hpp"
#include "sim/node.hpp"

namespace troxy::troxy_core {

struct CacheQuery {
    sim::NodeId requester = 0;
    std::uint64_t query_id = 0;
    std::string state_key;
    crypto::Sha256Digest request_digest{};
    enclave::Certificate cert{};

    /// Certified bytes, written into `scratch`; the view aliases it.
    ByteView certified_view(Bytes& scratch) const;
    void encode(Writer& w) const;
    static CacheQuery decode(Reader& r);

    /// Exact encoded size, used to charge the real ecall copy-in cost.
    [[nodiscard]] std::size_t wire_size() const noexcept {
        return 4 + 8 + 4 + state_key.size() + crypto::kSha256DigestSize +
               sizeof(enclave::Certificate);
    }
};

struct CacheResponse {
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

/// A burst of queries from one contact Troxy, answered by the remote in a
/// single enclave transition. Count framing is u16, matching the secure
/// channel's record limit.
struct CacheQueryBatch {
    std::vector<CacheQuery> queries;

    void encode(Writer& w) const;
    static CacheQueryBatch decode(Reader& r);
};

/// The remote's answers for a whole query burst, applied at the contact in
/// a single enclave transition.
struct CacheResponseBatch {
    std::vector<CacheResponse> responses;

    void encode(Writer& w) const;
    static CacheResponseBatch decode(Reader& r);
};

using CacheMessage = std::variant<CacheQuery, CacheResponse, CacheQueryBatch,
                                  CacheResponseBatch>;

Bytes encode_cache_message(const CacheMessage& message);
/// wrap(Channel::TroxyCache, encode_cache_message(message)), written
/// once into a buffer of exactly the frame's size.
Bytes encode_cache_frame(const CacheMessage& message);
std::optional<CacheMessage> decode_cache_message(ByteView data);

}  // namespace troxy::troxy_core

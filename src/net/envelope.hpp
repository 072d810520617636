// Top-level message envelope.
//
// A replica machine receives traffic of several kinds on the same NodeId:
// BFT protocol messages, legacy-client secure-channel records, Troxy
// cache-coordination messages. The one-byte envelope channel lets the
// untrusted host dispatch without parsing (it cannot parse client records
// — they are encrypted for the enclave).
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/bytes.hpp"
#include "common/serialize.hpp"

namespace troxy::net {

enum class Channel : std::uint8_t {
    Hybster = 1,     // replica ↔ replica agreement traffic
    Client = 3,      // client ↔ server secure-channel records
    TroxyCache = 4,  // Troxy ↔ Troxy fast-read queries/responses
    Bundle = 6,      // several wrapped messages coalesced into one frame
};

inline Bytes wrap(Channel channel, ByteView payload) {
    Writer w;
    w.reserve(1 + payload.size());
    w.u8(static_cast<std::uint8_t>(channel));
    w.raw(payload);
    return std::move(w).take();
}

/// Splits off the envelope byte; nullopt on an empty or unknown-channel
/// message. The returned view aliases `message` (valid only as long as
/// the underlying buffer is): a receiver decodes in place and recycles
/// the frame afterwards.
inline std::optional<std::pair<Channel, ByteView>> unwrap_view(
    ByteView message) {
    if (message.empty()) return std::nullopt;
    const auto channel = static_cast<Channel>(message[0]);
    switch (channel) {
        case Channel::Hybster:
        case Channel::Client:
        case Channel::TroxyCache:
        case Channel::Bundle:
            break;
        default:
            return std::nullopt;
    }
    return std::make_pair(channel, message.subspan(1));
}

/// Max messages per Bundle frame (the u16 count field).
inline constexpr std::size_t kMaxBundleMessages = 65535;

/// Coalesces several already-wrapped messages into one Bundle frame:
/// Bundle ‖ u16 count ‖ (u32 len ‖ wrapped message)*. The receiving host
/// unbundles and dispatches each inner message as if it had arrived alone,
/// so one wire transmission carries a whole pipeline burst.
inline Bytes make_bundle(const std::vector<Bytes>& wrapped) {
    TROXY_ASSERT(wrapped.size() <= kMaxBundleMessages,
                 "bundle message count exceeds u16 field");
    std::size_t total = 1 + 2;
    for (const Bytes& m : wrapped) total += 4 + m.size();
    Writer w;
    w.reserve(total);
    w.u8(static_cast<std::uint8_t>(Channel::Bundle));
    w.u16(static_cast<std::uint16_t>(wrapped.size()));
    for (const Bytes& m : wrapped) w.bytes(m);
    return std::move(w).take();
}

/// Splits a Bundle payload (the bytes after the channel byte) back into
/// the coalesced messages, as views aliasing `payload`, written into the
/// caller's `messages` (cleared first, its capacity reused, so a warm
/// receiver unbundles without allocating). False on malformed framing,
/// in which case `messages` holds an unspecified prefix.
inline bool unbundle(ByteView payload, std::vector<ByteView>& messages) {
    messages.clear();
    try {
        Reader r(payload);
        const std::uint16_t count = r.u16();
        if (count == 0) return false;
        // Each message takes at least its 4-byte length prefix, so a
        // forged count cannot bloat the caller's vector.
        messages.reserve(std::min<std::size_t>(count, r.remaining() / 4));
        for (std::uint16_t i = 0; i < count; ++i) {
            messages.push_back(r.bytes_view());
        }
        r.expect_done();
        return true;
    } catch (const DecodeError&) {
        return false;
    }
}

}  // namespace troxy::net

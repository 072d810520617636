// Top-level message envelope.
//
// A replica machine receives traffic of several kinds on the same NodeId:
// BFT protocol messages, legacy-client secure-channel records, Troxy
// cache-coordination messages. The one-byte envelope channel lets the
// untrusted host dispatch without parsing (it cannot parse client records
// — they are encrypted for the enclave).
#pragma once

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
    Pbft = 2,        // baseline PBFT agreement traffic (Prophecy substrate)
    Client = 3,      // legacy client ↔ server secure-channel records
    TroxyCache = 4,  // Troxy ↔ Troxy fast-read queries/responses
    Middlebox = 5,   // Prophecy middlebox ↔ replica traffic
    Bundle = 6,      // several wrapped messages coalesced into one frame
};

inline Bytes wrap(Channel channel, ByteView payload) {
    Writer w;
    w.reserve(1 + payload.size());
    w.u8(static_cast<std::uint8_t>(channel));
    w.raw(payload);
    return std::move(w).take();
}

/// Returns nullopt on an empty or unknown-channel message.
inline std::optional<std::pair<Channel, Bytes>> unwrap(ByteView message) {
    if (message.empty()) return std::nullopt;
    const auto channel = static_cast<Channel>(message[0]);
    switch (channel) {
        case Channel::Hybster:
        case Channel::Pbft:
        case Channel::Client:
        case Channel::TroxyCache:
        case Channel::Middlebox:
        case Channel::Bundle:
            break;
        default:
            return std::nullopt;
    }
    return std::make_pair(channel,
                          Bytes(message.begin() + 1, message.end()));
}

/// Zero-copy unwrap: the returned view aliases `message` (valid only as
/// long as the underlying buffer is). Use when the payload is consumed in
/// place, e.g. to peek at a channel or decode without detaching the bytes.
inline std::optional<std::pair<Channel, ByteView>> unwrap_view(
    ByteView message) {
    if (message.empty()) return std::nullopt;
    const auto channel = static_cast<Channel>(message[0]);
    switch (channel) {
        case Channel::Hybster:
        case Channel::Pbft:
        case Channel::Client:
        case Channel::TroxyCache:
        case Channel::Middlebox:
        case Channel::Bundle:
            break;
        default:
            return std::nullopt;
    }
    return std::make_pair(channel, message.subspan(1));
}

/// Coalesces several already-wrapped messages into one Bundle frame:
/// Bundle ‖ u16 count ‖ (u32 len ‖ wrapped message)*. The receiving host
/// unbundles and dispatches each inner message as if it had arrived alone,
/// so one wire transmission carries a whole pipeline burst.
inline Bytes make_bundle(const std::vector<Bytes>& wrapped) {
    TROXY_ASSERT(wrapped.size() <= 65535,
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
/// the coalesced messages; nullopt on malformed framing.
inline std::optional<std::vector<Bytes>> unbundle(ByteView payload) {
    try {
        Reader r(payload);
        const std::uint16_t count = r.u16();
        if (count == 0) return std::nullopt;
        std::vector<Bytes> messages;
        messages.reserve(count);
        for (std::uint16_t i = 0; i < count; ++i) {
            messages.push_back(r.bytes());
        }
        r.expect_done();
        return messages;
    } catch (const DecodeError&) {
        return std::nullopt;
    }
}

}  // namespace troxy::net

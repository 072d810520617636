// Framing for client↔server traffic on Channel::Client.
//
// Three frame kinds: the two handshake flights of the secure channel and
// encrypted application records. The header is plaintext (it only routes),
// everything else is protected by the channel.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <utility>

#include "common/assert.hpp"
#include "common/bytes.hpp"
#include "common/serialize.hpp"
#include "net/envelope.hpp"
#include "net/secure_channel.hpp"
#include "sim/pool.hpp"

namespace troxy::net {

enum class ClientFrame : std::uint8_t {
    Hello = 0,
    ServerHello = 1,
    Record = 2,
};

/// Wire frame of a client frame: the Client envelope byte, `kind` and
/// `payload`, written into a wire buffer from `pool`.
inline Bytes client_frame(ClientFrame kind, ByteView payload,
                          sim::BufferPool& pool) {
    Writer frame(pool.acquire_empty(2 + payload.size()));
    frame.u8(static_cast<std::uint8_t>(Channel::Client));
    frame.u8(static_cast<std::uint8_t>(kind));
    frame.raw(payload);
    return std::move(frame).take();
}

/// Splits a client frame into its kind and payload; the payload view
/// aliases `data`. nullopt on an empty frame or an unknown kind.
inline std::optional<std::pair<ClientFrame, ByteView>> unframe_client(
    ByteView data) {
    if (data.empty()) return std::nullopt;
    const auto kind = static_cast<ClientFrame>(data[0]);
    if (kind != ClientFrame::Hello && kind != ClientFrame::ServerHello &&
        kind != ClientFrame::Record) {
        return std::nullopt;
    }
    return std::make_pair(kind, data.subspan(1));
}

/// Wire frame of one application record: the Client envelope byte, the
/// Record kind and `channel`'s sealed record of `messages`, written once
/// into a wire buffer from `pool` that holds the whole frame.
/// `SecureChannel` is either channel half.
template <typename SecureChannel>
Bytes client_record_frame(SecureChannel& channel,
                          std::span<const ByteView> messages,
                          sim::BufferPool& pool) {
    const std::size_t size = 2 + RecordProtection::record_size(messages);
    Writer frame(pool.acquire_empty(size));
    frame.u8(static_cast<std::uint8_t>(Channel::Client));
    frame.u8(static_cast<std::uint8_t>(ClientFrame::Record));
    channel.protect_many_into(frame, messages);
    TROXY_ASSERT(frame.size() == size,
                 "record_size() out of sync with protect_many_into()");
    return std::move(frame).take();
}

/// client_record_frame() of a single message.
template <typename SecureChannel>
Bytes client_record_frame(SecureChannel& channel, ByteView message,
                          sim::BufferPool& pool) {
    return client_record_frame(channel, std::span(&message, 1), pool);
}

}  // namespace troxy::net

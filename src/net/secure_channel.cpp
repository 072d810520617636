#include "net/secure_channel.hpp"

#include <cstring>

#include "common/assert.hpp"
#include "common/serialize.hpp"
#include "crypto/hmac.hpp"
#include "crypto/sha256.hpp"

namespace troxy::net {

namespace {

constexpr std::size_t kHelloNonceSize = 16;

Bytes transcript_of(ByteView client_hello, ByteView server_ephemeral) {
    return concat(client_hello, server_ephemeral);
}

Bytes handshake_mac_key(ByteView dh_static, ByteView transcript) {
    return crypto::hkdf(to_bytes("troxy-hs-salt"), dh_static,
                        crypto::sha256_bytes(transcript), 32);
}

}  // namespace

SessionKeys derive_session_keys(ByteView dh_static, ByteView dh_ephemeral,
                                ByteView transcript) {
    const Bytes ikm = concat(dh_static, dh_ephemeral);
    const Bytes material = crypto::hkdf(
        to_bytes("troxy-session-salt"), ikm, crypto::sha256_bytes(transcript),
        2 * (crypto::kChaChaKeySize + crypto::kChaChaNonceSize));

    SessionKeys keys;
    const std::uint8_t* p = material.data();
    std::memcpy(keys.client_key.data(), p, crypto::kChaChaKeySize);
    p += crypto::kChaChaKeySize;
    std::memcpy(keys.client_iv.data(), p, crypto::kChaChaNonceSize);
    p += crypto::kChaChaNonceSize;
    std::memcpy(keys.server_key.data(), p, crypto::kChaChaKeySize);
    p += crypto::kChaChaKeySize;
    std::memcpy(keys.server_iv.data(), p, crypto::kChaChaNonceSize);
    return keys;
}

RecordProtection::RecordProtection(const crypto::ChaChaKey& key,
                                   const crypto::ChaChaNonce& iv) noexcept
    : key_(key), iv_(iv) {}

Bytes RecordProtection::protect(ByteView plaintext) {
    return protect_many({plaintext});
}

Bytes RecordProtection::protect_many(const std::vector<ByteView>& messages) {
    Writer record;
    protect_many_into(record, messages);
    return std::move(record).take();
}

void RecordProtection::protect_many_into(
    Writer& out, const std::vector<ByteView>& messages) {
    TROXY_ASSERT(!messages.empty() &&
                     messages.size() <= kMaxMessagesPerRecord,
                 "record burst must hold 1..65535 messages");
    const std::uint64_t seq = send_seq_++;
    std::uint8_t aad[8];
    store_le(aad, seq, 8);
    const crypto::ChaChaNonce nonce = crypto::make_record_nonce(iv_, seq);

    // The burst is framed *inside* the sealed plaintext (count ‖
    // length-prefixed messages), so the AEAD tag covers the count and a
    // receiver can never be tricked into splitting a record differently.
    // Gather encoding: the plaintext is written straight into the record
    // at its final wire position and sealed in place — no inner buffer,
    // no sealed copy, no record copy.
    std::size_t total = 2;
    for (const ByteView m : messages) total += 4 + m.size();
    out.reserve(8 + 4 + total + crypto::kAeadTagSize);
    out.u64(seq);
    out.u32(static_cast<std::uint32_t>(total + crypto::kAeadTagSize));
    const std::size_t plaintext_at = out.size();
    out.u16(static_cast<std::uint16_t>(messages.size()));
    for (const ByteView m : messages) out.bytes(m);
    crypto::aead_seal_inplace(key_, nonce, ByteView(aad, sizeof aad),
                              out.buffer(), plaintext_at);
}

std::vector<Bytes> RecordProtection::unprotect(ByteView record) {
    std::vector<Bytes> deliverable;
    try {
        Reader r(record);
        const std::uint64_t seq = r.u64();
        const ByteView sealed = r.bytes_view();
        r.expect_done();

        // Replay and window checks: a sequence number is accepted at most
        // once, and only within the receive window. A coalesced record is
        // one unit here — replaying it re-delivers none of its messages.
        if (seq < next_deliver_) return deliverable;                // replay
        if (seq >= next_deliver_ + kReceiveWindow) return deliverable;
        if (received_.contains(seq)) return deliverable;            // replay

        std::uint8_t aad[8];
        store_le(aad, seq, 8);
        const crypto::ChaChaNonce nonce = crypto::make_record_nonce(iv_, seq);
        auto plaintext =
            crypto::aead_open(key_, nonce, ByteView(aad, sizeof aad), sealed);
        if (!plaintext) return deliverable;  // tampered

        Reader inner(*plaintext);
        const std::uint16_t count = inner.u16();
        if (count == 0) return deliverable;  // malformed burst
        std::vector<Bytes> messages;
        messages.reserve(count);
        for (std::uint16_t i = 0; i < count; ++i) {
            messages.push_back(inner.bytes());
        }
        inner.expect_done();

        // In-order fast path: the next expected record with nothing
        // buffered behind it is delivered directly, without a round trip
        // through the replay set and the reorder map.
        if (seq == next_deliver_ && reorder_buffer_.empty()) {
            ++next_deliver_;
            return messages;
        }

        received_.insert(seq);
        reorder_buffer_.emplace(seq, std::move(messages));

        // Release everything that is now consecutive.
        for (auto it = reorder_buffer_.find(next_deliver_);
             it != reorder_buffer_.end() && it->first == next_deliver_;
             it = reorder_buffer_.find(next_deliver_)) {
            for (Bytes& m : it->second) deliverable.push_back(std::move(m));
            reorder_buffer_.erase(it);
            received_.erase(next_deliver_);
            ++next_deliver_;
        }
        return deliverable;
    } catch (const DecodeError&) {
        return deliverable;
    }
}

SecureChannelClient::SecureChannelClient(
    const crypto::X25519Key& pinned_server_key, ByteView seed)
    : pinned_server_key_(pinned_server_key),
      ephemeral_(crypto::x25519_keypair_from_seed(seed)) {
    const Bytes nonce_material = crypto::hkdf(
        to_bytes("troxy-hello-nonce"), seed, {}, kHelloNonceSize);
    hello_nonce_ = nonce_material;
}

Bytes SecureChannelClient::client_hello() const {
    Writer w;
    w.raw(ephemeral_.public_key);
    w.raw(hello_nonce_);
    return std::move(w).take();
}

bool SecureChannelClient::finish(ByteView server_hello) {
    if (server_hello.size() !=
        crypto::kX25519KeySize + crypto::kSha256DigestSize) {
        return false;
    }
    crypto::X25519Key server_ephemeral;
    std::memcpy(server_ephemeral.data(), server_hello.data(),
                crypto::kX25519KeySize);
    const ByteView mac = server_hello.subspan(crypto::kX25519KeySize);

    const crypto::X25519Key dh_static =
        crypto::x25519(ephemeral_.private_key, pinned_server_key_);
    const Bytes hello = client_hello();
    const Bytes transcript = transcript_of(hello, server_ephemeral);
    const Bytes mac_key = handshake_mac_key(dh_static, transcript);
    if (!crypto::hmac_verify(mac_key, transcript, mac)) return false;

    const crypto::X25519Key dh_ephemeral =
        crypto::x25519(ephemeral_.private_key, server_ephemeral);
    const SessionKeys keys =
        derive_session_keys(dh_static, dh_ephemeral, transcript);
    send_ = RecordProtection(keys.client_key, keys.client_iv);
    recv_ = RecordProtection(keys.server_key, keys.server_iv);
    established_ = true;
    return true;
}

Bytes SecureChannelClient::protect(ByteView plaintext) {
    return send_.protect(plaintext);
}

Bytes SecureChannelClient::protect_many(
    const std::vector<ByteView>& messages) {
    return send_.protect_many(messages);
}

void SecureChannelClient::protect_many_into(
    Writer& out, const std::vector<ByteView>& messages) {
    send_.protect_many_into(out, messages);
}

std::vector<Bytes> SecureChannelClient::unprotect(ByteView record) {
    return recv_.unprotect(record);
}

SecureChannelServer::SecureChannelServer(
    const crypto::X25519Keypair& static_keys)
    : static_keys_(static_keys) {}

std::optional<Bytes> SecureChannelServer::accept(
    enclave::CostedCrypto& crypto_ops, ByteView client_hello, ByteView seed) {
    if (client_hello.size() != crypto::kX25519KeySize + kHelloNonceSize) {
        return std::nullopt;
    }
    crypto::X25519Key client_ephemeral;
    std::memcpy(client_ephemeral.data(), client_hello.data(),
                crypto::kX25519KeySize);

    const crypto::X25519Keypair server_ephemeral =
        crypto::x25519_keypair_from_seed(seed);

    crypto_ops.charge_dh();  // DH(static, client ephemeral)
    const crypto::X25519Key dh_static =
        crypto::x25519(static_keys_.private_key, client_ephemeral);
    crypto_ops.charge_dh();  // DH(ephemeral, client ephemeral)
    const crypto::X25519Key dh_ephemeral =
        crypto::x25519(server_ephemeral.private_key, client_ephemeral);

    const Bytes transcript =
        transcript_of(client_hello, server_ephemeral.public_key);
    const Bytes mac_key = handshake_mac_key(dh_static, transcript);
    const crypto::HmacTag mac = crypto_ops.mac(mac_key, transcript);

    const SessionKeys keys =
        derive_session_keys(dh_static, dh_ephemeral, transcript);
    send_ = RecordProtection(keys.server_key, keys.server_iv);
    recv_ = RecordProtection(keys.client_key, keys.client_iv);
    established_ = true;

    Writer w;
    w.raw(server_ephemeral.public_key);
    w.raw(mac);
    return std::move(w).take();
}

Bytes SecureChannelServer::protect(ByteView plaintext) {
    return send_.protect(plaintext);
}

Bytes SecureChannelServer::protect_many(
    const std::vector<ByteView>& messages) {
    return send_.protect_many(messages);
}

void SecureChannelServer::protect_many_into(
    Writer& out, const std::vector<ByteView>& messages) {
    send_.protect_many_into(out, messages);
}

std::vector<Bytes> SecureChannelServer::unprotect(ByteView record) {
    return recv_.unprotect(record);
}

}  // namespace troxy::net

// TLS-like secure channel between legacy clients and the Troxy.
//
// The paper terminates TLS inside the enclave (TaLoS, §V-A) so the
// untrusted replica never sees session keys and "each endpoint will never
// accept the same chunk of encrypted data twice" (§III-D). This module
// implements an equivalent channel as a pure state machine over byte
// buffers — no I/O — so the server half can live inside the simulated
// enclave and the client half inside an unmodified legacy client.
//
// Handshake (Noise-NK-shaped, 1-RTT):
//   client → server : ClientHello  = client ephemeral public key ‖ nonce
//   server → client : ServerHello  = server ephemeral public key ‖
//                                    MAC(k_hs, transcript)
// where k_hs is derived from DH(client_eph, server_static); the MAC proves
// the server controls the static key the client pinned (the paper's
// provisioned TLS private key). Session keys for the two directions come
// from HKDF over both DH results and the transcript hash.
//
// Records: AEAD(ChaCha20-Poly1305) with per-direction sequence numbers in
// the nonce and as associated data. A sequence number is accepted at most
// once (sliding-window replay suppression, DTLS-style), so a replayed
// record is always rejected — the anti-replay property §III-D relies on.
// The receiver additionally reassembles records into sequence order
// before delivery (TCP-under-TLS stream semantics), so the application
// above always observes an in-order byte-message stream even though the
// simulated multi-core endpoints may emit records slightly out of order.
//
// One record can carry several application messages: a pipeline burst is
// sealed once (protect_many), paying one AEAD pass and one wire record
// for the whole burst. The message count lives *inside* the sealed
// plaintext, so it is covered by the AEAD tag; replay suppression and
// reassembly operate on whole records exactly as for single-message ones
// — a replayed coalesced record is rejected as one unit and can never
// re-deliver any of its messages.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <vector>

#include "common/bytes.hpp"
#include "common/serialize.hpp"
#include "crypto/aead.hpp"
#include "crypto/x25519.hpp"
#include "enclave/meter.hpp"

namespace troxy::net {

/// Direction-specific record protection state.
class RecordProtection {
  public:
    /// Receive window: how far ahead of the next expected sequence a
    /// record may arrive before it is dropped.
    static constexpr std::uint64_t kReceiveWindow = 4096;

    /// Messages one record may coalesce (u16 count on the wire).
    static constexpr std::size_t kMaxMessagesPerRecord = 65535;

    RecordProtection() = default;
    RecordProtection(const crypto::ChaChaKey& key,
                     const crypto::ChaChaNonce& iv) noexcept;

    /// Seals one message into a record (header ‖ ciphertext ‖ tag).
    Bytes protect(ByteView plaintext);

    /// Seals a burst of messages into ONE record: one sequence number,
    /// one AEAD pass, one wire transmission for the whole burst.
    Bytes protect_many(std::span<const ByteView> messages);

    /// Gather variant: appends the record to `out` (which may already
    /// hold framing bytes), writing the plaintext directly at its final
    /// wire position and sealing it in place — the whole frame builds in
    /// one buffer with zero intermediate copies. Byte-identical to
    /// appending protect_many()'s result.
    void protect_many_into(Writer& out, std::span<const ByteView> messages);

    /// Wire bytes of the record protect_many_into() appends for
    /// `messages`, so a caller can size the frame's buffer once.
    [[nodiscard]] static std::size_t record_size(
        std::span<const ByteView> messages) noexcept;

    /// Opens a record and returns every message that is now deliverable
    /// in sequence order (possibly none if this record only filled a
    /// buffer slot, possibly several if it closed a gap or carried a
    /// coalesced burst). Tampered, replayed, truncated or out-of-window
    /// records yield nothing and poison no state.
    ///
    /// The record is opened in place in a buffer this object reuses, and
    /// the returned views borrow it: they stay valid until the next
    /// unprotect() call on this object. Only a record that arrives ahead
    /// of a gap is copied, into the reorder buffer; the views of records
    /// released from there borrow those copies for the same lifetime.
    std::span<const ByteView> unprotect(ByteView record);

    [[nodiscard]] std::uint64_t send_sequence() const noexcept {
        return send_seq_;
    }

  private:
    crypto::ChaChaKey key_{};
    crypto::ChaChaNonce iv_{};
    std::uint64_t send_seq_ = 0;
    std::uint64_t next_deliver_ = 0;
    /// seq → the record's messages (one or a coalesced burst).
    std::map<std::uint64_t, std::vector<Bytes>> reorder_buffer_;
    std::set<std::uint64_t> received_;  // ≥ next_deliver_, replay guard
    /// The last record's plaintext, opened in place.
    Bytes opened_;
    /// Reorder-buffer messages released by the last unprotect().
    std::vector<Bytes> released_;
    /// The views the last unprotect() returned.
    std::vector<ByteView> delivered_;
};

struct SessionKeys {
    crypto::ChaChaKey client_key{};
    crypto::ChaChaNonce client_iv{};
    crypto::ChaChaKey server_key{};
    crypto::ChaChaNonce server_iv{};
};

/// Client half of the handshake; run by legacy clients (their TLS stack).
class SecureChannelClient {
  public:
    /// `pinned_server_key` is the server's static public key, obtained out
    /// of band (the paper's certificate distribution); `seed` provides the
    /// ephemeral key randomness.
    SecureChannelClient(const crypto::X25519Key& pinned_server_key,
                        ByteView seed);

    /// First flight (ClientHello bytes to send).
    [[nodiscard]] Bytes client_hello() const;

    /// Processes the ServerHello; returns false (channel unusable) if the
    /// server failed to prove possession of the pinned static key.
    bool finish(ByteView server_hello);

    [[nodiscard]] bool established() const noexcept { return established_; }

    /// Encrypts application data client→server.
    Bytes protect(ByteView plaintext);

    /// Seals a pipeline burst into one record (one AEAD, one wire record).
    Bytes protect_many(std::span<const ByteView> messages);

    /// Appends the sealed record to `out` (see RecordProtection).
    void protect_many_into(Writer& out, std::span<const ByteView> messages);

    /// Decrypts server→client records; returns the messages now
    /// deliverable in order, borrowed until the next unprotect() (see
    /// RecordProtection).
    std::span<const ByteView> unprotect(ByteView record);

  private:
    crypto::X25519Key pinned_server_key_;
    crypto::X25519Keypair ephemeral_;
    Bytes hello_nonce_;
    bool established_ = false;
    RecordProtection send_;
    RecordProtection recv_;
};

/// Server half; in a Troxy deployment this object lives inside the
/// enclave and its keys never leave it.
class SecureChannelServer {
  public:
    /// `static_keys` is the provisioned identity keypair; `crypto` charges
    /// handshake costs to the caller's meter.
    SecureChannelServer(const crypto::X25519Keypair& static_keys);

    /// Handles a ClientHello; returns the ServerHello to transmit, or
    /// nullopt if the hello was malformed. `crypto` meters the two DH
    /// operations and the transcript MAC.
    std::optional<Bytes> accept(enclave::CostedCrypto& crypto,
                                ByteView client_hello, ByteView seed);

    [[nodiscard]] bool established() const noexcept { return established_; }

    Bytes protect(ByteView plaintext);
    Bytes protect_many(std::span<const ByteView> messages);
    void protect_many_into(Writer& out, std::span<const ByteView> messages);
    std::span<const ByteView> unprotect(ByteView record);

  private:
    crypto::X25519Keypair static_keys_;
    bool established_ = false;
    RecordProtection send_;
    RecordProtection recv_;
};

/// Key schedule shared by both ends (exposed for tests).
SessionKeys derive_session_keys(ByteView dh_static, ByteView dh_ephemeral,
                                ByteView transcript);

}  // namespace troxy::net

// AEAD_CHACHA20_POLY1305 (RFC 8439 §2.8).
//
// This is the record protection of the client↔Troxy secure channel: each
// record is encrypted and authenticated under the session key with a
// strictly increasing nonce, which also provides the anti-replay guarantee
// the paper relies on ("each endpoint will never accept the same chunk of
// encrypted data twice", §III-D).
#pragma once

#include <optional>

#include "common/bytes.hpp"
#include "crypto/chacha20.hpp"
#include "crypto/poly1305.hpp"

namespace troxy::crypto {

inline constexpr std::size_t kAeadTagSize = kPoly1305TagSize;

/// Encrypts `plaintext`; returns ciphertext || 16-byte tag.
Bytes aead_seal(const ChaChaKey& key, const ChaChaNonce& nonce, ByteView aad,
                ByteView plaintext);

/// Gather-style seal: the caller has already written the plaintext as
/// `buf[offset..]` (its final wire position); the region is encrypted in
/// place and the 16-byte tag appended. Byte-identical to aead_seal() on
/// the same plaintext, without the plaintext→ciphertext→record copies.
void aead_seal_inplace(const ChaChaKey& key, const ChaChaNonce& nonce,
                       ByteView aad, Bytes& buf, std::size_t offset);

/// Verifies and decrypts; returns nullopt on authentication failure.
std::optional<Bytes> aead_open(const ChaChaKey& key, const ChaChaNonce& nonce,
                               ByteView aad, ByteView sealed);

/// In-place counterpart of aead_seal_inplace(): `buf` holds ciphertext ‖
/// tag. On success the ciphertext is decrypted where it sits and the tag
/// cut off, leaving exactly the plaintext, and true is returned. On
/// authentication failure `buf` is left unchanged and false is returned.
bool aead_open_inplace(const ChaChaKey& key, const ChaChaNonce& nonce,
                       ByteView aad, Bytes& buf);

/// Builds the RFC nonce from a 12-byte IV xor'ed with a 64-bit sequence
/// number in the trailing bytes (TLS 1.3 style).
ChaChaNonce make_record_nonce(const ChaChaNonce& iv,
                              std::uint64_t sequence) noexcept;

}  // namespace troxy::crypto

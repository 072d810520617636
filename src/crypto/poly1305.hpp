// Poly1305 one-time authenticator (RFC 8439 §2.5).
#pragma once

#include <array>
#include <cstdint>

#include "common/bytes.hpp"

namespace troxy::crypto {

inline constexpr std::size_t kPoly1305KeySize = 32;
inline constexpr std::size_t kPoly1305TagSize = 16;

using Poly1305Key = std::array<std::uint8_t, kPoly1305KeySize>;
using Poly1305Tag = std::array<std::uint8_t, kPoly1305TagSize>;

/// Poly1305 over a message absorbed in pieces, so a MAC input made of
/// several segments (the AEAD's aad, ciphertext and lengths) is never
/// joined into one buffer.
class Poly1305 {
  public:
    explicit Poly1305(const Poly1305Key& key) noexcept;

    /// Absorbs `data` in 16-byte blocks. With `pad`, a partial last block
    /// is zero-padded to 16 bytes (the AEAD's pad16); without, it is the
    /// message's short final block, so only the last call may omit it.
    void absorb(ByteView data, bool pad) noexcept;
    [[nodiscard]] Poly1305Tag finish() const noexcept;

  private:
    void block(const std::uint8_t* bytes, std::size_t n, bool pad) noexcept;

    std::uint64_t r0_, r1_, s0_, s1_;
    std::uint64_t h0_ = 0, h1_ = 0, h2_ = 0;
};

/// Computes the Poly1305 tag of `data` under a one-time key. The key must
/// never be reused for two different messages; the AEAD construction
/// derives a fresh key per nonce.
Poly1305Tag poly1305(const Poly1305Key& key, ByteView data) noexcept;

}  // namespace troxy::crypto

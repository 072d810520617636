#include "crypto/aead.hpp"

#include <cstring>

#include "crypto/fastmode.hpp"

namespace troxy::crypto {

namespace {

Poly1305Key derive_poly_key(const ChaChaKey& key,
                            const ChaChaNonce& nonce) noexcept {
    const auto block = chacha20_block(key, 0, nonce);
    Poly1305Key poly_key;
    std::memcpy(poly_key.data(), block.data(), poly_key.size());
    return poly_key;
}

/// The tag over aad || pad16 || ciphertext || pad16 || len(aad) ||
/// len(ciphertext), absorbed piece by piece.
Poly1305Tag aead_tag(const ChaChaKey& key, const ChaChaNonce& nonce,
                     ByteView aad, ByteView ciphertext) noexcept {
    Poly1305 mac(derive_poly_key(key, nonce));
    mac.absorb(aad, true);
    mac.absorb(ciphertext, true);
    std::uint8_t lengths[16];
    for (int i = 0; i < 8; ++i) {
        lengths[i] = static_cast<std::uint8_t>(aad.size() >> (8 * i));
        lengths[8 + i] =
            static_cast<std::uint8_t>(ciphertext.size() >> (8 * i));
    }
    mac.absorb(ByteView(lengths, sizeof lengths), true);
    return mac.finish();
}

std::uint64_t fast_seed(const ChaChaKey& key, const ChaChaNonce& nonce,
                        ByteView aad) noexcept {
    std::uint8_t material[kChaChaKeySize + kChaChaNonceSize];
    std::memcpy(material, key.data(), kChaChaKeySize);
    std::memcpy(material + kChaChaKeySize, nonce.data(), kChaChaNonceSize);
    std::uint8_t seed_bytes[8];
    detail::fast_digest(material, sizeof material, 0x41454144, seed_bytes,
                        sizeof seed_bytes);
    std::uint64_t seed = 0;
    for (int i = 0; i < 8; ++i) {
        seed |= static_cast<std::uint64_t>(seed_bytes[i]) << (8 * i);
    }
    std::uint8_t aad_bytes[8];
    detail::fast_digest(aad.data(), aad.size(), seed, aad_bytes,
                        sizeof aad_bytes);
    std::uint64_t mixed = 0;
    for (int i = 0; i < 8; ++i) {
        mixed |= static_cast<std::uint64_t>(aad_bytes[i]) << (8 * i);
    }
    return mixed;
}

}  // namespace

Bytes aead_seal(const ChaChaKey& key, const ChaChaNonce& nonce, ByteView aad,
                ByteView plaintext) {
    if (fast_crypto()) {
        // "Ciphertext" is the plaintext plus a keyed fast tag: sizes and
        // verification behaviour match the real AEAD, secrecy is not
        // modelled (nothing in a benchmark reads another node's buffers).
        Bytes out(plaintext.begin(), plaintext.end());
        std::uint8_t tag[kAeadTagSize];
        detail::fast_digest(plaintext.data(), plaintext.size(),
                            fast_seed(key, nonce, aad), tag, sizeof tag);
        out.insert(out.end(), tag, tag + sizeof tag);
        return out;
    }
    Bytes ciphertext = chacha20_xor(key, nonce, 1, plaintext);
    const Poly1305Tag tag = aead_tag(key, nonce, aad, ciphertext);
    ciphertext.insert(ciphertext.end(), tag.begin(), tag.end());
    return ciphertext;
}

void aead_seal_inplace(const ChaChaKey& key, const ChaChaNonce& nonce,
                       ByteView aad, Bytes& buf, std::size_t offset) {
    const std::size_t len = buf.size() - offset;
    if (fast_crypto()) {
        std::uint8_t tag[kAeadTagSize];
        detail::fast_digest(buf.data() + offset, len,
                            fast_seed(key, nonce, aad), tag, sizeof tag);
        buf.insert(buf.end(), tag, tag + sizeof tag);
        return;
    }
    chacha20_xor_inplace(key, nonce, 1, buf.data() + offset, len);
    const Poly1305Tag tag =
        aead_tag(key, nonce, aad, ByteView(buf.data() + offset, len));
    buf.insert(buf.end(), tag.begin(), tag.end());
}

std::optional<Bytes> aead_open(const ChaChaKey& key, const ChaChaNonce& nonce,
                               ByteView aad, ByteView sealed) {
    Bytes buf(sealed.begin(), sealed.end());
    if (!aead_open_inplace(key, nonce, aad, buf)) return std::nullopt;
    return buf;
}

bool aead_open_inplace(const ChaChaKey& key, const ChaChaNonce& nonce,
                       ByteView aad, Bytes& buf) {
    if (buf.size() < kAeadTagSize) return false;
    const std::size_t len = buf.size() - kAeadTagSize;
    const ByteView ciphertext(buf.data(), len);
    const ByteView tag(buf.data() + len, kAeadTagSize);
    if (fast_crypto()) {
        std::uint8_t expected[kAeadTagSize];
        detail::fast_digest(ciphertext.data(), len,
                            fast_seed(key, nonce, aad), expected,
                            sizeof expected);
        if (!constant_time_equal(ByteView(expected, sizeof expected), tag)) {
            return false;
        }
        buf.resize(len);
        return true;
    }
    const Poly1305Tag expected = aead_tag(key, nonce, aad, ciphertext);
    if (!constant_time_equal(expected, tag)) return false;
    buf.resize(len);
    chacha20_xor_inplace(key, nonce, 1, buf.data(), len);
    return true;
}

ChaChaNonce make_record_nonce(const ChaChaNonce& iv,
                              std::uint64_t sequence) noexcept {
    ChaChaNonce nonce = iv;
    for (int i = 0; i < 8; ++i) {
        nonce[kChaChaNonceSize - 1 - i] ^=
            static_cast<std::uint8_t>(sequence >> (8 * i));
    }
    return nonce;
}

}  // namespace troxy::crypto

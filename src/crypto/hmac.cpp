#include "crypto/hmac.hpp"

#include <stdexcept>

#include "crypto/fastmode.hpp"

namespace troxy::crypto {

namespace {
constexpr std::size_t kBlockSize = 64;
}

HmacTag hmac_sha256(ByteView key, ByteView data) noexcept {
    if (fast_crypto()) {
        // Key the fast digest by hashing the key into the seed first.
        HmacTag tag;
        std::uint8_t seed_bytes[8];
        detail::fast_digest(key.data(), key.size(), 0x484d4143, seed_bytes,
                            sizeof seed_bytes);
        std::uint64_t seed = 0;
        for (int i = 0; i < 8; ++i) {
            seed |= static_cast<std::uint64_t>(seed_bytes[i]) << (8 * i);
        }
        detail::fast_digest(data.data(), data.size(), seed, tag.data(),
                            tag.size());
        return tag;
    }
    std::array<std::uint8_t, kBlockSize> key_block{};
    if (key.size() > kBlockSize) {
        const Sha256Digest hashed = sha256(key);
        std::copy(hashed.begin(), hashed.end(), key_block.begin());
    } else {
        std::copy(key.begin(), key.end(), key_block.begin());
    }

    std::array<std::uint8_t, kBlockSize> ipad, opad;
    for (std::size_t i = 0; i < kBlockSize; ++i) {
        ipad[i] = key_block[i] ^ 0x36;
        opad[i] = key_block[i] ^ 0x5c;
    }

    Sha256 inner;
    inner.update(ipad);
    inner.update(data);
    const Sha256Digest inner_digest = inner.finish();

    Sha256 outer;
    outer.update(opad);
    outer.update(inner_digest);
    return outer.finish();
}

Bytes hmac_sha256_bytes(ByteView key, ByteView data) {
    const HmacTag t = hmac_sha256(key, data);
    return Bytes(t.begin(), t.end());
}

bool hmac_verify(ByteView key, ByteView data, ByteView tag) noexcept {
    const HmacTag expected = hmac_sha256(key, data);
    return constant_time_equal(expected, tag);
}

HmacTag hkdf_extract(ByteView salt, ByteView ikm) noexcept {
    return hmac_sha256(salt, ikm);
}

Bytes hkdf_expand(ByteView prk, ByteView info, std::size_t length) {
    if (length > 255 * kSha256DigestSize) {
        throw std::invalid_argument("hkdf_expand: length too large");
    }
    Bytes out;
    out.reserve(length);
    Bytes previous;
    std::uint8_t counter = 1;
    while (out.size() < length) {
        Bytes block = previous;
        block.insert(block.end(), info.begin(), info.end());
        block.push_back(counter++);
        const HmacTag t = hmac_sha256(prk, block);
        previous.assign(t.begin(), t.end());
        const std::size_t take =
            std::min(previous.size(), length - out.size());
        out.insert(out.end(), previous.begin(),
                   previous.begin() + static_cast<std::ptrdiff_t>(take));
    }
    return out;
}

Bytes hkdf(ByteView salt, ByteView ikm, ByteView info, std::size_t length) {
    const HmacTag prk = hkdf_extract(salt, ikm);
    return hkdf_expand(prk, info, length);
}

}  // namespace troxy::crypto

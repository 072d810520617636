#include "crypto/poly1305.hpp"

#include <algorithm>
#include <cstring>

namespace troxy::crypto {

// Implementation with 64-bit limbs using unsigned __int128 intermediates
// (the classic donna-style arrangement with 44/44/42-bit limbs would also
// work; 64-bit limbs with 128-bit products are simpler and fast enough).
// The accumulator h is kept as h0,h1,h2 with h2 small (<= 7) and reduced
// mod 2^130-5 after each block.

namespace {

using u64 = std::uint64_t;
using u128 = unsigned __int128;

u64 load_le64(const std::uint8_t* p) noexcept {
    u64 v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<u64>(p[i]) << (8 * i);
    return v;
}

}  // namespace

Poly1305::Poly1305(const Poly1305Key& key) noexcept
    // r is clamped per the RFC.
    : r0_(load_le64(key.data()) & 0x0ffffffc0fffffffULL),
      r1_(load_le64(key.data() + 8) & 0x0ffffffc0ffffffcULL),
      s0_(load_le64(key.data() + 16)),
      s1_(load_le64(key.data() + 24)) {}

void Poly1305::absorb(ByteView data, bool pad) noexcept {
    for (std::size_t offset = 0; offset < data.size(); offset += 16) {
        block(data.data() + offset,
              std::min<std::size_t>(16, data.size() - offset), pad);
    }
}

void Poly1305::block(const std::uint8_t* bytes, std::size_t n,
                     bool pad) noexcept {
    std::uint8_t block[17] = {0};
    std::memcpy(block, bytes, n);
    block[pad ? 16 : n] = 1;  // append the high bit

    const u64 t0 = load_le64(block);
    const u64 t1 = load_le64(block + 8);
    const u64 t2 = block[16];

    // h += block
    u128 acc = static_cast<u128>(h0_) + t0;
    h0_ = static_cast<u64>(acc);
    acc = static_cast<u128>(h1_) + t1 + static_cast<u64>(acc >> 64);
    h1_ = static_cast<u64>(acc);
    h2_ += t2 + static_cast<u64>(acc >> 64);

    // h *= r (mod 2^130 - 5)
    // Schoolbook multiply of (h2,h1,h0) by (r1,r0); h2 is small.
    const u128 m0 = static_cast<u128>(h0_) * r0_;
    const u128 m1 = static_cast<u128>(h0_) * r1_ + static_cast<u128>(h1_) * r0_;
    const u128 m2 = static_cast<u128>(h1_) * r1_ + static_cast<u128>(h2_) * r0_;
    const u128 m3 = static_cast<u128>(h2_) * r1_;

    const u64 d0 = static_cast<u64>(m0);
    u128 carry = (m0 >> 64) + static_cast<u64>(m1);
    const u64 d1 = static_cast<u64>(carry);
    carry = (carry >> 64) + (m1 >> 64) + static_cast<u64>(m2);
    const u64 d2 = static_cast<u64>(carry);
    carry = (carry >> 64) + (m2 >> 64) + static_cast<u64>(m3);
    const u64 d3 = static_cast<u64>(carry) + static_cast<u64>(m3 >> 64);

    // Reduce: the value is d3·2^192 + d2·2^128 + d1·2^64 + d0.
    // Fold everything above bit 130 back via 2^130 ≡ 5 (mod p).
    // Split d2 at bit 2 (since 130 = 128 + 2).
    const u64 high = (d2 >> 2) | (d3 << 62);  // bits ≥ 130, low part
    const u64 high2 = d3 >> 2;                // bits ≥ 194
    h0_ = d0;
    h1_ = d1;
    h2_ = d2 & 3;

    // h += high * 5  (5·x = 4x + x)
    u128 fold = static_cast<u128>(high) * 5 + h0_;
    h0_ = static_cast<u64>(fold);
    fold = (fold >> 64) + static_cast<u128>(high2) * 5 + h1_;
    h1_ = static_cast<u64>(fold);
    h2_ += static_cast<u64>(fold >> 64);

    // One more partial reduction to keep h2 small.
    const u64 extra = (h2_ >> 2) * 5;
    h2_ &= 3;
    u128 acc2 = static_cast<u128>(h0_) + extra;
    h0_ = static_cast<u64>(acc2);
    acc2 = static_cast<u128>(h1_) + static_cast<u64>(acc2 >> 64);
    h1_ = static_cast<u64>(acc2);
    h2_ += static_cast<u64>(acc2 >> 64);
}

Poly1305Tag Poly1305::finish() const noexcept {
    // Final reduction: compute h mod 2^130-5 exactly.
    // h may be slightly above p; compare h with p = 2^130 - 5.
    u64 h0 = h0_, h1 = h1_, h2 = h2_;
    u64 g0, g1, g2;
    {
        u128 acc = static_cast<u128>(h0) + 5;
        g0 = static_cast<u64>(acc);
        acc = static_cast<u128>(h1) + static_cast<u64>(acc >> 64);
        g1 = static_cast<u64>(acc);
        g2 = h2 + static_cast<u64>(acc >> 64);
    }
    if (g2 >> 2) {  // h + 5 >= 2^130, so h >= p: use h - p = g mod 2^130
        h0 = g0;
        h1 = g1;
        h2 = g2 & 3;
    }

    // tag = (h + s) mod 2^128
    u128 acc = static_cast<u128>(h0) + s0_;
    const u64 t0 = static_cast<u64>(acc);
    acc = static_cast<u128>(h1) + s1_ + static_cast<u64>(acc >> 64);
    const u64 t1 = static_cast<u64>(acc);

    Poly1305Tag tag;
    for (int i = 0; i < 8; ++i) {
        tag[i] = static_cast<std::uint8_t>(t0 >> (8 * i));
        tag[8 + i] = static_cast<std::uint8_t>(t1 >> (8 * i));
    }
    return tag;
}

Poly1305Tag poly1305(const Poly1305Key& key, ByteView data) noexcept {
    Poly1305 mac(key);
    mac.absorb(data, false);
    return mac.finish();
}

}  // namespace troxy::crypto

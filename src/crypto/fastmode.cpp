#include "crypto/fastmode.hpp"

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace troxy::crypto {

namespace {
bool g_fast = false;
}

bool fast_crypto() noexcept { return g_fast; }
void set_fast_crypto(bool enabled) noexcept { g_fast = enabled; }

namespace detail {

void fast_digest(const std::uint8_t* data, std::size_t len,
                 std::uint64_t seed, std::uint8_t* out,
                 std::size_t out_len) noexcept {
    // Word stride: one little-endian 8-byte load, one multiply and one
    // xorshift per word; the last len % 8 bytes take the FNV-1a step.
    std::uint64_t h = 0xcbf29ce484222325ULL ^ seed;
    std::size_t i = 0;
    for (; i + 8 <= len; i += 8) {
        std::uint64_t word;
        std::memcpy(&word, data + i, sizeof word);
        if constexpr (std::endian::native == std::endian::big) {
            word = __builtin_bswap64(word);
        }
        h = (h ^ word) * 0x9e3779b97f4a7c15ULL;
        h ^= h >> 32;
    }
    for (; i < len; ++i) {
        h ^= data[i];
        h *= 0x100000001b3ULL;
    }
    h ^= len;

    // Expand to the requested width with SplitMix64.
    std::size_t produced = 0;
    while (produced < out_len) {
        h += 0x9e3779b97f4a7c15ULL;
        std::uint64_t z = h;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        z ^= z >> 31;
        for (int b = 0; b < 8 && produced < out_len; ++b, ++produced) {
            out[produced] = static_cast<std::uint8_t>(z >> (8 * b));
        }
    }
}

}  // namespace detail

}  // namespace troxy::crypto

#include "hybster/snapshot.hpp"

#include <algorithm>
#include <array>

#include "common/assert.hpp"

namespace troxy::hybster {

namespace {

constexpr std::uint8_t kLeafDomain = 0x00;
constexpr std::uint8_t kNodeDomain = 0x01;

/// Leaf hash of `chunk`, staging 0x00 ‖ chunk in `input` (whose
/// capacity carries over to the next leaf).
crypto::Sha256Digest leaf_hash_into(enclave::CostedCrypto& crypto,
                                    ByteView chunk, Bytes& input) {
    input.clear();
    input.push_back(kLeafDomain);
    input.insert(input.end(), chunk.begin(), chunk.end());
    return crypto.hash(input);
}

}  // namespace

crypto::Sha256Digest chunk_leaf_hash(enclave::CostedCrypto& crypto,
                                     ByteView chunk) {
    Bytes input;
    input.reserve(1 + chunk.size());
    return leaf_hash_into(crypto, chunk, input);
}

crypto::Sha256Digest merkle_root(
    enclave::CostedCrypto& crypto,
    const std::vector<crypto::Sha256Digest>& manifest) {
    if (manifest.empty()) {
        return crypto.hash(ByteView(&kNodeDomain, 1));
    }
    // Folds level by level in place: node i/2 of the next level overwrites
    // a slot whose digest was already consumed.
    std::vector<crypto::Sha256Digest> level = manifest;
    std::array<std::uint8_t, 1 + 2 * crypto::kSha256DigestSize> input;
    input[0] = kNodeDomain;
    std::size_t width = level.size();
    while (width > 1) {
        std::size_t next = 0;
        std::size_t i = 0;
        for (; i + 1 < width; i += 2) {
            std::copy(level[i].begin(), level[i].end(), input.begin() + 1);
            std::copy(level[i + 1].begin(), level[i + 1].end(),
                      input.begin() + 1 + crypto::kSha256DigestSize);
            level[next++] = crypto.hash(input);
        }
        if (i < width) level[next++] = level[i];  // odd: promote
        width = next;
    }
    return level.front();
}

ChunkedSnapshot chunk_snapshot(enclave::CostedCrypto& crypto,
                               ByteView snapshot, std::size_t chunk_size) {
    TROXY_ASSERT(chunk_size > 0, "chunk size must be positive");
    ChunkedSnapshot out;
    const std::size_t count =
        snapshot.empty() ? 1 : (snapshot.size() + chunk_size - 1) / chunk_size;
    out.chunks.reserve(count);
    out.manifest.reserve(count);
    Bytes input;
    input.reserve(1 + std::min(chunk_size, snapshot.size()));
    for (std::size_t offset = 0; offset == 0 || offset < snapshot.size();
         offset += chunk_size) {
        const std::size_t len =
            std::min(chunk_size, snapshot.size() - offset);
        const ByteView chunk = snapshot.subspan(offset, len);
        out.manifest.push_back(leaf_hash_into(crypto, chunk, input));
        out.chunks.push_back(
            std::make_shared<const Bytes>(chunk.begin(), chunk.end()));
    }
    out.root = merkle_root(crypto, out.manifest);
    return out;
}

}  // namespace troxy::hybster

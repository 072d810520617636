// Merkle-chunked checkpoint snapshots.
//
// A service checkpoint is split into fixed-size chunks whose hashes form
// the leaves of a binary Merkle tree; the tree's root *is* the checkpoint
// digest the replicas certify in their CheckpointMsgs. State transfer can
// then ship a checkpoint as a verifiable chunk stream: a rejoiner
// advertises the chunk hashes it already holds, receives only the chunks
// it misses, verifies each against the manifest (and the manifest against
// the certified root), and resumes a half-finished transfer after a crash
// or loss window instead of restarting from byte zero.
//
// Hashing is domain-separated (RFC 6962 style): leaf hashes are computed
// over 0x00 || chunk and interior nodes over 0x01 || left || right, so an
// interior node can never be passed off as a leaf — the manifest → root
// mapping is injective up to SHA-256 collisions, which makes the chunk
// stream exactly as trustworthy as the monolithic snapshot it replaces.
// An odd node at any level is promoted unchanged to the next level.
#pragma once

#include <memory>
#include <vector>

#include "common/bytes.hpp"
#include "crypto/sha256.hpp"
#include "enclave/meter.hpp"

namespace troxy::hybster {

/// A checkpoint snapshot in transferable form: the chunks, their leaf
/// hashes in chunk order (the manifest), and the Merkle root that the
/// checkpoint certificates bind. Chunks are immutable and shared: the
/// stable checkpoint and the durable chunk store reference the same
/// buffers, so banking a chunk never copies its payload.
struct ChunkedSnapshot {
    std::vector<std::shared_ptr<const Bytes>> chunks;
    std::vector<crypto::Sha256Digest> manifest;
    crypto::Sha256Digest root{};

    [[nodiscard]] std::size_t total_bytes() const noexcept {
        std::size_t total = 0;
        for (const auto& chunk : chunks) {
            if (chunk) total += chunk->size();
        }
        return total;
    }
};

/// Leaf hash of one chunk (0x00-prefixed), charged to the meter.
crypto::Sha256Digest chunk_leaf_hash(enclave::CostedCrypto& crypto,
                                     ByteView chunk);

/// Folds a manifest of leaf hashes into the Merkle root (0x01-prefixed
/// interior nodes, odd nodes promoted), charging one hash per interior
/// node. An empty manifest has a well-defined constant root, the digest
/// of the single domain byte — the "nothing stable yet" marker.
crypto::Sha256Digest merkle_root(enclave::CostedCrypto& crypto,
                                 const std::vector<crypto::Sha256Digest>&
                                     manifest);

/// Splits `snapshot` into `chunk_size`-byte chunks (the last may be
/// short; an empty snapshot yields one empty chunk so every checkpoint
/// has at least one leaf) and builds manifest and root.
ChunkedSnapshot chunk_snapshot(enclave::CostedCrypto& crypto,
                               ByteView snapshot, std::size_t chunk_size);

}  // namespace troxy::hybster

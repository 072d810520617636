// Hybster wire messages.
//
// All structures encode to length-delimited binary via common/serialize;
// decode validates sizes and throws DecodeError on malformed input, which
// handlers translate into "discard the message".
//
// Certificates: PREPAREs and COMMITs carry trusted-counter certificates
// (TrinX) that bind the message to one counter value — within a view,
// counter value and sequence number are related by value = seq -
// view_start + 1, so a Byzantine replica cannot certify two different
// messages for the same slot (Hybster's anti-equivocation core). REPLYs
// carry an *independent* certificate from the replica's trusted subsystem
// (the Troxy in a Troxy deployment; §IV-A requires the voter to only
// count replies authenticated by the sender's Troxy).
//
// Codec allocation rules (DESIGN.md §16): fixed-layout certified views
// are std::arrays; variable views are written into a scratch buffer the
// caller owns and reuses; encoders size their buffer once from
// encoded_size(); and decoders read fixed fields straight into the
// message.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "common/assert.hpp"
#include "common/bytes.hpp"
#include "common/serialize.hpp"
#include "crypto/sha256.hpp"
#include "enclave/meter.hpp"
#include "enclave/trinx.hpp"
#include "hybster/config.hpp"
#include "net/envelope.hpp"
#include "sim/pool.hpp"

namespace troxy::hybster {

using enclave::Certificate;
using enclave::CounterValue;

enum class MsgType : std::uint8_t {
    Request = 1,
    Prepare = 2,
    Commit = 3,
    Reply = 4,
    ViewChange = 5,
    NewView = 6,
    Checkpoint = 7,
    StateRequest = 8,
    StateResponse = 9,
};

/// Identifies a logical client request: (reply destination, number).
struct RequestId {
    sim::NodeId client = 0;
    std::uint64_t number = 0;

    auto operator<=>(const RequestId&) const = default;
};

/// Hash for unordered containers keyed by RequestId.
struct RequestIdHash {
    std::size_t operator()(const RequestId& id) const noexcept {
        // splitmix64-style finalizer over both fields.
        std::uint64_t x =
            (static_cast<std::uint64_t>(id.client) << 32) ^ id.number;
        x ^= x >> 30;
        x *= 0xbf58476d1ce4e5b9ULL;
        x ^= x >> 27;
        x *= 0x94d049bb133111ebULL;
        x ^= x >> 31;
        return static_cast<std::size_t>(x);
    }
};

struct Request {
    static constexpr MsgType kType = MsgType::Request;

    RequestId id;
    /// Bit 0: read-only; bit 1: client asks for optimistic (non-ordered)
    /// read execution — the PBFT-like baseline read optimization;
    /// bit 2: protocol no-op (view-change gap filler).
    std::uint8_t flags = 0;
    Bytes payload;
    /// Authenticator over the fields above. Legacy BFT clients attach one
    /// certificate per replica (index = replica id, pairwise keys); a
    /// Troxy attaches a single trusted-subsystem certificate.
    std::vector<Certificate> auth;

    static constexpr std::uint8_t kFlagRead = 0x01;
    static constexpr std::uint8_t kFlagOptimistic = 0x02;
    static constexpr std::uint8_t kFlagNoop = 0x04;

    [[nodiscard]] bool is_read() const noexcept { return flags & kFlagRead; }
    [[nodiscard]] bool is_optimistic() const noexcept {
        return flags & kFlagOptimistic;
    }

    /// Bytes covered by the certificate, written into `scratch` (cleared
    /// first, capacity reused); the returned view aliases `scratch`.
    ByteView signed_view(Bytes& scratch) const;
    /// Owning copy of the signed view, for cold paths.
    [[nodiscard]] Bytes signed_view() const;
    [[nodiscard]] std::size_t encoded_size() const noexcept;
    void encode(Writer& w) const;
    static Request decode(Reader& r);

    /// Digest identifying this request in commits/replies. Memoized: the
    /// first call hashes signed_view(), later calls return the cached
    /// digest, so a request must not be mutated after its digest is taken.
    [[nodiscard]] const crypto::Sha256Digest& digest() const;

    /// Like digest(), but charges the hash cost to `crypto` — once: a
    /// cache hit costs nothing. All metered protocol paths use this so
    /// each request is hashed (and billed) exactly once per replica. The
    /// signed view is staged in the caller's `scratch`.
    [[nodiscard]] const crypto::Sha256Digest& digest_with(
        enclave::CostedCrypto& crypto, Bytes& scratch) const;

  private:
    mutable std::optional<crypto::Sha256Digest> digest_cache_;
};

/// An ordered group of client requests proposed under one sequence number.
/// The whole batch is certified by a single trusted-counter certification
/// and identified by one digest, amortizing the per-slot protocol cost
/// across its members (a single-request batch reproduces the unbatched
/// message flow and digest byte-for-byte).
struct Batch {
    std::vector<Request> requests;

    [[nodiscard]] std::size_t size() const noexcept { return requests.size(); }
    [[nodiscard]] bool empty() const noexcept { return requests.empty(); }

    /// Digest ordering the batch: for one member, the member's own request
    /// digest (keeps batch=1 identical to the pre-batching wire contract);
    /// for k > 1 members, SHA-256 over the k concatenated member digests.
    /// The digest alone does NOT bind the member count (a crafted request
    /// whose signed bytes equal a concatenation of digests would collide),
    /// so every certified view pairs it with the count — see Prepare/
    /// Commit::certified_view() and Replica::committed().
    /// Memoized like Request::digest().
    [[nodiscard]] const crypto::Sha256Digest& digest() const;

    /// Charged variant: bills each member hash plus the combining hash to
    /// `crypto` exactly once across all calls; hash inputs are staged in
    /// the caller's `scratch`.
    [[nodiscard]] const crypto::Sha256Digest& digest_with(
        enclave::CostedCrypto& crypto, Bytes& scratch) const;

    [[nodiscard]] std::size_t encoded_size() const noexcept;
    void encode(Writer& w) const;
    static Batch decode(Reader& r);

  private:
    mutable std::optional<crypto::Sha256Digest> digest_cache_;
};

/// Certified view of a PREPARE or COMMIT: view ‖ seq ‖ replica ‖ batch
/// member count ‖ batch digest.
using AgreementView = std::array<std::uint8_t, 24 + crypto::kSha256DigestSize>;

struct Prepare {
    static constexpr MsgType kType = MsgType::Prepare;

    ViewNumber view = 0;
    SequenceNumber seq = 0;
    std::uint32_t replica = 0;  // the leader
    CounterValue counter_value = 0;
    Batch batch;
    Certificate cert{};

    [[nodiscard]] AgreementView certified_view() const;
    [[nodiscard]] std::size_t encoded_size() const noexcept;
    void encode(Writer& w) const;
    static Prepare decode(Reader& r);
};

struct Commit {
    static constexpr MsgType kType = MsgType::Commit;

    ViewNumber view = 0;
    SequenceNumber seq = 0;
    std::uint32_t replica = 0;
    CounterValue counter_value = 0;
    /// Member count of the batch being committed. Certified alongside the
    /// digest: the (count, digest) pair pins the batch *structure*, so a
    /// certificate over a k-member batch can never double as one over a
    /// single request whose bytes collide with the combining-hash input.
    std::uint32_t batch_size = 0;
    crypto::Sha256Digest batch_digest{};
    Certificate cert{};

    [[nodiscard]] AgreementView certified_view() const;
    [[nodiscard]] std::size_t encoded_size() const noexcept;
    void encode(Writer& w) const;
    static Commit decode(Reader& r);
};

struct Reply {
    static constexpr MsgType kType = MsgType::Reply;

    enum class Kind : std::uint8_t { Ordered = 0, Optimistic = 1 };

    Kind kind = Kind::Ordered;
    ViewNumber view = 0;
    SequenceNumber seq = 0;
    RequestId request_id;
    /// Hash of the original request (§IV-A change (2): lets the voting
    /// Troxy identify the cache entry a write outdates).
    crypto::Sha256Digest request_digest{};
    Bytes result;
    std::uint32_t replica = 0;
    /// Independent certificate by the replica's trusted subsystem.
    Certificate cert{};

    /// Bytes covered by the certificate (everything except the cert),
    /// written into `scratch`; the returned view aliases `scratch`.
    ByteView certified_view(Bytes& scratch) const;
    /// Owning copy of the certified view, for cold paths.
    [[nodiscard]] Bytes certified_view() const;
    [[nodiscard]] std::size_t encoded_size() const noexcept;
    void encode(Writer& w) const;
    static Reply decode(Reader& r);
};

struct CheckpointMsg {
    static constexpr MsgType kType = MsgType::Checkpoint;

    SequenceNumber seq = 0;
    crypto::Sha256Digest state_digest{};
    std::uint32_t replica = 0;
    Certificate cert{};

    /// seq ‖ state digest ‖ replica.
    using View = std::array<std::uint8_t, 12 + crypto::kSha256DigestSize>;

    [[nodiscard]] View certified_view() const;
    [[nodiscard]] std::size_t encoded_size() const noexcept;
    void encode(Writer& w) const;
    static CheckpointMsg decode(Reader& r);
};

struct ViewChange {
    static constexpr MsgType kType = MsgType::ViewChange;

    ViewNumber new_view = 0;
    std::uint32_t replica = 0;
    SequenceNumber last_stable = 0;  // latest stable checkpoint
    /// Certified prepares the replica has seen above the checkpoint.
    std::vector<Prepare> prepared;
    Certificate cert{};

    [[nodiscard]] Bytes certified_view() const;
    [[nodiscard]] std::size_t encoded_size() const noexcept;
    void encode(Writer& w) const;
    static ViewChange decode(Reader& r);
};

struct NewView {
    static constexpr MsgType kType = MsgType::NewView;

    ViewNumber view = 0;
    std::uint32_t replica = 0;  // the new leader
    SequenceNumber start_seq = 0;
    std::vector<ViewChange> proofs;
    /// Requests the new leader re-proposes, in sequence order starting at
    /// start_seq (fresh prepares are issued by the new leader).
    std::vector<Prepare> reproposed;
    Certificate cert{};

    [[nodiscard]] Bytes certified_view() const;
    [[nodiscard]] std::size_t encoded_size() const noexcept;
    void encode(Writer& w) const;
    static NewView decode(Reader& r);
};

/// Asks peers for a state-transfer snapshot: sent by a replica that
/// restarted empty (crash-recovery rejoin) or detected, via a stable
/// checkpoint it cannot reach, that it fell behind the cluster.
/// `have_chunks` advertises the snapshot chunk hashes the requester
/// already holds in its durable chunk store (from an earlier checkpoint
/// or a partially completed transfer), so responders ship only what is
/// missing — the Merkle-incremental transfer path.
struct StateRequest {
    static constexpr MsgType kType = MsgType::StateRequest;

    std::uint32_t replica = 0;       // the requester
    SequenceNumber have = 0;         // requester's latest stable checkpoint
    std::vector<crypto::Sha256Digest> have_chunks;
    Certificate cert{};

    [[nodiscard]] Bytes certified_view() const;
    [[nodiscard]] std::size_t encoded_size() const noexcept;
    void encode(Writer& w) const;
    static StateRequest decode(Reader& r);
};

/// Answer to a StateRequest: one message of the responder's chunked
/// checkpoint stream plus its current view coordinates. The stream is
/// self-certifying: `root` is the Merkle root over `manifest` (the chunk
/// leaf hashes in order) and `proof` carries the f+1 certified
/// CheckpointMsgs whose state digest IS that root, so ONE responder
/// suffices — at least one vote in a valid proof comes from a correct
/// replica, hence the manifest describes a real checkpoint of
/// `last_stable`. Each chunk verifies individually against the manifest,
/// which lets the requester accept chunks in any order, from any
/// responder, across retries. `chunk_index[i]` is the manifest position
/// of `chunks[i]`; chunks the requester advertised are skipped, so the
/// index list is generally non-contiguous. Responses with
/// last_stable == 0 carry no manifest or proof (nothing stable yet) and
/// the requester falls back to f+1 matching responses before adopting
/// the view coordinates.
struct StateResponse {
    static constexpr MsgType kType = MsgType::StateResponse;

    std::uint32_t replica = 0;       // the responder
    ViewNumber view = 0;
    SequenceNumber view_start = 0;
    SequenceNumber last_stable = 0;  // snapshot's sequence number
    crypto::Sha256Digest root{};     // Merkle root == certified digest
    std::vector<crypto::Sha256Digest> manifest;
    std::vector<std::uint32_t> chunk_index;
    std::vector<Bytes> chunks;
    std::vector<CheckpointMsg> proof;
    Certificate cert{};

    /// Certified bytes: the coordinates plus the Merkle root only. The
    /// chunk payloads need no per-message certificate — they verify
    /// against the manifest and the manifest folds to the certified root
    /// — so a responder computes ONE certificate per transfer and reuses
    /// it across every message of the stream.
    [[nodiscard]] Bytes certified_view() const;
    [[nodiscard]] std::size_t encoded_size() const noexcept;
    void encode(Writer& w) const;
    /// Zero-copy framing split: encode() is byte-identical to
    /// encode_head(w, chunks.size()) ‖ per chunk (u32 index ‖ u32 length
    /// ‖ payload) ‖ encode_tail(w). A sender can therefore frame the
    /// chunk payloads as referenced fragments (inline index/length
    /// prefixes over shared chunk buffers) instead of copying them
    /// through a contiguous encode buffer.
    void encode_head(Writer& w, std::size_t chunk_count) const;
    void encode_tail(Writer& w) const;
    static StateResponse decode(Reader& r);
};

using Message = std::variant<Request, Prepare, Commit, Reply, CheckpointMsg,
                             ViewChange, NewView, StateRequest,
                             StateResponse>;

namespace detail {
/// Writes the optional envelope byte, T's type tag and the message into
/// one buffer sized exactly once (a recycled one when `pool` is given).
template <typename T>
Bytes encode_sized(const T& message, std::optional<net::Channel> channel,
                   sim::BufferPool* pool) {
    const std::size_t size = (channel ? 2 : 1) + message.encoded_size();
    Writer w(pool != nullptr ? pool->acquire_empty(size) : Bytes());
    w.reserve(size);
    if (channel) w.u8(static_cast<std::uint8_t>(*channel));
    w.u8(static_cast<std::uint8_t>(T::kType));
    message.encode(w);
    TROXY_ASSERT(w.size() == size, "encoded_size() out of sync with encode()");
    return std::move(w).take();
}
}  // namespace detail

/// Serializes a message with its type tag into a buffer sized once.
Bytes encode_message(const Message& message);

/// Wire frame for one message of type T: the envelope channel byte
/// followed by encode_message(Message(message)), written once into a
/// buffer of exactly that size — a recycled wire buffer when `pool` is
/// given. Takes the concrete message, so nothing is copied into a
/// Message first.
template <typename T>
Bytes encode_frame(net::Channel channel, const T& message,
                   sim::BufferPool* pool = nullptr) {
    return detail::encode_sized(message, channel, pool);
}

/// Parses a message; nullopt on any malformed input.
std::optional<Message> decode_message(ByteView data);

}  // namespace troxy::hybster

// Hybster wire messages.
//
// All structures encode to length-delimited binary via common/serialize;
// decode validates sizes and throws DecodeError on malformed input, which
// handlers translate into "discard the message".
//
// Certificates: in the hybrid profile PREPAREs and COMMITs carry
// trusted-counter certificates (TrinX) that bind the message to one
// counter value — within a view, counter value and sequence number are
// related by value = seq - view_start + 1, so a Byzantine replica cannot
// certify two different messages for the same slot (Hybster's
// anti-equivocation core). In the PBFT profile every agreement message
// carries a link-MAC authenticator instead, one tag per replica, and the
// receiver decodes at its group's width (see hybster/certifier.hpp).
// REPLYs carry an *independent* certificate from the replica's trusted
// subsystem (the Troxy in a Troxy deployment; §IV-A requires the voter to
// only count replies authenticated by the sender's Troxy).
//
// Each message states its wire layout once, in a static layout()
// template (see common/serialize.hpp): encoding, decoding, the encoded
// size and every certified view that is "all fields but the certificate"
// follow from it. Only a Request reads itself by hand, so its payload and
// certificates land in one body; Prepare and Commit certify a fixed
// AgreementView instead. Every counted list carries a wire cap, and a
// decoder rejects a count its frame cannot hold before it reserves
// anything.
//
// Codec allocation rules (DESIGN.md §16): fixed-layout certified views
// are std::arrays; variable views are written into a scratch buffer the
// caller owns and reuses; encoders size their buffer once, with the same
// layout; and decoders read into the caller's object, reusing its
// buffers. A decoded or newly created Request takes exactly one
// RequestBody block, recycled through a bounded per-thread free list, so
// a warm node decodes and builds requests without allocating; every later
// copy shares the block.
#pragma once

#include <algorithm>
#include <array>
#include <concepts>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "common/assert.hpp"
#include "common/bytes.hpp"
#include "common/flat_map.hpp"
#include "common/serialize.hpp"
#include "crypto/sha256.hpp"
#include "enclave/meter.hpp"
#include "enclave/trinx.hpp"
#include "hybster/certifier.hpp"
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

    template <class Io, class M>
    static void layout(Io& io, M& m) {
        io.u32(m.client);
        io.u64(m.number);
    }
};

/// A request's payload and authenticator in one immutable heap block: a
/// reference count, the payload bytes and the certificates. Copies share
/// the block, so a request is materialized once per node however many
/// tables hold it. Only the creator writes the certificates, before the
/// first copy. Single-threaded, like the simulation that uses it.
///
/// Blocks come in size classes of 64 B steps up to 4 KiB. When its last
/// reference goes, a block joins its thread's free list for that class
/// and the next body of the class reuses it; a thread retains at most
/// 8 MiB of blocks, and larger blocks go straight back to the heap. Under
/// AddressSanitizer a waiting block is poisoned, so a use after the last
/// reference still trips.
class RequestBody {
  public:
    RequestBody() noexcept = default;
    /// One block holding `payload` and `auth_count` zeroed certificates,
    /// recycled when its class has one spare; an empty body takes none.
    RequestBody(ByteView payload, std::size_t auth_count);
    RequestBody(const RequestBody& other) noexcept : block_(other.block_) {
        if (block_ != nullptr) ++block_->refs;
    }
    RequestBody(RequestBody&& other) noexcept
        : block_(std::exchange(other.block_, nullptr)) {}
    RequestBody& operator=(RequestBody other) noexcept {
        std::swap(block_, other.block_);
        return *this;
    }
    ~RequestBody();

    [[nodiscard]] ByteView payload() const noexcept {
        if (block_ == nullptr) return {};
        return {bytes(), block_->payload_size};
    }
    [[nodiscard]] std::span<const Certificate> auth() const noexcept {
        if (block_ == nullptr) return {};
        return {certs(), block_->auth_count};
    }
    /// The certificate slots, writable while no copy shares the body.
    [[nodiscard]] std::span<Certificate> auth_slots();

  private:
    struct Block {
        std::uint32_t refs;
        std::uint32_t payload_size;
        std::uint32_t auth_count;
        std::uint32_t size_class;  // free list it returns to
    };
    [[nodiscard]] std::uint8_t* bytes() const noexcept {
        return reinterpret_cast<std::uint8_t*>(block_ + 1);
    }
    [[nodiscard]] Certificate* certs() const noexcept {
        return reinterpret_cast<Certificate*>(bytes() + block_->payload_size);
    }

    Block* block_ = nullptr;
};

struct Request {
    static constexpr MsgType kType = MsgType::Request;

    RequestId id;
    /// Bit 0: read-only; bit 1: client asks for optimistic (non-ordered)
    /// read execution — the PBFT-like baseline read optimization;
    /// bit 2: protocol no-op (view-change gap filler).
    std::uint8_t flags = 0;

    static constexpr std::uint8_t kFlagRead = 0x01;
    static constexpr std::uint8_t kFlagOptimistic = 0x02;
    static constexpr std::uint8_t kFlagNoop = 0x04;

    [[nodiscard]] bool is_read() const noexcept { return flags & kFlagRead; }
    [[nodiscard]] bool is_optimistic() const noexcept {
        return flags & kFlagOptimistic;
    }

    [[nodiscard]] ByteView payload() const noexcept { return body_.payload(); }
    /// Authenticator over the signed view. Legacy BFT clients attach one
    /// certificate per replica (index = replica id, pairwise keys); a
    /// Troxy attaches a single trusted-subsystem certificate.
    [[nodiscard]] std::span<const Certificate> auth() const noexcept {
        return body_.auth();
    }
    /// Gives the request a fresh body holding `payload` and `auth_count`
    /// zeroed certificate slots, and forgets the memoized digest.
    void assign(ByteView payload, std::size_t auth_count = 0);
    /// The creator fills the certificates in after signing, before the
    /// request is copied.
    [[nodiscard]] std::span<Certificate> auth_slots() {
        return body_.auth_slots();
    }

    /// Legacy clients attach up to one certificate per replica.
    static constexpr std::uint8_t kMaxAuth = 0xff;

    /// Member by member: id, flags, payload and certificates.
    friend bool operator==(const Request& a, const Request& b) noexcept {
        return a.id == b.id && a.flags == b.flags &&
               std::ranges::equal(a.payload(), b.payload()) &&
               std::ranges::equal(a.auth(), b.auth());
    }

    /// Writes and sizes a request; a Reader goes through decode().
    template <class Io, class M>
    static void layout(Io& io, M& m) {
        if constexpr (Io::kReads) {
            m = decode(io);
        } else {
            RequestId::layout(io, m.id);
            io.u8(m.flags);
            io.bytes(m.payload());
            io.auth(m.auth(), kMaxAuth);
        }
    }
    /// The one hand-written read: the payload stays borrowed until the
    /// certificate count is known, so both land in one body.
    static Request decode(Reader& r);

    /// Bytes covered by the certificate, written into `scratch` (cleared
    /// first, capacity reused); the returned view aliases `scratch`.
    ByteView signed_view(Bytes& scratch) const {
        return write_certified(scratch, *this);
    }
    /// Owning copy of the signed view, for cold paths.
    [[nodiscard]] Bytes signed_view() const { return certified_bytes(*this); }

    /// Digest identifying this request in commits/replies. Memoized per
    /// Request object (a copy carries the value it had): the first call
    /// hashes signed_view(), later calls return the cached digest, so a
    /// request must not be mutated after its digest is taken.
    [[nodiscard]] const crypto::Sha256Digest& digest() const;

    /// Like digest(), but charges the hash cost to `crypto` — once: a
    /// cache hit costs nothing. All metered protocol paths use this so
    /// each request is hashed (and billed) exactly once per replica. The
    /// signed view is staged in the caller's `scratch`.
    [[nodiscard]] const crypto::Sha256Digest& digest_with(
        enclave::CostedCrypto& crypto, Bytes& scratch) const;

  private:
    RequestBody body_;
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

    /// A read reuses the member vector's capacity and forgets the
    /// memoized digest.
    template <class Io, class M>
    static void layout(Io& io, M& m) {
        if constexpr (Io::kReads) m.digest_cache_.reset();
        io.list(m.requests, kMaxBatchSize);
    }

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
    Authenticator cert;

    [[nodiscard]] AgreementView certified_view() const;

    template <class Io, class M>
    static void layout(Io& io, M& m) {
        io.u64(m.view);
        io.u64(m.seq);
        io.u32(m.replica);
        io.u64(m.counter_value);
        Batch::layout(io, m.batch);
        io.auth(m.cert);
    }
};

struct Commit {
    static constexpr MsgType kType = MsgType::Commit;

    ViewNumber view = 0;
    SequenceNumber seq = 0;
    std::uint32_t replica = 0;
    /// Hybrid profile: the certified counter value. PBFT profile, which
    /// has no counters: the round, prepare (1) or commit (2).
    CounterValue counter_value = 0;
    /// Member count of the batch being committed. Certified alongside the
    /// digest: the (count, digest) pair pins the batch *structure*, so a
    /// certificate over a k-member batch can never double as one over a
    /// single request whose bytes collide with the combining-hash input.
    std::uint32_t batch_size = 0;
    crypto::Sha256Digest batch_digest{};
    Authenticator cert;

    [[nodiscard]] AgreementView certified_view() const;

    template <class Io, class M>
    static void layout(Io& io, M& m) {
        io.u64(m.view);
        io.u64(m.seq);
        io.u32(m.replica);
        io.u64(m.counter_value);
        io.u32(m.batch_size);
        io.array(m.batch_digest);
        io.auth(m.cert);
    }
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
    ByteView certified_view(Bytes& scratch) const {
        return write_certified(scratch, *this);
    }
    /// Owning copy of the certified view, for cold paths.
    [[nodiscard]] Bytes certified_view() const {
        return certified_bytes(*this);
    }

    /// A read reuses the result buffer's capacity: a receiver that keeps
    /// its Reply objects decodes a warm reply without allocating.
    template <class Io, class M>
    static void layout(Io& io, M& m) {
        io.enum8(m.kind, Kind::Optimistic);
        io.u64(m.view);
        io.u64(m.seq);
        RequestId::layout(io, m.request_id);
        io.array(m.request_digest);
        io.bytes(m.result);
        io.u32(m.replica);
        io.cert(m.cert);
    }
};

/// An executed request's reply on its way out through the host's delivery
/// hook; the request pointer stays valid for the duration of the call.
struct ExecutedReply {
    const Request* request = nullptr;
    Reply reply;
};

struct CheckpointMsg {
    static constexpr MsgType kType = MsgType::Checkpoint;

    SequenceNumber seq = 0;
    crypto::Sha256Digest state_digest{};
    std::uint32_t replica = 0;
    Authenticator cert;

    /// seq ‖ state digest ‖ replica.
    using View = std::array<std::uint8_t, 12 + crypto::kSha256DigestSize>;

    [[nodiscard]] View certified_view() const;

    template <class Io, class M>
    static void layout(Io& io, M& m) {
        io.u64(m.seq);
        io.array(m.state_digest);
        io.u32(m.replica);
        io.auth(m.cert);
    }
};

struct ViewChange {
    static constexpr MsgType kType = MsgType::ViewChange;

    ViewNumber new_view = 0;
    std::uint32_t replica = 0;
    SequenceNumber last_stable = 0;  // latest stable checkpoint
    /// Certified prepares the replica has seen above the checkpoint.
    std::vector<Prepare> prepared;
    Authenticator cert;

    static constexpr std::uint32_t kMaxPrepared = 1u << 20;

    [[nodiscard]] Bytes certified_view() const {
        return certified_bytes(*this);
    }

    template <class Io, class M>
    static void layout(Io& io, M& m) {
        io.u64(m.new_view);
        io.u32(m.replica);
        io.u64(m.last_stable);
        io.list(m.prepared, kMaxPrepared);
        io.auth(m.cert);
    }
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
    Authenticator cert;

    static constexpr std::uint32_t kMaxProofs = 1024;

    [[nodiscard]] Bytes certified_view() const {
        return certified_bytes(*this);
    }

    template <class Io, class M>
    static void layout(Io& io, M& m) {
        io.u64(m.view);
        io.u32(m.replica);
        io.u64(m.start_seq);
        io.list(m.proofs, kMaxProofs);
        io.list(m.reproposed, ViewChange::kMaxPrepared);
        io.auth(m.cert);
    }
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
    Authenticator cert;

    static constexpr std::uint32_t kMaxChunks = 1u << 20;

    /// The type tag, then every field but the certificate.
    [[nodiscard]] Bytes certified_view() const;

    template <class Io, class M>
    static void layout(Io& io, M& m) {
        io.u32(m.replica);
        io.u64(m.have);
        io.list(m.have_chunks, kMaxChunks);
        io.auth(m.cert);
    }
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
/// responder, across retries. Each chunk carries its manifest position;
/// chunks the requester advertised are skipped, so the positions are
/// generally non-contiguous. Responses with
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
    struct Chunk {
        std::uint32_t index = 0;  // manifest position
        Bytes data;

        template <class Io, class M>
        static void layout(Io& io, M& m) {
            io.u32(m.index);
            io.bytes(m.data);
        }
    };
    std::vector<Chunk> chunks;
    std::vector<CheckpointMsg> proof;
    Authenticator cert;

    static constexpr std::uint32_t kMaxManifest = 1u << 20;
    static constexpr std::uint32_t kMaxChunks = 1u << 16;
    static constexpr std::uint8_t kMaxProof = 64;

    /// Certified bytes: the type tag, then the coordinates plus the
    /// Merkle root only (head()). The chunk payloads need no per-message
    /// certificate — they verify against the manifest and the manifest
    /// folds to the certified root — so a responder computes ONE
    /// certificate per transfer and reuses it across every message of
    /// the stream.
    [[nodiscard]] Bytes certified_view() const;

    /// The certified coordinates, which open the layout.
    template <class Io, class M>
    static void head(Io& io, M& m) {
        io.u32(m.replica);
        io.u64(m.view);
        io.u64(m.view_start);
        io.u64(m.last_stable);
        io.array(m.root);
    }
    template <class Io, class M>
    static void layout(Io& io, M& m) {
        head(io, m);
        io.list(m.manifest, kMaxManifest);
        io.list(m.chunks, kMaxChunks);
        io.list(m.proof, kMaxProof);
        io.auth(m.cert);
    }
};

using Message = std::variant<Request, Prepare, Commit, Reply, CheckpointMsg,
                             ViewChange, NewView, StateRequest,
                             StateResponse>;

namespace detail {
/// The optional envelope byte, T's type tag, then the message.
template <class Io, typename T>
void frame(Io& io, const T& message, std::optional<net::Channel> channel) {
    if (channel) io.u8(static_cast<std::uint8_t>(*channel));
    io.u8(static_cast<std::uint8_t>(T::kType));
    T::layout(io, message);
}

/// frame() into one buffer sized once (a recycled one when `pool` is
/// given).
template <typename T>
Bytes encode_sized(const T& message, std::optional<net::Channel> channel,
                   sim::BufferPool* pool) {
    Sizer sizer;
    frame(sizer, message, channel);
    Writer w(pool != nullptr ? pool->acquire_empty(sizer.size()) : Bytes());
    w.reserve(sizer.size());
    frame(w, message, channel);
    return std::move(w).take();
}
}  // namespace detail

/// Serializes a message with its type tag into a buffer sized once.
Bytes encode_message(const Message& message);

/// encode_message() for one message of type T: takes the concrete
/// message, so nothing is copied into a Message first.
template <typename T>
    requires(!std::same_as<T, Message>)
Bytes encode_message(const T& message) {
    return detail::encode_sized(message, std::nullopt, nullptr);
}

/// Wire frame for one message of type T: the envelope channel byte
/// followed by encode_message(Message(message)), written once into a
/// wire buffer from `pool`. Takes the concrete message, so nothing is
/// copied into a Message first.
template <typename T>
Bytes encode_frame(net::Channel channel, const T& message,
                   sim::BufferPool& pool) {
    return detail::encode_sized(message, channel, &pool);
}

/// Parses a message; nullopt on any malformed input. `auth_width` is the
/// receiving group's authenticator width (Certifier::width()).
std::optional<Message> decode_message(ByteView data,
                                      std::size_t auth_width = 1);

/// True when `data` carries a Reply's type tag: lets a receiver route a
/// reply to its own storage before decoding anything.
[[nodiscard]] inline bool is_reply(ByteView data) noexcept {
    return !data.empty() &&
           data[0] == static_cast<std::uint8_t>(MsgType::Reply);
}

/// True when `data` carries a Prepare's type tag.
[[nodiscard]] inline bool is_prepare(ByteView data) noexcept {
    return !data.empty() &&
           data[0] == static_cast<std::uint8_t>(MsgType::Prepare);
}

/// Parses an encoded Prepare (type tag included) into `out`, whose batch
/// keeps its member vector's capacity: a follower decodes a warm Prepare
/// into recycled storage. False on any input decode_message() rejects, in
/// which case `out` holds a partial decode.
bool decode_prepare_into(ByteView data, Prepare& out,
                         std::size_t auth_width);

/// Parses an encoded Reply (type tag included) into `out`, reusing its
/// result buffer; false on any input decode_message() rejects, in which
/// case `out` holds a partial decode.
bool decode_reply_into(ByteView data, Reply& out);

}  // namespace troxy::hybster

namespace troxy {

/// FlatSet<RequestId> hash: a splitmix64-style finalizer over both fields.
template <>
struct FlatHash<hybster::RequestId> {
    std::size_t operator()(const hybster::RequestId& id) const noexcept {
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

}  // namespace troxy

#include "hybster/messages.hpp"

#include <cstring>
#include <new>
#include <tuple>

#include "common/assert.hpp"

#if defined(__has_include) && __has_include(<sanitizer/asan_interface.h>)
#include <sanitizer/asan_interface.h>  // no-op macros without ASan
#endif
#ifndef ASAN_POISON_MEMORY_REGION
#define ASAN_POISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#define ASAN_UNPOISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#endif

namespace troxy::hybster {

namespace {

constexpr std::size_t kTag = sizeof(Certificate);
constexpr std::size_t kDigest = crypto::kSha256DigestSize;

void put_tag(Writer& w, const Certificate& cert) { w.raw(cert); }

Certificate get_tag(Reader& r) {
    Certificate cert;
    r.read_into(cert);
    return cert;
}

void put_auth(Writer& w, const Authenticator& auth) {
    for (const Certificate& tag : auth) w.raw(tag);
}

Authenticator get_auth(Reader& r, std::size_t width) {
    Authenticator auth = Authenticator::zeros(width);
    for (std::size_t i = 0; i < width; ++i) r.read_into(auth[i]);
    return auth;
}

void put_digest(Writer& w, const crypto::Sha256Digest& d) { w.raw(d); }

crypto::Sha256Digest get_digest(Reader& r) {
    crypto::Sha256Digest d;
    r.read_into(d);
    return d;
}

}  // namespace

// ------------------------------------------------------------ RequestBody

namespace {

// Size classes step by 64 B up to 4 KiB, so a block wastes less than one
// step; kUnpooled marks a larger block, which the heap serves directly.
constexpr std::size_t kClassStep = 64;
constexpr std::uint32_t kClasses = 64;
constexpr std::uint32_t kUnpooled = kClasses;
// Retention bound per thread. A stable checkpoint frees every group's
// log up to it at about the same time, and the next interval takes the
// blocks back one by one, so the lists must hold a few intervals' worth
// (about 2,000 blocks on an unbatched Fig. 6 run); what does not fit goes
// back to the heap.
constexpr std::size_t kRetainedBytes = 8 * 1024 * 1024;

constexpr std::size_t class_bytes(std::uint32_t size_class) {
    return (size_class + 1) * kClassStep;
}

constexpr std::uint32_t size_class_of(std::size_t bytes) {
    return bytes > class_bytes(kClasses - 1)
               ? kUnpooled
               : static_cast<std::uint32_t>((bytes - 1) / kClassStep);
}

/// One thread's spare blocks: an intrusive list per class, linked through
/// each waiting block's first word. Plain data, so a body freed during
/// static destruction still finds it; `closed` then routes it to the heap.
struct FreeLists {
    void* head[kClasses];
    std::size_t retained_bytes;
    bool closed;
};
constinit thread_local FreeLists t_free_lists{};

/// Returns a thread's retained blocks to the heap when the thread ends.
struct FreeListsReaper {
    FreeListsReaper() = default;
    FreeListsReaper(const FreeListsReaper&) = delete;
    FreeListsReaper& operator=(const FreeListsReaper&) = delete;
    ~FreeListsReaper() {
        FreeLists& lists = t_free_lists;
        lists.closed = true;
        for (std::uint32_t c = 0; c < kClasses; ++c) {
            while (void* block = lists.head[c]) {
                ASAN_UNPOISON_MEMORY_REGION(block, class_bytes(c));
                std::memcpy(&lists.head[c], block, sizeof(void*));
                ::operator delete(block);
            }
        }
        lists.retained_bytes = 0;
    }
};

void* take_block(std::uint32_t size_class, std::size_t bytes) {
    if (size_class == kUnpooled) return ::operator new(bytes);
    FreeLists& lists = t_free_lists;
    void* block = lists.head[size_class];
    if (block == nullptr) return ::operator new(class_bytes(size_class));
    ASAN_UNPOISON_MEMORY_REGION(block, class_bytes(size_class));
    std::memcpy(&lists.head[size_class], block, sizeof(void*));
    lists.retained_bytes -= class_bytes(size_class);
    return block;
}

void give_block(void* block, std::uint32_t size_class) {
    FreeLists& lists = t_free_lists;
    if (size_class == kUnpooled || lists.closed ||
        lists.retained_bytes + class_bytes(size_class) > kRetainedBytes) {
        ::operator delete(block);
        return;
    }
    static thread_local FreeListsReaper reaper;
    (void)reaper;
    std::memcpy(block, &lists.head[size_class], sizeof(void*));
    ASAN_POISON_MEMORY_REGION(block, class_bytes(size_class));
    lists.head[size_class] = block;
    lists.retained_bytes += class_bytes(size_class);
}

}  // namespace

RequestBody::RequestBody(ByteView payload, std::size_t auth_count) {
    if (payload.empty() && auth_count == 0) return;
    const std::size_t cert_bytes = auth_count * kTag;
    const std::size_t size = sizeof(Block) + payload.size() + cert_bytes;
    const std::uint32_t size_class = size_class_of(size);
    block_ = static_cast<Block*>(take_block(size_class, size));
    block_->refs = 1;
    block_->payload_size = static_cast<std::uint32_t>(payload.size());
    block_->auth_count = static_cast<std::uint32_t>(auth_count);
    block_->size_class = size_class;
    if (!payload.empty()) {
        std::memcpy(bytes(), payload.data(), payload.size());
    }
    if (cert_bytes != 0) std::memset(certs(), 0, cert_bytes);
}

RequestBody::~RequestBody() {
    if (block_ != nullptr && --block_->refs == 0) {
        give_block(block_, block_->size_class);
    }
}

std::span<Certificate> RequestBody::auth_slots() {
    if (block_ == nullptr) return {};
    TROXY_ASSERT(block_->refs == 1, "request body is already shared");
    return {certs(), block_->auth_count};
}

// ---------------------------------------------------------------- Request

void Request::assign(ByteView payload, std::size_t auth_count) {
    body_ = RequestBody(payload, auth_count);
    digest_cache_.reset();
}

ByteView Request::signed_view(Bytes& scratch) const {
    return write_scratch(scratch, [this](Writer& w) {
        w.reserve(17 + payload().size());
        w.u32(id.client);
        w.u64(id.number);
        w.u8(flags);
        w.bytes(payload());
    });
}

Bytes Request::signed_view() const {
    Bytes out;
    (void)signed_view(out);
    return out;
}

std::size_t Request::encoded_size() const noexcept {
    return 18 + payload().size() + auth().size() * kTag;
}

void Request::encode(Writer& w) const {
    w.reserve(encoded_size());
    w.u32(id.client);
    w.u64(id.number);
    w.u8(flags);
    w.bytes(payload());
    w.u8(static_cast<std::uint8_t>(auth().size()));
    for (const Certificate& cert : auth()) put_tag(w, cert);
}

Request Request::decode(Reader& r) {
    Request req;
    req.id.client = r.u32();
    req.id.number = r.u64();
    req.flags = r.u8();
    // The payload stays borrowed until the certificate count is known, so
    // payload and certificates land in one body.
    const ByteView payload = r.bytes_view();
    const std::uint8_t count = r.u8();
    if (r.remaining() < count * kTag) throw DecodeError("truncated input");
    req.body_ = RequestBody(payload, count);
    for (Certificate& cert : req.body_.auth_slots()) r.read_into(cert);
    return req;
}

const crypto::Sha256Digest& Request::digest() const {
    if (!digest_cache_) digest_cache_ = crypto::sha256(signed_view());
    return *digest_cache_;
}

const crypto::Sha256Digest& Request::digest_with(
    enclave::CostedCrypto& crypto, Bytes& scratch) const {
    if (!digest_cache_) digest_cache_ = crypto.hash(signed_view(scratch));
    return *digest_cache_;
}

// ------------------------------------------------------------------ Batch

const crypto::Sha256Digest& Batch::digest() const {
    if (digest_cache_) return *digest_cache_;
    if (requests.size() == 1) {
        digest_cache_ = requests.front().digest();
        return *digest_cache_;
    }
    Writer w;
    w.reserve(requests.size() * crypto::kSha256DigestSize);
    for (const Request& request : requests) w.raw(request.digest());
    digest_cache_ = crypto::sha256(w.data());
    return *digest_cache_;
}

const crypto::Sha256Digest& Batch::digest_with(
    enclave::CostedCrypto& crypto, Bytes& scratch) const {
    if (digest_cache_) return *digest_cache_;
    for (const Request& request : requests) {
        (void)request.digest_with(crypto, scratch);
    }
    if (requests.size() == 1) {
        digest_cache_ = requests.front().digest();
        return *digest_cache_;
    }
    digest_cache_ = crypto.hash(write_scratch(scratch, [this](Writer& w) {
        w.reserve(requests.size() * kDigest);
        for (const Request& request : requests) w.raw(request.digest());
    }));
    return *digest_cache_;
}

std::size_t Batch::encoded_size() const noexcept {
    std::size_t size = 4;
    for (const Request& request : requests) size += request.encoded_size();
    return size;
}

void Batch::encode(Writer& w) const {
    w.u32(static_cast<std::uint32_t>(requests.size()));
    for (const Request& request : requests) request.encode(w);
}

void Batch::decode_into(Reader& r, Batch& out) {
    out.requests.clear();
    out.digest_cache_.reset();
    const std::uint32_t count = r.u32();
    if (count > 1u << 16) throw DecodeError("unreasonable batch size");
    out.requests.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
        out.requests.push_back(Request::decode(r));
    }
}

// ---------------------------------------------------------------- Prepare

AgreementView Prepare::certified_view() const {
    // The counter certifies the batch *digest*, not the serialized batch:
    // the digest binds every member, and certification cost stays constant
    // in the batch size. Callers charge the digest via digest_with() before
    // certifying; here the memoized value is free.
    //
    // The member count is certified alongside the digest. Without it, one
    // certificate could cover two structurally different batches: a
    // single-member batch digests to the raw request digest, and a request
    // whose signed bytes were ground to equal the concatenated member
    // digests of a k-member batch would share its combining hash. Binding
    // (count, digest) makes those certified views distinct, so a Byzantine
    // leader cannot equivocate between them under one counter value.
    FixedWriter<std::tuple_size_v<AgreementView>> w;
    w.u64(view);
    w.u64(seq);
    w.u32(replica);
    w.u32(static_cast<std::uint32_t>(batch.size()));
    w.raw(batch.digest());
    return w.take();
}

std::size_t Prepare::encoded_size() const noexcept {
    return 28 + batch.encoded_size() + kTag * cert.size();
}

void Prepare::encode(Writer& w) const {
    w.u64(view);
    w.u64(seq);
    w.u32(replica);
    w.u64(counter_value);
    batch.encode(w);
    put_auth(w, cert);
}

Prepare Prepare::decode(Reader& r, std::size_t auth_width) {
    Prepare p;
    decode_into(r, p, auth_width);
    return p;
}

void Prepare::decode_into(Reader& r, Prepare& out, std::size_t auth_width) {
    out.view = r.u64();
    out.seq = r.u64();
    out.replica = r.u32();
    out.counter_value = r.u64();
    Batch::decode_into(r, out.batch);
    out.cert = get_auth(r, auth_width);
}

// ----------------------------------------------------------------- Commit

AgreementView Commit::certified_view() const {
    // (batch_size, batch_digest) pins the batch structure — mirror of
    // Prepare::certified_view(), see the rationale there.
    FixedWriter<std::tuple_size_v<AgreementView>> w;
    w.u64(view);
    w.u64(seq);
    w.u32(replica);
    w.u32(batch_size);
    w.raw(batch_digest);
    return w.take();
}

std::size_t Commit::encoded_size() const noexcept {
    return 32 + kDigest + kTag * cert.size();
}

void Commit::encode(Writer& w) const {
    w.u64(view);
    w.u64(seq);
    w.u32(replica);
    w.u64(counter_value);
    w.u32(batch_size);
    put_digest(w, batch_digest);
    put_auth(w, cert);
}

Commit Commit::decode(Reader& r, std::size_t auth_width) {
    Commit c;
    c.view = r.u64();
    c.seq = r.u64();
    c.replica = r.u32();
    c.counter_value = r.u64();
    c.batch_size = r.u32();
    c.batch_digest = get_digest(r);
    c.cert = get_auth(r, auth_width);
    return c;
}

// ------------------------------------------------------------------ Reply

ByteView Reply::certified_view(Bytes& scratch) const {
    return write_scratch(scratch, [this](Writer& w) {
        w.reserve(encoded_size() - kTag);
        w.u8(static_cast<std::uint8_t>(kind));
        w.u64(view);
        w.u64(seq);
        w.u32(request_id.client);
        w.u64(request_id.number);
        put_digest(w, request_digest);
        w.bytes(result);
        w.u32(replica);
    });
}

Bytes Reply::certified_view() const {
    Bytes out;
    (void)certified_view(out);
    return out;
}

std::size_t Reply::encoded_size() const noexcept {
    return 37 + kDigest + result.size() + kTag;
}

void Reply::encode(Writer& w) const {
    w.u8(static_cast<std::uint8_t>(kind));
    w.u64(view);
    w.u64(seq);
    w.u32(request_id.client);
    w.u64(request_id.number);
    put_digest(w, request_digest);
    w.bytes(result);
    w.u32(replica);
    put_tag(w, cert);
}

Reply Reply::decode(Reader& r) {
    Reply rep;
    decode_into(r, rep);
    return rep;
}

void Reply::decode_into(Reader& r, Reply& out) {
    out.kind = static_cast<Kind>(r.u8());
    if (out.kind != Kind::Ordered && out.kind != Kind::Optimistic) {
        throw DecodeError("invalid reply kind");
    }
    out.view = r.u64();
    out.seq = r.u64();
    out.request_id.client = r.u32();
    out.request_id.number = r.u64();
    out.request_digest = get_digest(r);
    const ByteView result = r.bytes_view();
    out.result.assign(result.begin(), result.end());
    out.replica = r.u32();
    out.cert = get_tag(r);
}

// ------------------------------------------------------------- Checkpoint

CheckpointMsg::View CheckpointMsg::certified_view() const {
    FixedWriter<std::tuple_size_v<View>> w;
    w.u64(seq);
    w.raw(state_digest);
    w.u32(replica);
    return w.take();
}

std::size_t CheckpointMsg::encoded_size() const noexcept {
    return 12 + kDigest + kTag * cert.size();
}

void CheckpointMsg::encode(Writer& w) const {
    w.u64(seq);
    put_digest(w, state_digest);
    w.u32(replica);
    put_auth(w, cert);
}

CheckpointMsg CheckpointMsg::decode(Reader& r, std::size_t auth_width) {
    CheckpointMsg c;
    c.seq = r.u64();
    c.state_digest = get_digest(r);
    c.replica = r.u32();
    c.cert = get_auth(r, auth_width);
    return c;
}

// ------------------------------------------------------------- ViewChange

Bytes ViewChange::certified_view() const {
    Writer w;
    w.u64(new_view);
    w.u32(replica);
    w.u64(last_stable);
    w.u32(static_cast<std::uint32_t>(prepared.size()));
    for (const Prepare& p : prepared) p.encode(w);
    return std::move(w).take();
}

std::size_t ViewChange::encoded_size() const noexcept {
    std::size_t size = 24 + kTag * cert.size();
    for (const Prepare& p : prepared) size += p.encoded_size();
    return size;
}

void ViewChange::encode(Writer& w) const {
    w.u64(new_view);
    w.u32(replica);
    w.u64(last_stable);
    w.u32(static_cast<std::uint32_t>(prepared.size()));
    for (const Prepare& p : prepared) p.encode(w);
    put_auth(w, cert);
}

ViewChange ViewChange::decode(Reader& r, std::size_t auth_width) {
    ViewChange vc;
    vc.new_view = r.u64();
    vc.replica = r.u32();
    vc.last_stable = r.u64();
    const std::uint32_t count = r.u32();
    if (count > 1u << 20) throw DecodeError("unreasonable prepare count");
    vc.prepared.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
        vc.prepared.push_back(Prepare::decode(r, auth_width));
    }
    vc.cert = get_auth(r, auth_width);
    return vc;
}

// ---------------------------------------------------------------- NewView

Bytes NewView::certified_view() const {
    Writer w;
    w.u64(view);
    w.u32(replica);
    w.u64(start_seq);
    w.u32(static_cast<std::uint32_t>(proofs.size()));
    for (const ViewChange& vc : proofs) vc.encode(w);
    w.u32(static_cast<std::uint32_t>(reproposed.size()));
    for (const Prepare& p : reproposed) p.encode(w);
    return std::move(w).take();
}

std::size_t NewView::encoded_size() const noexcept {
    std::size_t size = 28 + kTag * cert.size();
    for (const ViewChange& vc : proofs) size += vc.encoded_size();
    for (const Prepare& p : reproposed) size += p.encoded_size();
    return size;
}

void NewView::encode(Writer& w) const {
    w.u64(view);
    w.u32(replica);
    w.u64(start_seq);
    w.u32(static_cast<std::uint32_t>(proofs.size()));
    for (const ViewChange& vc : proofs) vc.encode(w);
    w.u32(static_cast<std::uint32_t>(reproposed.size()));
    for (const Prepare& p : reproposed) p.encode(w);
    put_auth(w, cert);
}

NewView NewView::decode(Reader& r, std::size_t auth_width) {
    NewView nv;
    nv.view = r.u64();
    nv.replica = r.u32();
    nv.start_seq = r.u64();
    const std::uint32_t proof_count = r.u32();
    if (proof_count > 1024) throw DecodeError("unreasonable proof count");
    nv.proofs.reserve(proof_count);
    for (std::uint32_t i = 0; i < proof_count; ++i) {
        nv.proofs.push_back(ViewChange::decode(r, auth_width));
    }
    const std::uint32_t prep_count = r.u32();
    if (prep_count > 1u << 20) throw DecodeError("unreasonable prepare count");
    nv.reproposed.reserve(prep_count);
    for (std::uint32_t i = 0; i < prep_count; ++i) {
        nv.reproposed.push_back(Prepare::decode(r, auth_width));
    }
    nv.cert = get_auth(r, auth_width);
    return nv;
}

// ----------------------------------------------------------- StateRequest

Bytes StateRequest::certified_view() const {
    Writer w;
    w.u8(static_cast<std::uint8_t>(MsgType::StateRequest));
    w.u32(replica);
    w.u64(have);
    w.u32(static_cast<std::uint32_t>(have_chunks.size()));
    for (const crypto::Sha256Digest& d : have_chunks) put_digest(w, d);
    return std::move(w).take();
}

std::size_t StateRequest::encoded_size() const noexcept {
    return 16 + have_chunks.size() * kDigest + kTag * cert.size();
}

void StateRequest::encode(Writer& w) const {
    w.reserve(16 + have_chunks.size() * crypto::kSha256DigestSize);
    w.u32(replica);
    w.u64(have);
    w.u32(static_cast<std::uint32_t>(have_chunks.size()));
    for (const crypto::Sha256Digest& d : have_chunks) put_digest(w, d);
    put_auth(w, cert);
}

StateRequest StateRequest::decode(Reader& r, std::size_t auth_width) {
    StateRequest sr;
    sr.replica = r.u32();
    sr.have = r.u64();
    const std::uint32_t chunk_count = r.u32();
    if (chunk_count > 1u << 20) throw DecodeError("unreasonable have list");
    sr.have_chunks.reserve(chunk_count);
    for (std::uint32_t i = 0; i < chunk_count; ++i) {
        sr.have_chunks.push_back(get_digest(r));
    }
    sr.cert = get_auth(r, auth_width);
    return sr;
}

// ---------------------------------------------------------- StateResponse

Bytes StateResponse::certified_view() const {
    Writer w;
    w.u8(static_cast<std::uint8_t>(MsgType::StateResponse));
    w.u32(replica);
    w.u64(view);
    w.u64(view_start);
    w.u64(last_stable);
    put_digest(w, root);
    return std::move(w).take();
}

std::size_t StateResponse::encoded_size() const noexcept {
    std::size_t size =
        37 + kDigest + manifest.size() * kDigest + kTag * cert.size();
    for (const Bytes& chunk : chunks) size += 8 + chunk.size();
    for (const CheckpointMsg& vote : proof) size += vote.encoded_size();
    return size;
}

void StateResponse::encode(Writer& w) const {
    w.u32(replica);
    w.u64(view);
    w.u64(view_start);
    w.u64(last_stable);
    put_digest(w, root);
    w.u32(static_cast<std::uint32_t>(manifest.size()));
    for (const crypto::Sha256Digest& d : manifest) put_digest(w, d);
    w.u32(static_cast<std::uint32_t>(chunks.size()));
    for (std::size_t i = 0; i < chunks.size(); ++i) {
        w.u32(chunk_index[i]);
        w.bytes(chunks[i]);
    }
    w.u8(static_cast<std::uint8_t>(proof.size()));
    for (const CheckpointMsg& vote : proof) vote.encode(w);
    put_auth(w, cert);
}

StateResponse StateResponse::decode(Reader& r, std::size_t auth_width) {
    StateResponse sr;
    sr.replica = r.u32();
    sr.view = r.u64();
    sr.view_start = r.u64();
    sr.last_stable = r.u64();
    sr.root = get_digest(r);
    const std::uint32_t manifest_count = r.u32();
    if (manifest_count > 1u << 20) throw DecodeError("unreasonable manifest");
    sr.manifest.reserve(manifest_count);
    for (std::uint32_t i = 0; i < manifest_count; ++i) {
        sr.manifest.push_back(get_digest(r));
    }
    const std::uint32_t chunk_count = r.u32();
    if (chunk_count > 1u << 16) throw DecodeError("unreasonable chunk count");
    sr.chunk_index.reserve(chunk_count);
    sr.chunks.reserve(chunk_count);
    for (std::uint32_t i = 0; i < chunk_count; ++i) {
        sr.chunk_index.push_back(r.u32());
        sr.chunks.push_back(r.bytes());
    }
    const std::uint8_t count = r.u8();
    if (count > 64) throw DecodeError("unreasonable proof count");
    sr.proof.reserve(count);
    for (std::uint8_t i = 0; i < count; ++i) {
        sr.proof.push_back(CheckpointMsg::decode(r, auth_width));
    }
    sr.cert = get_auth(r, auth_width);
    return sr;
}

// -------------------------------------------------------------- top level

Bytes encode_message(const Message& message) {
    return std::visit(
        [](const auto& msg) {
            return detail::encode_sized(msg, std::nullopt, nullptr);
        },
        message);
}

std::optional<Message> decode_message(ByteView data,
                                      std::size_t auth_width) {
    try {
        Reader r(data);
        const auto type = static_cast<MsgType>(r.u8());
        Message out = [&]() -> Message {
            switch (type) {
                case MsgType::Request: return Request::decode(r);
                case MsgType::Prepare:
                    return Prepare::decode(r, auth_width);
                case MsgType::Commit:
                    return Commit::decode(r, auth_width);
                case MsgType::Reply: return Reply::decode(r);
                case MsgType::Checkpoint:
                    return CheckpointMsg::decode(r, auth_width);
                case MsgType::ViewChange:
                    return ViewChange::decode(r, auth_width);
                case MsgType::NewView:
                    return NewView::decode(r, auth_width);
                case MsgType::StateRequest:
                    return StateRequest::decode(r, auth_width);
                case MsgType::StateResponse:
                    return StateResponse::decode(r, auth_width);
            }
            throw DecodeError("unknown message type");
        }();
        r.expect_done();
        return out;
    } catch (const DecodeError&) {
        return std::nullopt;
    }
}

bool decode_prepare_into(ByteView data, Prepare& out,
                         std::size_t auth_width) {
    if (!is_prepare(data)) return false;
    try {
        Reader r(data.subspan(1));
        Prepare::decode_into(r, out, auth_width);
        r.expect_done();
        return true;
    } catch (const DecodeError&) {
        return false;
    }
}

bool decode_reply_into(ByteView data, Reply& out) {
    if (!is_reply(data)) return false;
    try {
        Reader r(data.subspan(1));
        Reply::decode_into(r, out);
        r.expect_done();
        return true;
    } catch (const DecodeError&) {
        return false;
    }
}

}  // namespace troxy::hybster

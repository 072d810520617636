#include "hybster/messages.hpp"

#include <tuple>

#include "common/assert.hpp"

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

void put_digest(Writer& w, const crypto::Sha256Digest& d) { w.raw(d); }

crypto::Sha256Digest get_digest(Reader& r) {
    crypto::Sha256Digest d;
    r.read_into(d);
    return d;
}

}  // namespace

// ---------------------------------------------------------------- Request

ByteView Request::signed_view(Bytes& scratch) const {
    return write_scratch(scratch, [this](Writer& w) {
        w.reserve(17 + payload.size());
        w.u32(id.client);
        w.u64(id.number);
        w.u8(flags);
        w.bytes(payload);
    });
}

Bytes Request::signed_view() const {
    Bytes out;
    (void)signed_view(out);
    return out;
}

std::size_t Request::encoded_size() const noexcept {
    return 18 + payload.size() + auth.size() * kTag;
}

void Request::encode(Writer& w) const {
    w.reserve(18 + payload.size() + auth.size() * sizeof(Certificate));
    w.u32(id.client);
    w.u64(id.number);
    w.u8(flags);
    w.bytes(payload);
    w.u8(static_cast<std::uint8_t>(auth.size()));
    for (const Certificate& cert : auth) put_tag(w, cert);
}

Request Request::decode(Reader& r) {
    Request req;
    req.id.client = r.u32();
    req.id.number = r.u64();
    req.flags = r.u8();
    req.payload = r.bytes();
    const std::uint8_t count = r.u8();
    req.auth.reserve(count);
    for (std::uint8_t i = 0; i < count; ++i) req.auth.push_back(get_tag(r));
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

Batch Batch::decode(Reader& r) {
    Batch b;
    const std::uint32_t count = r.u32();
    if (count > 1u << 16) throw DecodeError("unreasonable batch size");
    b.requests.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
        b.requests.push_back(Request::decode(r));
    }
    return b;
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
    return 28 + batch.encoded_size() + kTag;
}

void Prepare::encode(Writer& w) const {
    w.u64(view);
    w.u64(seq);
    w.u32(replica);
    w.u64(counter_value);
    batch.encode(w);
    put_tag(w, cert);
}

Prepare Prepare::decode(Reader& r) {
    Prepare p;
    p.view = r.u64();
    p.seq = r.u64();
    p.replica = r.u32();
    p.counter_value = r.u64();
    p.batch = Batch::decode(r);
    p.cert = get_tag(r);
    return p;
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
    return 32 + kDigest + kTag;
}

void Commit::encode(Writer& w) const {
    w.u64(view);
    w.u64(seq);
    w.u32(replica);
    w.u64(counter_value);
    w.u32(batch_size);
    put_digest(w, batch_digest);
    put_tag(w, cert);
}

Commit Commit::decode(Reader& r) {
    Commit c;
    c.view = r.u64();
    c.seq = r.u64();
    c.replica = r.u32();
    c.counter_value = r.u64();
    c.batch_size = r.u32();
    c.batch_digest = get_digest(r);
    c.cert = get_tag(r);
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
    rep.kind = static_cast<Kind>(r.u8());
    if (rep.kind != Kind::Ordered && rep.kind != Kind::Optimistic) {
        throw DecodeError("invalid reply kind");
    }
    rep.view = r.u64();
    rep.seq = r.u64();
    rep.request_id.client = r.u32();
    rep.request_id.number = r.u64();
    rep.request_digest = get_digest(r);
    rep.result = r.bytes();
    rep.replica = r.u32();
    rep.cert = get_tag(r);
    return rep;
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
    return 12 + kDigest + kTag;
}

void CheckpointMsg::encode(Writer& w) const {
    w.u64(seq);
    put_digest(w, state_digest);
    w.u32(replica);
    put_tag(w, cert);
}

CheckpointMsg CheckpointMsg::decode(Reader& r) {
    CheckpointMsg c;
    c.seq = r.u64();
    c.state_digest = get_digest(r);
    c.replica = r.u32();
    c.cert = get_tag(r);
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
    std::size_t size = 24 + kTag;
    for (const Prepare& p : prepared) size += p.encoded_size();
    return size;
}

void ViewChange::encode(Writer& w) const {
    w.u64(new_view);
    w.u32(replica);
    w.u64(last_stable);
    w.u32(static_cast<std::uint32_t>(prepared.size()));
    for (const Prepare& p : prepared) p.encode(w);
    put_tag(w, cert);
}

ViewChange ViewChange::decode(Reader& r) {
    ViewChange vc;
    vc.new_view = r.u64();
    vc.replica = r.u32();
    vc.last_stable = r.u64();
    const std::uint32_t count = r.u32();
    if (count > 1u << 20) throw DecodeError("unreasonable prepare count");
    vc.prepared.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
        vc.prepared.push_back(Prepare::decode(r));
    }
    vc.cert = get_tag(r);
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
    std::size_t size = 28 + kTag;
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
    put_tag(w, cert);
}

NewView NewView::decode(Reader& r) {
    NewView nv;
    nv.view = r.u64();
    nv.replica = r.u32();
    nv.start_seq = r.u64();
    const std::uint32_t proof_count = r.u32();
    if (proof_count > 1024) throw DecodeError("unreasonable proof count");
    nv.proofs.reserve(proof_count);
    for (std::uint32_t i = 0; i < proof_count; ++i) {
        nv.proofs.push_back(ViewChange::decode(r));
    }
    const std::uint32_t prep_count = r.u32();
    if (prep_count > 1u << 20) throw DecodeError("unreasonable prepare count");
    nv.reproposed.reserve(prep_count);
    for (std::uint32_t i = 0; i < prep_count; ++i) {
        nv.reproposed.push_back(Prepare::decode(r));
    }
    nv.cert = get_tag(r);
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
    return 16 + have_chunks.size() * kDigest + kTag;
}

void StateRequest::encode(Writer& w) const {
    w.reserve(16 + have_chunks.size() * crypto::kSha256DigestSize);
    w.u32(replica);
    w.u64(have);
    w.u32(static_cast<std::uint32_t>(have_chunks.size()));
    for (const crypto::Sha256Digest& d : have_chunks) put_digest(w, d);
    put_tag(w, cert);
}

StateRequest StateRequest::decode(Reader& r) {
    StateRequest sr;
    sr.replica = r.u32();
    sr.have = r.u64();
    const std::uint32_t chunk_count = r.u32();
    if (chunk_count > 1u << 20) throw DecodeError("unreasonable have list");
    sr.have_chunks.reserve(chunk_count);
    for (std::uint32_t i = 0; i < chunk_count; ++i) {
        sr.have_chunks.push_back(get_digest(r));
    }
    sr.cert = get_tag(r);
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
    std::size_t size = 37 + kDigest + manifest.size() * kDigest + kTag;
    for (const Bytes& chunk : chunks) size += 8 + chunk.size();
    for (const CheckpointMsg& vote : proof) size += vote.encoded_size();
    return size;
}

void StateResponse::encode_head(Writer& w, std::size_t chunk_count) const {
    w.u32(replica);
    w.u64(view);
    w.u64(view_start);
    w.u64(last_stable);
    put_digest(w, root);
    w.u32(static_cast<std::uint32_t>(manifest.size()));
    for (const crypto::Sha256Digest& d : manifest) put_digest(w, d);
    w.u32(static_cast<std::uint32_t>(chunk_count));
}

void StateResponse::encode_tail(Writer& w) const {
    w.u8(static_cast<std::uint8_t>(proof.size()));
    for (const CheckpointMsg& vote : proof) vote.encode(w);
    put_tag(w, cert);
}

void StateResponse::encode(Writer& w) const {
    encode_head(w, chunks.size());
    for (std::size_t i = 0; i < chunks.size(); ++i) {
        w.u32(chunk_index[i]);
        w.bytes(chunks[i]);
    }
    encode_tail(w);
}

StateResponse StateResponse::decode(Reader& r) {
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
        sr.proof.push_back(CheckpointMsg::decode(r));
    }
    sr.cert = get_tag(r);
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

std::optional<Message> decode_message(ByteView data) {
    try {
        Reader r(data);
        const auto type = static_cast<MsgType>(r.u8());
        Message out = [&]() -> Message {
            switch (type) {
                case MsgType::Request: return Request::decode(r);
                case MsgType::Prepare: return Prepare::decode(r);
                case MsgType::Commit: return Commit::decode(r);
                case MsgType::Reply: return Reply::decode(r);
                case MsgType::Checkpoint: return CheckpointMsg::decode(r);
                case MsgType::ViewChange: return ViewChange::decode(r);
                case MsgType::NewView: return NewView::decode(r);
                case MsgType::StateRequest: return StateRequest::decode(r);
                case MsgType::StateResponse:
                    return StateResponse::decode(r);
            }
            throw DecodeError("unknown message type");
        }();
        r.expect_done();
        return out;
    } catch (const DecodeError&) {
        return std::nullopt;
    }
}

}  // namespace troxy::hybster

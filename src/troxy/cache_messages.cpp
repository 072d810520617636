#include "troxy/cache_messages.hpp"

#include <tuple>

#include "net/envelope.hpp"

namespace troxy::troxy_core {

namespace {

void put_digest(Writer& w, const crypto::Sha256Digest& d) { w.raw(d); }

crypto::Sha256Digest get_digest(Reader& r) {
    crypto::Sha256Digest d;
    r.read_into(d);
    return d;
}

enclave::Certificate get_cert(Reader& r) {
    enclave::Certificate cert;
    r.read_into(cert);
    return cert;
}

}  // namespace

ByteView CacheQuery::certified_view(Bytes& scratch) const {
    return write_scratch(scratch, [this](Writer& w) {
        w.reserve(wire_size() - sizeof(enclave::Certificate));
        w.u32(requester);
        w.u64(query_id);
        w.str(state_key);
        put_digest(w, request_digest);
    });
}

void CacheQuery::encode(Writer& w) const {
    w.u32(requester);
    w.u64(query_id);
    w.str(state_key);
    put_digest(w, request_digest);
    w.raw(cert);
}

CacheQuery CacheQuery::decode(Reader& r) {
    CacheQuery q;
    q.requester = r.u32();
    q.query_id = r.u64();
    q.state_key = r.str();
    q.request_digest = get_digest(r);
    q.cert = get_cert(r);
    return q;
}

CacheResponse::View CacheResponse::certified_view() const {
    FixedWriter<std::tuple_size_v<View>> w;
    w.u32(responder);
    w.u32(responder_replica);
    w.u64(query_id);
    w.u8(has_entry ? 1 : 0);
    w.raw(request_digest);
    w.raw(result_digest);
    return w.take();
}

void CacheResponse::encode(Writer& w) const {
    w.u32(responder);
    w.u32(responder_replica);
    w.u64(query_id);
    w.u8(has_entry ? 1 : 0);
    put_digest(w, request_digest);
    put_digest(w, result_digest);
    w.raw(cert);
}

CacheResponse CacheResponse::decode(Reader& r) {
    CacheResponse resp;
    resp.responder = r.u32();
    resp.responder_replica = r.u32();
    resp.query_id = r.u64();
    resp.has_entry = r.u8() != 0;
    resp.request_digest = get_digest(r);
    resp.result_digest = get_digest(r);
    resp.cert = get_cert(r);
    return resp;
}

void CacheQueryBatch::encode(Writer& w) const {
    w.u16(static_cast<std::uint16_t>(queries.size()));
    for (const CacheQuery& q : queries) q.encode(w);
}

CacheQueryBatch CacheQueryBatch::decode(Reader& r) {
    CacheQueryBatch batch;
    const std::uint16_t count = r.u16();
    batch.queries.reserve(count);
    for (std::uint16_t i = 0; i < count; ++i) {
        batch.queries.push_back(CacheQuery::decode(r));
    }
    return batch;
}

void CacheResponseBatch::encode(Writer& w) const {
    w.u16(static_cast<std::uint16_t>(responses.size()));
    for (const CacheResponse& resp : responses) resp.encode(w);
}

CacheResponseBatch CacheResponseBatch::decode(Reader& r) {
    CacheResponseBatch batch;
    const std::uint16_t count = r.u16();
    batch.responses.reserve(count);
    for (std::uint16_t i = 0; i < count; ++i) {
        batch.responses.push_back(CacheResponse::decode(r));
    }
    return batch;
}

namespace {

/// Exact encoded size of a cache message: the tag plus the body.
std::size_t cache_message_size(const CacheMessage& message) {
    std::size_t size = 1;
    if (const auto* queries = std::get_if<CacheQueryBatch>(&message)) {
        size += 2;
        for (const CacheQuery& q : queries->queries) size += q.wire_size();
    } else if (const auto* responses =
                   std::get_if<CacheResponseBatch>(&message)) {
        size += 2 + responses->responses.size() * CacheResponse::wire_size();
    } else if (const auto* query = std::get_if<CacheQuery>(&message)) {
        size += query->wire_size();
    } else {
        size += CacheResponse::wire_size();
    }
    return size;
}

void write_cache_message(Writer& w, const CacheMessage& message) {
    if (const auto* query = std::get_if<CacheQuery>(&message)) {
        w.u8(1);
        query->encode(w);
    } else if (const auto* response = std::get_if<CacheResponse>(&message)) {
        w.u8(2);
        response->encode(w);
    } else if (const auto* queries = std::get_if<CacheQueryBatch>(&message)) {
        w.u8(3);
        queries->encode(w);
    } else {
        w.u8(4);
        std::get<CacheResponseBatch>(message).encode(w);
    }
}

}  // namespace

Bytes encode_cache_message(const CacheMessage& message) {
    Writer w;
    w.reserve(cache_message_size(message));
    write_cache_message(w, message);
    return std::move(w).take();
}

Bytes encode_cache_frame(const CacheMessage& message,
                         sim::BufferPool& pool) {
    Writer w(pool.acquire_empty(1 + cache_message_size(message)));
    w.u8(static_cast<std::uint8_t>(net::Channel::TroxyCache));
    write_cache_message(w, message);
    return std::move(w).take();
}

std::optional<CacheMessage> decode_cache_message(ByteView data) {
    try {
        Reader r(data);
        const std::uint8_t tag = r.u8();
        CacheMessage out = [&]() -> CacheMessage {
            if (tag == 1) return CacheQuery::decode(r);
            if (tag == 2) return CacheResponse::decode(r);
            if (tag == 3) return CacheQueryBatch::decode(r);
            if (tag == 4) return CacheResponseBatch::decode(r);
            throw DecodeError("unknown cache message tag");
        }();
        r.expect_done();
        return out;
    } catch (const DecodeError&) {
        return std::nullopt;
    }
}

}  // namespace troxy::troxy_core

#include "troxy/cache_messages.hpp"

#include <tuple>

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

namespace {

/// Appends the items of one message to `items`: one for the plain tag,
/// a u16-counted run for the batch tag. The count is checked against the
/// bytes left (`min_size` per item), so a garbage count cannot reserve
/// more than the frame could hold.
template <typename Item>
void decode_items(Reader& r, bool batch, std::size_t min_size,
                  std::vector<Item>& items) {
    std::size_t count = 1;
    if (batch) {
        count = r.u16();
        if (count == 0) throw DecodeError("empty cache batch");
        if (count > r.remaining() / min_size) {
            throw DecodeError("cache batch count exceeds input");
        }
    }
    items.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        items.push_back(Item::decode(r));
    }
}

}  // namespace

bool decode_cache_burst(ByteView data, CacheBurst& out) {
    out.queries.clear();
    out.responses.clear();
    try {
        Reader r(data);
        const std::uint8_t tag = r.u8();
        if (tag == CacheQuery::kTag || tag == CacheQuery::kBatchTag) {
            decode_items(r, tag == CacheQuery::kBatchTag,
                         CacheQuery::kFixedWireSize, out.queries);
        } else if (tag == CacheResponse::kTag ||
                   tag == CacheResponse::kBatchTag) {
            decode_items(r, tag == CacheResponse::kBatchTag,
                         CacheResponse::wire_size(), out.responses);
        } else {
            throw DecodeError("unknown cache message tag");
        }
        r.expect_done();
        return true;
    } catch (const DecodeError&) {
        return false;
    }
}

}  // namespace troxy::troxy_core

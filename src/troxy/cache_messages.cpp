#include "troxy/cache_messages.hpp"

namespace troxy::troxy_core {

namespace {

/// Replaces `items` with one message's items: one for the plain tag, a
/// counted run of at least two for the batch tag. A single item travels
/// only in the plain form, so every burst has one encoding.
template <typename Item>
void read_items(Reader& r, bool batch, std::vector<Item>& items) {
    if (batch) {
        r.list(items, cache_wire::kMaxBurst);
        if (items.size() < 2) throw DecodeError("cache batch below two");
        return;
    }
    items.clear();
    Item::layout(r, items.emplace_back());
}

}  // namespace

bool decode_cache_burst(ByteView data, CacheBurst& out) {
    out.queries.clear();
    out.responses.clear();
    try {
        Reader r(data);
        const std::uint8_t tag = r.u8();
        if (tag == CacheQuery::kTag || tag == CacheQuery::kBatchTag) {
            read_items(r, tag == CacheQuery::kBatchTag, out.queries);
        } else if (tag == CacheResponse::kTag ||
                   tag == CacheResponse::kBatchTag) {
            read_items(r, tag == CacheResponse::kBatchTag, out.responses);
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

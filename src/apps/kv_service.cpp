#include "apps/kv_service.hpp"

#include <optional>

#include "common/serialize.hpp"

namespace troxy::apps {

namespace {
enum class Op : std::uint8_t { Get = 0, Put = 1, Delete = 2, Scan = 3 };
}

hybster::RequestInfo KvService::classify(ByteView request) const {
    hybster::RequestInfo info;
    try {
        Reader r(request);
        const auto op = static_cast<Op>(r.u8());
        const std::string key = r.str();
        info.is_read = (op == Op::Get || op == Op::Scan);
        // SCAN touches a whole prefix partition, keyed "scan:<prefix>".
        // A PUT/DELETE under that prefix changes the partition's
        // contents, so a mutation's write set is its exact key plus
        // every scan partition covering it — "scan:<p>" for each prefix
        // p of the key, including the empty prefix (a full scan). That
        // closure is what keeps cached scans coherent: the enclave
        // invalidates (and gates fast reads on) every key in the set.
        // It stays out of execution-conflict classes — two mutations
        // under a common prefix still commute at the exact-key level.
        if (op == Op::Scan) {
            info.state_key = "scan:" + key;
        } else {
            info.state_key = "kv:" + key;
            if (op == Op::Put || op == Op::Delete) {
                info.extra_keys.reserve(key.size() + 1);
                for (std::size_t len = 0; len <= key.size(); ++len) {
                    info.extra_keys.push_back("scan:" + key.substr(0, len));
                }
            }
        }
    } catch (const DecodeError&) {
        info.is_read = true;
        info.state_key = "invalid";
    }
    return info;
}

namespace {

/// `text` in a reply buffer from the spare list.
Bytes reply_of(std::string_view text) {
    Bytes reply = hybster::take_result_buffer();
    reply.assign(text.begin(), text.end());
    return reply;
}

}  // namespace

Bytes KvService::execute(ByteView request) {
    try {
        Reader r(request);
        const auto op = static_cast<Op>(r.u8());
        // Key and value stay borrowed from the request: a lookup copies
        // nothing, and a PUT overwrites the stored value in place.
        const std::string_view key = r.str_view();
        switch (op) {
            case Op::Get: {
                const auto it = store_.find(key);
                return reply_of(it == store_.end() ? std::string_view()
                                                   : it->second);
            }
            case Op::Put: {
                const std::string_view value = r.str_view();
                const auto it = store_.lower_bound(key);
                if (it == store_.end() || it->first != key) {
                    store_.emplace_hint(it, key, value);
                    return reply_of({});
                }
                Bytes previous = reply_of(it->second);
                it->second.assign(value);
                return previous;
            }
            case Op::Delete: {
                const auto it = store_.find(key);
                if (it == store_.end()) return reply_of({});
                Bytes previous = reply_of(it->second);
                store_.erase(it);
                return previous;
            }
            case Op::Scan: {
                // The count goes first; it is patched in once the matching
                // keys have been written behind it.
                Writer w(hybster::take_result_buffer());
                w.u32(0);
                std::uint32_t matches = 0;
                for (auto it = store_.lower_bound(key);
                     it != store_.end() && it->first.starts_with(key); ++it) {
                    w.str(it->first);
                    ++matches;
                }
                store_le(w.buffer().data(), matches, 4);
                return std::move(w).take();
            }
        }
        return reply_of("ERR unknown op");
    } catch (const DecodeError&) {
        return reply_of("ERR malformed request");
    }
}

Bytes KvService::checkpoint() const {
    Writer w;
    w.u32(static_cast<std::uint32_t>(store_.size()));
    for (const auto& [key, value] : store_) {
        w.str(key);
        w.str(value);
    }
    return std::move(w).take();
}

void KvService::restore(ByteView snapshot) {
    store_.clear();
    Reader r(snapshot);
    const std::uint32_t count = r.u32();
    for (std::uint32_t i = 0; i < count; ++i) {
        std::string key = r.str();
        store_[std::move(key)] = r.str();
    }
}

sim::Duration KvService::execution_cost(ByteView request) const {
    return sim::nanoseconds(800 + request.size() / 10);
}

namespace {

/// Op byte ‖ the length-prefixed fields, sized once.
Bytes kv_request(Op op, std::string_view first,
                 std::optional<std::string_view> second = {}) {
    Writer w;
    w.reserve(1 + 4 + first.size() + (second ? 4 + second->size() : 0));
    w.u8(static_cast<std::uint8_t>(op));
    w.str(first);
    if (second) w.str(*second);
    return std::move(w).take();
}

}  // namespace

Bytes KvService::make_get(std::string_view key) {
    return kv_request(Op::Get, key);
}

Bytes KvService::make_put(std::string_view key, std::string_view value) {
    return kv_request(Op::Put, key, value);
}

Bytes KvService::make_delete(std::string_view key) {
    return kv_request(Op::Delete, key);
}

Bytes KvService::make_scan(std::string_view prefix) {
    return kv_request(Op::Scan, prefix);
}

}  // namespace troxy::apps

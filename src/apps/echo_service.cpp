#include "apps/echo_service.hpp"

#include <algorithm>

#include "common/serialize.hpp"

namespace troxy::apps {

namespace {
constexpr std::size_t kHeaderSize = 1 + 8 + 4 + 4;
constexpr std::size_t kWriteAckSize = 1 + 8 + 1;  // tag, version, pad
}  // namespace

EchoService::Parsed EchoService::parse(ByteView request) {
    Reader r(request);
    Parsed p;
    const std::uint8_t op = r.u8();
    p.is_read = op == 0;
    p.multi = op == 2;
    p.key = r.u64();
    if (p.multi) p.partner = r.u64();
    p.reply_size = r.u32();
    return p;  // padding ignored
}

hybster::RequestInfo EchoService::classify(ByteView request) const {
    const Parsed p = parse(request);
    hybster::RequestInfo info;
    info.is_read = p.is_read;
    info.state_key = "k" + std::to_string(p.key);
    if (p.multi) {
        info.extra_keys.push_back("k" + std::to_string(p.partner));
    }
    return info;
}

Bytes EchoService::expected_read_reply(std::uint64_t key,
                                       std::uint64_t version,
                                       std::size_t reply_size) {
    Bytes reply;
    write_read_reply(reply, key, version, reply_size);
    return reply;
}

void EchoService::write_read_reply(Bytes& out, std::uint64_t key,
                                   std::uint64_t version,
                                   std::size_t reply_size) {
    out.resize(reply_size);
    // Deterministic stream from (key, version): xorshift over the seed,
    // each step's word stored little-endian.
    std::uint64_t state = key * 0x9e3779b97f4a7c15ULL + version + 1;
    for (std::size_t at = 0; at < reply_size; at += 8) {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        store_le(out.data() + at, state,
                 static_cast<int>(std::min<std::size_t>(8, reply_size - at)));
    }
}

std::uint64_t& EchoService::version_slot(std::uint64_t key) {
    const auto [version, inserted] = versions_.try_emplace(key, 0);
    if (inserted) keys_.push_back(key);
    return *version;
}

Bytes EchoService::execute(ByteView request) {
    const Parsed p = parse(request);
    Bytes reply = hybster::take_result_buffer();
    if (p.is_read) {
        write_read_reply(reply, p.key, version_slot(p.key), p.reply_size);
        return reply;
    }
    if (p.multi) ++version_slot(p.partner);
    const std::uint64_t version = ++version_slot(p.key);
    reply.resize(kWriteAckSize);
    reply[0] = 1;  // "written"
    store_le(reply.data() + 1, version, 8);
    reply[kWriteAckSize - 1] = 0;
    return reply;
}

Bytes EchoService::checkpoint() const {
    std::sort(keys_.begin(), keys_.end());
    Writer w;
    w.reserve(4 + 16 * keys_.size());  // count, then (key, version)s
    w.u32(static_cast<std::uint32_t>(keys_.size()));
    for (const std::uint64_t key : keys_) {
        w.u64(key);
        w.u64(*versions_.find(key));
    }
    return std::move(w).take();
}

void EchoService::restore(ByteView snapshot) {
    versions_.clear();
    keys_.clear();
    Reader r(snapshot);
    const std::uint32_t count = r.u32();
    for (std::uint32_t i = 0; i < count; ++i) {
        const std::uint64_t key = r.u64();
        version_slot(key) = r.u64();
    }
}

sim::Duration EchoService::execution_cost(ByteView request) const {
    const Parsed p = parse(request);
    const std::size_t touched =
        request.size() + (p.is_read ? p.reply_size : kWriteAckSize);
    // ~0.1 ns/byte of state/reply handling plus a small fixed cost.
    return sim::nanoseconds(500 + touched / 10);
}

Bytes EchoService::make_read(std::uint64_t key, std::size_t request_size,
                             std::size_t reply_size) {
    const std::size_t pad =
        request_size > kHeaderSize ? request_size - kHeaderSize : 0;
    Writer w;
    w.reserve(kHeaderSize + pad);
    w.u8(0);
    w.u64(key);
    w.u32(static_cast<std::uint32_t>(reply_size));
    w.u32(static_cast<std::uint32_t>(pad));
    Bytes out = std::move(w).take();
    out.resize(out.size() + pad, 0);
    return out;
}

Bytes EchoService::make_write(std::uint64_t key, std::size_t request_size) {
    const std::size_t pad =
        request_size > kHeaderSize ? request_size - kHeaderSize : 0;
    Writer w;
    w.reserve(kHeaderSize + pad);
    w.u8(1);
    w.u64(key);
    w.u32(0);
    w.u32(static_cast<std::uint32_t>(pad));
    Bytes out = std::move(w).take();
    out.resize(out.size() + pad, 0);
    return out;
}

Bytes EchoService::make_multi_write(std::uint64_t key,
                                    std::uint64_t partner,
                                    std::size_t request_size) {
    const std::size_t header = kHeaderSize + 8;
    const std::size_t pad =
        request_size > header ? request_size - header : 0;
    Writer w;
    w.reserve(header + pad);
    w.u8(2);
    w.u64(key);
    w.u64(partner);
    w.u32(0);
    w.u32(static_cast<std::uint32_t>(pad));
    Bytes out = std::move(w).take();
    out.resize(out.size() + pad, 0);
    return out;
}

std::uint64_t EchoService::version_of(std::uint64_t key) const {
    const std::uint64_t* version = versions_.find(key);
    return version == nullptr ? 0 : *version;
}

}  // namespace troxy::apps

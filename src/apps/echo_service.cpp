#include "apps/echo_service.hpp"

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
    reply.reserve(reply_size);
    // Deterministic stream from (key, version): xorshift over the seed.
    std::uint64_t state = key * 0x9e3779b97f4a7c15ULL + version + 1;
    while (reply.size() < reply_size) {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        for (int i = 0; i < 8 && reply.size() < reply_size; ++i) {
            reply.push_back(static_cast<std::uint8_t>(state >> (8 * i)));
        }
    }
    return reply;
}

Bytes EchoService::execute(ByteView request) {
    const Parsed p = parse(request);
    if (p.is_read) {
        return expected_read_reply(p.key, versions_[p.key], p.reply_size);
    }
    if (p.multi) ++versions_[p.partner];
    const std::uint64_t version = ++versions_[p.key];
    Writer ack;
    ack.reserve(kWriteAckSize);
    ack.u8(1);  // "written"
    ack.u64(version);
    ack.u8(0);
    return std::move(ack).take();
}

Bytes EchoService::checkpoint() const {
    Writer w;
    w.u32(static_cast<std::uint32_t>(versions_.size()));
    for (const auto& [key, version] : versions_) {
        w.u64(key);
        w.u64(version);
    }
    return std::move(w).take();
}

void EchoService::restore(ByteView snapshot) {
    versions_.clear();
    Reader r(snapshot);
    const std::uint32_t count = r.u32();
    for (std::uint32_t i = 0; i < count; ++i) {
        const std::uint64_t key = r.u64();
        versions_[key] = r.u64();
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
    const auto it = versions_.find(key);
    return it == versions_.end() ? 0 : it->second;
}

}  // namespace troxy::apps

#include "net/client_sessions.hpp"

#include "net/envelope.hpp"

namespace troxy::net {

std::optional<Bytes> ClientSessions::accept(enclave::CostedCrypto& crypto,
                                            sim::NodeId client,
                                            ByteView hello,
                                            ByteView seed_prefix,
                                            sim::BufferPool& pool) {
    // A second Hello replaces the session: the old channel and its slot
    // window die here, and the fresh generation fences off the old
    // session's in-flight replies. The old release ring moves to the new
    // session with every entry emptied, each keeping its buffer, so a
    // reconnected client's window banks without allocating.
    std::vector<Session::Entry> ring;
    if (const auto old = sessions_.find(client); old != sessions_.end()) {
        ring = std::move(old->second.ring_);
        sessions_.erase(old);
    }
    const auto it =
        sessions_.try_emplace(client, client, identity_, ++generation_counter_)
            .first;
    for (Session::Entry& entry : ring) entry.present = false;
    it->second.ring_ = std::move(ring);

    Writer seed;
    seed.reserve(seed_prefix.size() + 8);
    seed.raw(seed_prefix);
    seed.u64(++handshake_counter_);
    auto server_hello = it->second.channel.accept(crypto, hello, seed.data());
    if (!server_hello) {
        sessions_.erase(it);
        return std::nullopt;
    }
    ++accepted_;
    return client_frame(ClientFrame::ServerHello, *server_hello, pool);
}

ClientSessions::Opened ClientSessions::open(enclave::CostedCrypto& crypto,
                                            sim::NodeId client,
                                            ByteView record) {
    const auto it = sessions_.find(client);
    if (it == sessions_.end()) return {};
    crypto.charge(crypto.profile().aead(record.size()));
    return {&it->second, it->second.channel.unprotect(record)};
}

std::size_t ClientSessions::release_records(Fabric& fabric, sim::Node& node,
                                            const sim::CostProfile& profile,
                                            const Ticket& to,
                                            ByteView reply) {
    enclave::CostMeter meter;
    enclave::CostedCrypto crypto(profile, meter);
    Outbox outbox(fabric, node);
    std::size_t records = 0;
    release(to, reply, [&](Session& session, ByteView ready) {
        crypto.charge(profile.aead(ready.size()));
        outbox.send(to.client, client_record_frame(session.channel, ready,
                                                   outbox.pool()));
        ++records;
    });
    outbox.flush(meter);
    return records;
}

std::size_t ClientSessions::waiting() const noexcept {
    std::size_t banked = 0;
    for (const auto& [client, session] : sessions_) {
        banked += session.banked();
    }
    return banked;
}

void ClientSessions::Session::bank(std::uint64_t slot, ByteView reply) {
    const std::uint64_t offset = slot - next_release;
    if (offset >= ring_.size()) {
        // Grow to a power of two past the offset, unrolling the ring so
        // next_release sits at index 0.
        std::size_t size = ring_.empty() ? kInitialWindow : ring_.size();
        while (size <= offset) size *= 2;
        std::vector<Entry> grown(size);
        for (std::size_t i = 0; i < ring_.size(); ++i) {
            grown[i] = std::move(ring_[(head_ + i) & (ring_.size() - 1)]);
        }
        ring_ = std::move(grown);
        head_ = 0;
    }
    Entry& entry = ring_[(head_ + offset) & (ring_.size() - 1)];
    if (entry.present) return;  // a second reply for the slot
    entry.reply.assign(reply.begin(), reply.end());
    entry.present = true;
    ++banked_;
}

const Bytes* ClientSessions::Session::advance() {
    ++next_release;
    if (banked_ == 0) return nullptr;
    head_ = (head_ + 1) & (ring_.size() - 1);
    Entry& entry = ring_[head_];
    if (!entry.present) return nullptr;
    entry.present = false;
    --banked_;
    return &entry.reply;
}

}  // namespace troxy::net

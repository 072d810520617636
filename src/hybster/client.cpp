#include "hybster/client.hpp"

#include "common/log.hpp"
#include "common/serialize.hpp"
#include "net/client_framing.hpp"
#include "net/envelope.hpp"

namespace troxy::hybster {

namespace {

/// How long a request waits for its reply quorum before the client
/// broadcasts it again.
constexpr sim::Duration kRetransmitTimeout = sim::milliseconds(2000);

}  // namespace

Client::Client(net::Fabric& fabric, sim::Node& node, Config config,
               std::vector<crypto::X25519Key> pinned_keys,
               std::vector<Bytes> replica_keys,
               const sim::CostProfile& profile, Options options)
    : fabric_(fabric),
      node_(node),
      config_(std::move(config)),
      pinned_keys_(std::move(pinned_keys)),
      replica_keys_(std::move(replica_keys)),
      profile_(profile),
      options_(options) {
    config_.validate();
    TROXY_ASSERT(pinned_keys_.size() == static_cast<std::size_t>(config_.n()),
                 "one pinned channel key per replica");
    TROXY_ASSERT(
        replica_keys_.size() == static_cast<std::size_t>(config_.n()),
        "one pairwise secret per replica");
    channels_.resize(pinned_keys_.size());
    handshake_seed_ = node_.id() * 0x10001ULL + 7;
}

void Client::start(std::function<void()> ready) {
    ready_ = std::move(ready);
    enclave::CostMeter meter;
    enclave::CostedCrypto crypto(profile_, meter);
    net::Outbox outbox(fabric_, node_);

    for (std::uint32_t r = 0; r < channels_.size(); ++r) {
        Writer seed;
        seed.u64(handshake_seed_ + r);
        seed.u32(node_.id());
        channels_[r].emplace(pinned_keys_[r], seed.data());
        crypto.charge_dh();
        outbox.send(config_.node_of(r),
                    net::client_frame(net::ClientFrame::Hello,
                                      channels_[r]->client_hello(),
                                      outbox.pool()));
    }
    outbox.flush(meter);
}

Request Client::build_request(enclave::CostedCrypto& crypto,
                              std::uint64_t number,
                              const Pending& pending) const {
    Request request;
    request.id.client = node_.id();
    request.id.number = number;
    request.flags = pending.flags;
    request.assign(pending.payload, replica_keys_.size());
    const Bytes view = request.signed_view();
    const std::span<Certificate> auth = request.auth_slots();
    for (std::size_t r = 0; r < replica_keys_.size(); ++r) {
        // A READ-ONE is checked by its one replica alone.
        if (pending.sole_replica >= 0 &&
            r != static_cast<std::size_t>(pending.sole_replica)) {
            continue;
        }
        auth[r] = crypto.mac(replica_keys_[r], view);
    }
    return request;
}

void Client::invoke(Bytes payload, bool is_read, Callback callback) {
    const std::uint64_t number = next_number_++;
    auto& pending = pending_[number];
    pending.payload = std::move(payload);
    pending.callback = std::move(callback);
    pending.flags = 0;
    if (is_read) {
        pending.flags |= Request::kFlagRead;
        if (options_.optimistic_reads) {
            pending.flags |= Request::kFlagOptimistic;
            ++optimistic_attempts_;
        }
    }

    enclave::CostMeter meter;
    enclave::CostedCrypto crypto(profile_, meter);
    net::Outbox outbox(fabric_, node_);
    send_request(crypto, outbox, number, /*broadcast=*/false);
    outbox.flush(meter);
    arm_retransmit(number);
}

std::uint64_t Client::read_one(Bytes payload, std::uint32_t replica,
                               Callback callback) {
    const std::uint64_t number = next_number_++;
    auto& pending = pending_[number];
    pending.payload = std::move(payload);
    pending.callback = std::move(callback);
    pending.flags = Request::kFlagRead | Request::kFlagOptimistic;
    pending.sole_replica = static_cast<int>(replica);

    enclave::CostMeter meter;
    enclave::CostedCrypto crypto(profile_, meter);
    net::Outbox outbox(fabric_, node_);
    send_request(crypto, outbox, number, /*broadcast=*/false);
    outbox.flush(meter);
    return number;
}

bool Client::addressed_to(const Pending& pending, std::uint32_t replica,
                          bool broadcast) const {
    if (pending.sole_replica >= 0) {
        return replica == static_cast<std::uint32_t>(pending.sole_replica);
    }
    return broadcast || (pending.flags & Request::kFlagOptimistic) != 0 ||
           replica == believed_leader_;
}

void Client::send_request(enclave::CostedCrypto& crypto, net::Outbox& outbox,
                          std::uint64_t number, bool broadcast, int only) {
    const auto it = pending_.find(number);
    if (it == pending_.end() || it->second.done) return;
    Pending& pending = it->second;

    const Request request =
        build_request(crypto, number, pending);
    const Bytes encoded = encode_message(request);

    for (std::uint32_t r = 0; r < channels_.size(); ++r) {
        if (!addressed_to(pending, r, broadcast)) continue;
        if (only >= 0 && r != static_cast<std::uint32_t>(only)) continue;
        if (!channels_[r] || !channels_[r]->established()) continue;
        crypto.charge(profile_.aead(encoded.size()));
        outbox.send(config_.node_of(r),
                    net::client_record_frame(*channels_[r], encoded,
                                             outbox.pool()));
    }
}

void Client::send_held_requests(enclave::CostedCrypto& crypto,
                                enclave::CostMeter& meter,
                                std::uint32_t replica) {
    // Requests issued before this channel came up skipped this replica;
    // the ones it is meant to see go out now instead of with the first
    // retransmit (a READ-ONE is never retransmitted at all).
    net::Outbox outbox(fabric_, node_);
    bool held = false;
    for (const auto& [number, pending] : pending_) {
        if (pending.done || !addressed_to(pending, replica, false)) continue;
        send_request(crypto, outbox, number, /*broadcast=*/false,
                     static_cast<int>(replica));
        held = true;
    }
    if (held) outbox.flush(meter);
}

void Client::arm_retransmit(std::uint64_t number) {
    fabric_.simulator().after(kRetransmitTimeout, [this, number]() {
        const auto it = pending_.find(number);
        if (it == pending_.end() || it->second.done) return;
        ++it->second.retransmits;

        enclave::CostMeter meter;
        enclave::CostedCrypto crypto(profile_, meter);
        net::Outbox outbox(fabric_, node_);
        // Broadcast so followers learn about the request and can suspect
        // an unresponsive leader.
        send_request(crypto, outbox, number, /*broadcast=*/true);
        outbox.flush(meter);
        arm_retransmit(number);
    });
}

void Client::on_message(sim::NodeId from, ByteView payload) {
    const int replica = config_.replica_of(from);
    if (replica < 0) return;
    const auto r = static_cast<std::uint32_t>(replica);
    if (!channels_[r]) return;

    auto frame = net::unframe_client(payload);
    if (!frame) return;

    enclave::CostMeter meter;
    enclave::CostedCrypto crypto(profile_, meter);
    crypto.charge_dispatch();

    switch (frame->first) {
        case net::ClientFrame::ServerHello: {
            crypto.charge_dh();
            // A repeated hello must not re-key a live channel.
            if (!channels_[r]->established() &&
                channels_[r]->finish(frame->second)) {
                ++established_;
                send_held_requests(crypto, meter, r);
                if (connected() && ready_) {
                    auto ready = std::move(ready_);
                    ready_ = nullptr;
                    node_.exec(meter.take(), std::move(ready));
                    return;
                }
            }
            break;
        }
        case net::ClientFrame::Record: {
            crypto.charge(profile_.aead(frame->second.size()));
            for (const ByteView plaintext :
                 channels_[r]->unprotect(frame->second)) {
                auto message = decode_message(plaintext);
                if (!message) continue;
                if (auto* reply = std::get_if<Reply>(&*message)) {
                    if (reply->replica == r) {
                        handle_reply(crypto, std::move(*reply));
                    }
                }
            }
            break;
        }
        case net::ClientFrame::Hello:
            break;  // clients never receive hellos
    }
    node_.charge(meter.take());
}

void Client::handle_reply(enclave::CostedCrypto& crypto, Reply&& reply) {
    const auto it = pending_.find(reply.request_id.number);
    if (it == pending_.end() || it->second.done) return;
    if (reply.request_id.client != node_.id()) return;
    Pending& pending = it->second;
    if (pending.sole_replica >= 0 &&
        reply.replica != static_cast<std::uint32_t>(pending.sole_replica)) {
        return;
    }

    // Verify the pairwise reply certificate; unauthenticated replies are
    // discarded (a faulty replica cannot impersonate others).
    if (reply.replica >= replica_keys_.size()) return;
    if (!crypto.mac_verify(replica_keys_[reply.replica],
                           reply.certified_view(), reply.cert)) {
        return;
    }

    believed_leader_ = config_.leader_of(reply.view);

    // One vote per replica; a replica re-sending a different result only
    // replaces its previous vote (cannot double-count).
    Writer key;
    key.raw(reply.request_digest);
    key.bytes(reply.result);
    Bytes vote = std::move(key).take();

    auto& votes = pending.votes;
    const auto previous = votes.find(reply.replica);
    if (previous != votes.end()) {
        if (previous->second == vote) return;
        --pending.tally[previous->second];
    }
    votes[reply.replica] = vote;
    const int count = ++pending.tally[vote];

    // Ordered requests need f+1 matching replies; the PBFT-like read
    // optimization needs *all* 2f+1 to match (§V-B: the client waits for
    // the "2f+1 slowest matching reply"), since a non-ordered read is
    // only safe when every queried replica agrees. READ-ONE takes its one
    // replica's word.
    const int required = pending.sole_replica >= 0 ? 1
                         : (pending.flags & Request::kFlagOptimistic)
                             ? config_.n()
                             : config_.reply_quorum();
    if (count >= required) {
        finish(reply.request_id.number, pending, std::move(reply.result));
        return;
    }

    // Optimistic read conflict: all replicas answered but they disagree —
    // retry as an ordered request (§VI-C2).
    if ((pending.flags & Request::kFlagOptimistic) &&
        votes.size() == static_cast<std::size_t>(config_.n()) &&
        pending.tally.size() > 1) {
        ++read_conflicts_;
        retry_ordered(reply.request_id.number, std::move(pending));
    }
}

void Client::finish(std::uint64_t number, Pending& pending, Bytes result) {
    pending.done = true;
    Callback callback = std::move(pending.callback);
    pending_.erase(number);
    if (callback) callback(std::move(result));
}

void Client::retry_ordered(std::uint64_t number, Pending failed) {
    pending_.erase(number);
    const std::uint64_t fresh = next_number_++;
    auto& pending = pending_[fresh];
    pending.payload = std::move(failed.payload);
    pending.callback = std::move(failed.callback);
    pending.flags = Request::kFlagRead;  // ordered read this time

    enclave::CostMeter meter;
    enclave::CostedCrypto crypto(profile_, meter);
    net::Outbox outbox(fabric_, node_);
    send_request(crypto, outbox, fresh, /*broadcast=*/false);
    outbox.flush(meter);
    arm_retransmit(fresh);
}

}  // namespace troxy::hybster

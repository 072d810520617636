#include "baselines/prophecy.hpp"

#include "common/serialize.hpp"
#include "net/client_framing.hpp"
#include "net/envelope.hpp"
#include "net/outbox.hpp"

namespace troxy::baselines {

ProphecyMiddlebox::ProphecyMiddlebox(
    net::Fabric& fabric, sim::Node& node, pbft::Config config,
    std::shared_ptr<net::MacTable> macs,
    crypto::X25519Keypair channel_identity, troxy_core::Classifier classifier,
    const sim::CostProfile& profile, Options options, std::uint64_t seed)
    : fabric_(fabric),
      node_(node),
      config_(std::move(config)),
      identity_(channel_identity),
      classifier_(std::move(classifier)),
      profile_(profile),
      options_(options),
      rng_(seed ^ 0x70726f7068ULL) {
    bft_client_ = std::make_unique<pbft::PbftClient>(
        fabric, node, config_, std::move(macs), profile);
}

void ProphecyMiddlebox::attach() {
    fabric_.attach(node_.id(), [this](sim::NodeId from, Bytes message) {
        on_message(from, std::move(message));
    });
}

void ProphecyMiddlebox::on_message(sim::NodeId from, Bytes message) {
    auto unwrapped = net::unwrap(message);
    if (!unwrapped) return;
    auto& [channel, payload] = *unwrapped;

    switch (channel) {
        case net::Channel::Pbft:
            bft_client_->on_message(from, payload);
            return;
        case net::Channel::Client:
            handle_client_frame(from, payload);
            return;
        default:
            return;
    }
}

void ProphecyMiddlebox::handle_client_frame(sim::NodeId from,
                                            ByteView payload) {
    auto frame = net::unframe_client(payload);
    if (!frame) return;

    enclave::CostMeter meter;
    enclave::CostedCrypto crypto(profile_, meter);
    net::Outbox outbox(fabric_, node_);
    crypto.charge_dispatch();

    switch (frame->first) {
        case net::ClientFrame::Hello: {
            auto [it, inserted] = connections_.try_emplace(from, identity_);
            if (!inserted) {
                connections_.erase(it);
                it = connections_.try_emplace(from, identity_).first;
            }
            Writer seed;
            seed.u32(node_.id());
            seed.u64(++handshake_counter_);
            auto hello =
                it->second.channel.accept(crypto, frame->second, seed.data());
            if (hello) {
                outbox.send(from, net::wrap(net::Channel::Client,
                                            net::frame_client(
                                                net::ClientFrame::ServerHello,
                                                *hello)));
            } else {
                connections_.erase(from);
            }
            break;
        }
        case net::ClientFrame::Record: {
            const auto it = connections_.find(from);
            if (it == connections_.end() ||
                !it->second.channel.established()) {
                break;
            }
            crypto.charge(profile_.aead(frame->second.size()));
            for (const ByteView app_request :
                 it->second.channel.unprotect(frame->second)) {
                outbox.defer([this, from,
                              request = Bytes(app_request.begin(),
                                              app_request.end())]() mutable {
                    handle_app_request(from, std::move(request));
                });
            }
            break;
        }
        case net::ClientFrame::ServerHello:
            break;
    }
    outbox.flush(meter);
}

void ProphecyMiddlebox::handle_app_request(sim::NodeId client,
                                           Bytes app_request) {
    const auto conn = connections_.find(client);
    if (conn == connections_.end()) return;
    const std::uint64_t slot = conn->second.next_assign++;

    const hybster::RequestInfo info = classifier_(app_request);
    if (!info.is_read) {
        // Writes always go through the full protocol; the sketch is NOT
        // invalidated (Prophecy cannot map writes to cached reads — the
        // source of its weak consistency).
        ++stats_.ordered;
        bft_client_->invoke(app_request, false,
                            [this, client, slot](Bytes result) {
                                release_reply(client, slot,
                                              std::move(result));
                            });
        return;
    }

    const Bytes sketch_key = crypto::sha256_bytes(app_request);
    const auto hit = sketch_.find(sketch_key);
    if (hit == sketch_.end()) {
        ++stats_.sketch_misses;
        ordered_read_through(client, slot, std::move(app_request), true);
        return;
    }

    // Fast path: one random replica, compare against the sketch.
    const auto replica = static_cast<std::uint32_t>(
        rng_.next_below(static_cast<std::uint64_t>(config_.n())));
    const crypto::Sha256Digest expected = hit->second;
    bft_client_->read_one(
        app_request, replica,
        [this, client, slot, expected,
         request = app_request](Bytes result) mutable {
            if (constant_time_equal(crypto::sha256(result), expected)) {
                ++stats_.fast_hits;
                release_reply(client, slot, std::move(result));
            } else {
                // Replica disagrees with the sketch (stale sketch after a
                // write, or a faulty replica): fall back to an ordered
                // read and refresh the sketch.
                ++stats_.fast_conflicts;
                ordered_read_through(client, slot, std::move(request), true);
            }
        });
}

void ProphecyMiddlebox::ordered_read_through(sim::NodeId client,
                                             std::uint64_t slot,
                                             Bytes app_request,
                                             bool update_sketch) {
    ++stats_.ordered;
    const Bytes sketch_key = crypto::sha256_bytes(app_request);
    bft_client_->invoke(
        std::move(app_request), true,
        [this, client, slot, sketch_key, update_sketch](Bytes result) {
            if (update_sketch) {
                if (sketch_.size() >= options_.sketch_capacity) {
                    sketch_.erase(sketch_.begin());
                }
                sketch_[sketch_key] = crypto::sha256(result);
            }
            release_reply(client, slot, std::move(result));
        });
}

void ProphecyMiddlebox::release_reply(sim::NodeId client, std::uint64_t slot,
                                      Bytes app_reply) {
    const auto conn = connections_.find(client);
    if (conn == connections_.end()) return;
    Connection& connection = conn->second;

    connection.ready.emplace(slot, std::move(app_reply));

    enclave::CostMeter meter;
    enclave::CostedCrypto crypto(profile_, meter);
    net::Outbox outbox(fabric_, node_);
    while (true) {
        const auto next = connection.ready.find(connection.next_release);
        if (next == connection.ready.end()) break;
        crypto.charge(profile_.aead(next->second.size()));
        outbox.send(client, net::client_record_frame(
                                connection.channel, next->second));
        connection.ready.erase(next);
        ++connection.next_release;
    }
    outbox.flush(meter);
}

}  // namespace troxy::baselines

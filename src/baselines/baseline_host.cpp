#include "baselines/baseline_host.hpp"

#include "net/client_framing.hpp"
#include "net/envelope.hpp"
#include "net/outbox.hpp"

namespace troxy::baselines {

BaselineReplicaHost::BaselineReplicaHost(
    net::Fabric& fabric, sim::Node& node, hybster::Config config,
    std::uint32_t replica_id, hybster::ServicePtr service,
    hybster::Certifier certifier,
    crypto::X25519Keypair channel_identity,
    ClientKeyProvider client_key_provider, const sim::CostProfile& profile)
    : fabric_(fabric),
      node_(node),
      config_(config),
      replica_id_(replica_id),
      client_keys_(std::move(client_key_provider)),
      profile_(profile),
      sessions_(channel_identity) {
    hybster::Replica::Hooks hooks;

    // Clients attach one certificate per replica; we check ours.
    hooks.verify_request = [this](enclave::CostedCrypto& crypto,
                                  const hybster::Request& request) {
        if (request.auth().size() <=
            static_cast<std::size_t>(replica_id_)) {
            return false;
        }
        return crypto.mac_verify(client_key(request.id.client),
                                 request.signed_view(scratch_),
                                 request.auth()[replica_id_]);
    };

    // Replies are authenticated with the pairwise secret and sent over
    // the client's secure channel (each replica replies directly; the
    // client-side library does the voting).
    hooks.deliver_replies = [this](enclave::CostedCrypto& crypto,
                                   net::Outbox& outbox,
                                   std::span<hybster::ExecutedReply> batch) {
        for (hybster::ExecutedReply& member : batch) {
            const sim::NodeId client = member.request->id.client;
            net::ClientSessions::Session* session = sessions_.find(client);
            if (session == nullptr) continue;  // client not connected here
            hybster::Reply& reply = member.reply;
            const crypto::HmacTag tag =
                crypto.mac(client_key(client), reply.certified_view(scratch_));
            std::copy(tag.begin(), tag.end(), reply.cert.begin());

            const Bytes encoded = hybster::encode_message(reply);
            crypto.charge(profile_.aead(encoded.size()));
            outbox.send(client,
                        net::client_record_frame(session->channel, encoded,
                                                 outbox.pool()));
        }
    };

    replica_ = std::make_unique<hybster::Replica>(
        fabric, node, config, replica_id, std::move(service),
        std::move(certifier), profile, std::move(hooks));
}

const Bytes& BaselineReplicaHost::client_key(sim::NodeId client) {
    const auto it = client_key_cache_.lower_bound(client);
    if (it != client_key_cache_.end() && it->first == client) {
        return it->second;
    }
    return client_key_cache_.emplace_hint(it, client, client_keys_(client))
        ->second;
}

void BaselineReplicaHost::attach() {
    fabric_.attach(node_.id(), [this](sim::NodeId from, Bytes message) {
        on_message(from, std::move(message));
    });
}

void BaselineReplicaHost::on_message(sim::NodeId from, Bytes message) {
    if (!faults_.crashed) dispatch_message(from, message);
    // Every dispatch path decodes out of the frame synchronously, and a
    // crashed host drops it, so the wire buffer can rejoin the pool.
    fabric_.network().recycle(std::move(message));
}

void BaselineReplicaHost::dispatch_message(sim::NodeId from,
                                           ByteView message) {
    auto unwrapped = net::unwrap_view(message);
    if (!unwrapped) return;
    auto& [channel, payload] = *unwrapped;

    switch (channel) {
        case net::Channel::Hybster:
            replica_->on_message(from, payload);
            return;
        case net::Channel::Client:
            sessions_.serve_frame(
                fabric_, node_, profile_, from, payload,
                [&](net::ClientSessions::Session&, ByteView plaintext, auto&,
                    net::Outbox& outbox) {
                    auto decoded = hybster::decode_message(plaintext);
                    if (!decoded) return;
                    auto* request = std::get_if<hybster::Request>(&*decoded);
                    if (!request) return;
                    if (request->id.client != from) return;  // impersonation
                    outbox.defer([this, req = std::move(*request)]() {
                        // submit() re-dispatches optimistic reads
                        // internally.
                        replica_->submit({req});
                    });
                });
            return;
        default:
            return;
    }
}

}  // namespace troxy::baselines

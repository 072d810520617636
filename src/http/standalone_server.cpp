#include "http/standalone_server.hpp"

#include "net/client_framing.hpp"
#include "net/envelope.hpp"
#include "net/outbox.hpp"

namespace troxy::http {

StandaloneServer::StandaloneServer(net::Fabric& fabric, sim::Node& node,
                                   hybster::ServicePtr service,
                                   crypto::X25519Keypair channel_identity,
                                   const sim::CostProfile& profile)
    : fabric_(fabric),
      node_(node),
      service_(std::move(service)),
      profile_(profile),
      sessions_(channel_identity) {}

void StandaloneServer::attach() {
    fabric_.attach(node_.id(), [this](sim::NodeId from, Bytes message) {
        on_message(from, std::move(message));
    });
}

void StandaloneServer::on_message(sim::NodeId from, Bytes message) {
    auto unwrapped = net::unwrap_view(message);
    if (unwrapped && unwrapped->first == net::Channel::Client) {
        sessions_.serve_frame(
            fabric_, node_, profile_, from, unwrapped->second,
            [&](net::ClientSessions::Session& session, ByteView app_request,
                enclave::CostedCrypto& crypto, net::Outbox& outbox) {
                crypto.charge(service_->execution_cost(app_request));
                Bytes app_reply = service_->execute(app_request);

                crypto.charge(profile_.aead(app_reply.size()));
                outbox.send(from, net::client_record_frame(
                                      session.channel, app_reply,
                                      outbox.pool()));
            });
    }
    // The record was opened synchronously, so the wire buffer can rejoin
    // the pool for the next sender.
    fabric_.network().recycle(std::move(message));
}

}  // namespace troxy::http

#include "http/standalone_server.hpp"

#include "common/serialize.hpp"
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
      identity_(channel_identity),
      profile_(profile) {}

void StandaloneServer::attach() {
    fabric_.attach(node_.id(), [this](sim::NodeId from, Bytes message) {
        on_message(from, std::move(message));
    });
}

void StandaloneServer::on_message(sim::NodeId from, Bytes message) {
    auto unwrapped = net::unwrap_view(message);
    if (!unwrapped || unwrapped->first != net::Channel::Client) return;
    auto frame = net::unframe_client(unwrapped->second);
    if (!frame) return;

    enclave::CostMeter meter;
    enclave::CostedCrypto crypto(profile_, meter);
    net::Outbox outbox(fabric_, node_);
    crypto.charge_dispatch();

    switch (frame->first) {
        case net::ClientFrame::Hello: {
            auto [it, inserted] = channels_.try_emplace(from, identity_);
            if (!inserted) {
                channels_.erase(it);
                it = channels_.try_emplace(from, identity_).first;
            }
            Writer seed;
            seed.u32(node_.id());
            seed.u64(++handshake_counter_);
            auto hello =
                it->second.accept(crypto, frame->second, seed.data());
            if (hello) {
                outbox.send(from,
                            net::wrap(net::Channel::Client,
                                      net::frame_client(
                                          net::ClientFrame::ServerHello,
                                          *hello)));
            } else {
                channels_.erase(from);
            }
            break;
        }
        case net::ClientFrame::Record: {
            const auto it = channels_.find(from);
            if (it == channels_.end() || !it->second.established()) break;
            crypto.charge(profile_.aead(frame->second.size()));
            for (const ByteView app_request :
                 it->second.unprotect(frame->second)) {
                crypto.charge(service_->execution_cost(app_request));
                Bytes app_reply = service_->execute(app_request);

                crypto.charge(profile_.aead(app_reply.size()));
                outbox.send(from,
                            net::client_record_frame(
                                it->second, app_reply));
            }
            break;
        }
        case net::ClientFrame::ServerHello:
            break;
    }
    outbox.flush(meter);
}

}  // namespace troxy::http

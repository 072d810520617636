// Standalone unreplicated server ("Jetty" in Fig. 11).
//
// A single machine terminating the clients' secure channels and executing
// the service directly — no replication, no fault tolerance. Serves as
// the latency floor the replicated configurations are compared against.
#pragma once

#include <memory>

#include "crypto/x25519.hpp"
#include "hybster/service.hpp"
#include "net/fabric.hpp"
#include "net/client_sessions.hpp"

namespace troxy::http {

class StandaloneServer {
  public:
    StandaloneServer(net::Fabric& fabric, sim::Node& node,
                     hybster::ServicePtr service,
                     crypto::X25519Keypair channel_identity,
                     const sim::CostProfile& profile);

    void attach();

    [[nodiscard]] hybster::Service& service() noexcept { return *service_; }

  private:
    void on_message(sim::NodeId from, Bytes message);

    net::Fabric& fabric_;
    sim::Node& node_;
    hybster::ServicePtr service_;
    const sim::CostProfile& profile_;
    net::ClientSessions sessions_;
};

}  // namespace troxy::http

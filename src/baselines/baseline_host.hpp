// Baseline Hybster server host ("BL" in the evaluation).
//
// The unmodified Hybster deployment: clients run the traditional
// client-side BFT library (hybster::Client), connect to every replica
// over secure channels, and vote over f+1 replies themselves. This host
// is the server half of those connections — it terminates the per-client
// channels, feeds decrypted requests into the replica, and sends back
// replies authenticated with the pairwise client↔replica secret.
// Everything here runs at the Java cost profile, like the original
// Hybster prototype. The same host serves Prophecy's 3f+1 group: handed
// link-MAC keys instead of a TrinX, its replica runs the PBFT profile, and
// the Prophecy middlebox is its one client.
#pragma once

#include <functional>
#include <map>
#include <memory>

#include "crypto/x25519.hpp"
#include "hybster/replica.hpp"
#include "net/client_sessions.hpp"

namespace troxy::baselines {

class BaselineReplicaHost {
  public:
    /// `client_key_provider` returns the pairwise secret between this
    /// replica and a client node (distributed by trusted setup).
    using ClientKeyProvider = std::function<Bytes(sim::NodeId client)>;

    BaselineReplicaHost(net::Fabric& fabric, sim::Node& node,
                        hybster::Config config, std::uint32_t replica_id,
                        hybster::ServicePtr service,
                        hybster::Certifier certifier,
                        crypto::X25519Keypair channel_identity,
                        ClientKeyProvider client_key_provider,
                        const sim::CostProfile& profile);

    void attach();

    [[nodiscard]] hybster::Replica& replica() noexcept { return *replica_; }
    [[nodiscard]] sim::Node& node() noexcept { return node_; }

    void set_faults(const hybster::FaultProfile& faults) {
        faults_ = faults;
        replica_->set_faults(faults);
    }

  private:
    void on_message(sim::NodeId from, Bytes message);
    /// Channel dispatch over a borrowed view of the wire frame; the owning
    /// caller recycles the buffer afterwards.
    void dispatch_message(sim::NodeId from, ByteView message);
    /// The pairwise secret with `client`, derived on its first use.
    const Bytes& client_key(sim::NodeId client);

    net::Fabric& fabric_;
    sim::Node& node_;
    hybster::Config config_;
    std::uint32_t replica_id_;
    ClientKeyProvider client_keys_;
    /// Derived secrets by client: the key derivation (HKDF) runs once per
    /// client rather than on every request and reply.
    std::map<sim::NodeId, Bytes> client_key_cache_;
    /// Staging buffer for signed and certified views and for each reply
    /// encoded for its client record.
    Bytes scratch_;
    const sim::CostProfile& profile_;
    hybster::FaultProfile faults_;

    net::ClientSessions sessions_;
    std::unique_ptr<hybster::Replica> replica_;
};

}  // namespace troxy::baselines

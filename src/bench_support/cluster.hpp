// Deployment builders: one call constructs a full simulated cluster
// matching the paper's testbed (§VI-A) — replicas on quad-core machines
// with four 1 Gbps NICs, clients packed onto two client machines, LAN
// links inside the cluster and optionally 100±20 ms WAN links towards the
// clients.
//
// Four deployments, one per evaluated system:
//   TroxyCluster       — Troxy-backed Hybster (etroxy / ctroxy), one
//                        replica group or shard_count groups behind a
//                        routing front tier
//   BaselineCluster    — original Hybster with the client-side library (BL)
//   ProphecyCluster    — Hybster's replica in its PBFT profile (3f+1)
//                        behind a Prophecy middlebox
//   StandaloneCluster  — single unreplicated server (the "Jetty" floor)
#pragma once

#include <memory>
#include <vector>

#include "baselines/baseline_host.hpp"
#include "baselines/prophecy.hpp"
#include "enclave/attestation.hpp"
#include "hybster/client.hpp"
#include "http/standalone_server.hpp"
#include "net/fabric.hpp"
#include "troxy/host.hpp"
#include "troxy/legacy_client.hpp"
#include "troxy/shard_front.hpp"
#include "troxy/shard_router.hpp"

namespace troxy::bench {

/// Deployment knobs. The replica pipeline knobs are inherited from
/// hybster::PipelineOptions and reach every group's Config unchanged.
struct ClusterOptions : hybster::PipelineOptions {
    int f = 1;
    int replica_cores = 8;  // i7-6700: 4 cores + hyper-threading
    int client_cores = 8;
    bool wan_clients = false;  // add 100±20 ms on client links
    int client_machines = 2;   // paper: two client machines
    double client_machine_bandwidth = 4e9;   // four 1 Gbps NICs each
    double replica_machine_bandwidth = 4e9;  // four 1 Gbps NICs
    std::uint64_t seed = 1;
    /// The paper testbed's cadence; a bare hybster::Config uses 128.
    hybster::SequenceNumber checkpoint_interval = 512;
    /// Standard deviation added to intra-cluster link latency. The
    /// deterministic simulator lacks the execution-time variance of a
    /// real testbed (JVM GC pauses, interrupt coalescing, switch
    /// queueing); experiments whose phenomena depend on replica
    /// de-synchronization (read/write conflicts, Fig. 10) opt into it.
    sim::Duration lan_jitter = 0;
    /// Event-scheduler engine: Calendar is the production O(1) wheel,
    /// BinaryHeap the simple reference used for determinism A/B checks.
    sim::Simulator::Scheduler scheduler =
        sim::Simulator::Scheduler::Calendar;
    /// Number of independent replica groups the service state is
    /// partitioned over (TroxyCluster). 1 = the paper's unsharded
    /// deployment: one group, no front, clients contact the replicas.
    int shard_count = 1;
    /// Upper bound on total replicas across all shards (testbed machine
    /// budget); 0 = unlimited. shard_count * (2f+1) must fit inside it.
    int replica_budget = 0;
    /// Independent routing fronts over the sharded deployment (fronts
    /// share no state; clients are assigned by consistent hashing).
    /// Must stay 1 when shard_count == 1, which has no front.
    int front_count = 1;
};

/// A replica group served by BaselineReplicaHosts at the Java profile:
/// BL's 2f+1 hybrid group (TrinX) or Prophecy's 3f+1 PBFT group (link
/// MACs), plus what a hybster::Client of the group needs.
struct BaselineGroup {
    hybster::Config config;
    Bytes client_master;
    std::vector<crypto::X25519Keypair> identities;
    std::vector<std::unique_ptr<baselines::BaselineReplicaHost>> hosts;

    /// Replica r's channel identity, index r.
    [[nodiscard]] std::vector<crypto::X25519Key> pinned_keys() const;
    /// `client`'s pairwise secret with replica r, index r.
    [[nodiscard]] std::vector<Bytes> client_keys(sim::NodeId client) const;
};

/// Owns the simulator, network, fabric and nodes shared by a deployment.
class ClusterBase {
  public:
    explicit ClusterBase(const ClusterOptions& options);
    virtual ~ClusterBase() = default;

    [[nodiscard]] sim::Simulator& simulator() noexcept { return sim_; }
    [[nodiscard]] net::Fabric& fabric() noexcept { return fabric_; }
    [[nodiscard]] sim::Network& network() noexcept { return network_; }
    [[nodiscard]] const ClusterOptions& options() const noexcept {
        return options_;
    }
    [[nodiscard]] const sim::CostProfile& java_profile() const noexcept {
        return java_;
    }
    [[nodiscard]] const sim::CostProfile& native_profile() const noexcept {
        return native_;
    }

  protected:
    /// Creates a server node on its own machine (own NIC group).
    sim::Node& make_server_node(const std::string& name);

    /// Creates a client node packed onto one of the client machines; if
    /// WAN mode is on, its links to all existing server nodes get the
    /// 100±20 ms latency.
    sim::Node& make_client_node(const std::string& name);

    /// Appends to `clients` a legacy client on a fresh client node whose
    /// one server is `server`, pinned to `key`.
    troxy_core::LegacyClient& add_legacy_client(
        std::vector<std::unique_ptr<troxy_core::LegacyClient>>& clients,
        sim::NodeId server, const crypto::X25519Key& key);

    /// Builds and attaches a BaselineReplicaHost group on fresh server
    /// nodes named `name`0, `name`1, ...: 2f+1 replicas with TrinX, or
    /// 3f+1 with link MACs when `pbft`. The pipeline knobs come from the
    /// options. Throws std::invalid_argument when the options set
    /// coalesce_wire or a transport other than none(): the hosts cannot
    /// unbundle a coalesced frame and charge no transport.
    BaselineGroup build_baseline_group(bool pbft,
                                       const hybster::ServiceFactory& service,
                                       const std::string& name);

    ClusterOptions options_;
    sim::Simulator sim_;
    sim::Network network_;
    net::Fabric fabric_;
    sim::CostProfile java_;
    sim::CostProfile native_;
    std::vector<std::unique_ptr<sim::Node>> nodes_;
    std::vector<sim::NodeId> server_nodes_;
    sim::NodeId next_server_id_ = 1;
    sim::NodeId next_client_id_ = 1000;
    int next_client_machine_ = 0;
};

// ---------------------------------------------------------------- Troxy

/// Troxy-backed Hybster (etroxy / ctroxy). With one shard, the default,
/// this is the paper's deployment: one 2f+1 replica group whose replicas
/// the clients contact directly. With shard_count = S > 1 the service
/// state is partitioned over S independent groups, each with its own log,
/// leader, checkpoints and Troxy cache slice, behind a transparent front
/// tier: a front terminates legacy client channels, routes by the
/// ShardMap and merges replies so clients observe a single endpoint. The
/// front holds no protocol state, so the tier scales out: front_count > 1
/// runs F independent fronts over the same shards with consistent-hash
/// client assignment (FrontMap); a client's failover list walks the
/// ring, so a front crash sends its clients to the next front.
class TroxyCluster : public ClusterBase {
  public:
    struct Params {
        ClusterOptions base;  // base.shard_count selects S
        hybster::ServiceFactory service;
        troxy_core::Classifier classifier;
        troxy_core::TroxyReplicaHost::Options host;
        troxy_core::LegacyClient::Options client;
        bool ctroxy = false;  // run the Troxy outside the enclave
        /// Key-range partition; must describe exactly base.shard_count
        /// shards (ignored when shard_count == 1). Build with
        /// ShardMap::split_evenly over the workload's key universe.
        troxy_core::ShardMap map;
        /// Front knobs (upstream session options).
        troxy_core::ShardFrontHost::Options front;
    };

    /// Throws std::invalid_argument when the shard knobs are inconsistent
    /// (shard count < 1, front_count > 1 with one shard, replica budget
    /// exceeded, map/shard mismatch, malformed boundaries).
    explicit TroxyCluster(Params params);

    [[nodiscard]] int shards() const noexcept {
        return static_cast<int>(groups_.size());
    }
    /// Replicas per group (2f+1).
    [[nodiscard]] int n() const noexcept { return config().n(); }
    [[nodiscard]] const hybster::Config& config(int shard = 0) const {
        return groups_.at(static_cast<std::size_t>(shard)).config;
    }
    [[nodiscard]] troxy_core::TroxyReplicaHost& host(int shard,
                                                     int replica) {
        return *groups_.at(static_cast<std::size_t>(shard))
                    .hosts.at(static_cast<std::size_t>(replica));
    }
    [[nodiscard]] troxy_core::TroxyReplicaHost& host(int replica) {
        return host(0, replica);
    }
    /// The first routing front; only present when shards() > 1.
    [[nodiscard]] troxy_core::ShardFrontHost* front() noexcept {
        return fronts_.empty() ? nullptr : fronts_.front().get();
    }
    [[nodiscard]] troxy_core::ShardFrontHost& front(int f) {
        return *fronts_.at(static_cast<std::size_t>(f));
    }
    [[nodiscard]] int front_count() const noexcept {
        return static_cast<int>(fronts_.size());
    }
    /// The consistent-hash ring assigning clients to fronts.
    [[nodiscard]] const troxy_core::FrontMap& front_map() const noexcept {
        return front_map_;
    }

    /// Adds a legacy client. One shard: its first contact is replica
    /// `contact` (round-robin when negative) and its failover list covers
    /// all replicas. Sharded: `contact` is ignored; the client contacts
    /// its consistent-hash front first, with the remaining fronts as
    /// failover targets in ring order.
    troxy_core::LegacyClient& add_client(int contact = -1);

    /// Whole-host crash/restart; restart hands the host a fresh service
    /// instance from the cluster's factory, after which the replica
    /// rejoins via checkpoint state transfer.
    void crash_host(int shard, int replica);
    void restart_host(int shard, int replica);
    void crash_host(int replica) { crash_host(0, replica); }
    void restart_host(int replica) { restart_host(0, replica); }

    /// Proactive enclave recovery on one host (attestation re-handshake,
    /// session-key rotation, certified counter handover). Returns false
    /// if recovery could not start (host crashed, one in flight).
    bool recover_enclave(int shard, int replica) {
        return host(shard, replica).recover_enclave();
    }
    bool recover_enclave(int replica) { return recover_enclave(0, replica); }

    /// Front-tier crash/restart. A crashed front drops its connections
    /// and in-flight forwards; its clients time out and fail over to the
    /// next front on the ring (the shards never notice).
    void crash_front(int front);
    void restart_front(int front);

    [[nodiscard]] std::vector<troxy_core::LegacyClient*> clients() {
        std::vector<troxy_core::LegacyClient*> out;
        for (auto& c : clients_) out.push_back(c.get());
        return out;
    }

  private:
    struct Group {
        hybster::Config config;
        std::vector<crypto::X25519Keypair> identities;
        std::vector<std::unique_ptr<troxy_core::TroxyReplicaHost>> hosts;
    };

    void build_group(int shard, const Params& params);

    hybster::ServiceFactory service_factory_;
    troxy_core::LegacyClient::Options client_options_;
    troxy_core::ShardMap map_;
    troxy_core::FrontMap front_map_;
    std::vector<Group> groups_;
    std::vector<std::unique_ptr<troxy_core::ShardFrontHost>> fronts_;
    std::vector<crypto::X25519Keypair> front_identities_;
    std::vector<std::unique_ptr<troxy_core::LegacyClient>> clients_;
    int next_contact_ = 0;
};

/// The sharded builder's former name, kept for existing callers.
using ShardedTroxyCluster = TroxyCluster;

// -------------------------------------------------------------- Baseline

class BaselineCluster : public ClusterBase {
  public:
    struct Params {
        ClusterOptions base;
        hybster::ServiceFactory service;
        bool optimistic_reads = false;  // PBFT-like read optimization
        sim::Duration client_retransmit = sim::milliseconds(2000);
    };

    /// Throws std::invalid_argument when base sets coalesce_wire or a
    /// transport other than none() (see build_baseline_group).
    explicit BaselineCluster(Params params);

    [[nodiscard]] const hybster::Config& config() const noexcept {
        return group_.config;
    }
    [[nodiscard]] baselines::BaselineReplicaHost& host(int replica) {
        return *group_.hosts.at(static_cast<std::size_t>(replica));
    }

    hybster::Client& add_client();

    [[nodiscard]] std::vector<hybster::Client*> clients() {
        std::vector<hybster::Client*> out;
        for (auto& c : clients_) out.push_back(c.get());
        return out;
    }

  private:
    BaselineGroup group_;
    bool optimistic_reads_;
    sim::Duration client_retransmit_;
    std::vector<std::unique_ptr<hybster::Client>> clients_;
};

// -------------------------------------------------------------- Prophecy

class ProphecyCluster : public ClusterBase {
  public:
    struct Params {
        ClusterOptions base;
        hybster::ServiceFactory service;
        troxy_core::Classifier classifier;
        baselines::ProphecyMiddlebox::Options middlebox;
    };

    /// Throws std::invalid_argument like BaselineCluster.
    explicit ProphecyCluster(Params params);

    [[nodiscard]] baselines::ProphecyMiddlebox& middlebox() noexcept {
        return *middlebox_;
    }
    [[nodiscard]] baselines::BaselineReplicaHost& host(int i) {
        return *group_.hosts.at(static_cast<std::size_t>(i));
    }
    /// Replica i alone: faults set here leave its host's channel
    /// endpoint up.
    [[nodiscard]] hybster::Replica& replica(int i) {
        return host(i).replica();
    }
    [[nodiscard]] const hybster::Config& config() const noexcept {
        return group_.config;
    }

    troxy_core::LegacyClient& add_client();

  private:
    BaselineGroup group_;
    crypto::X25519Keypair middlebox_identity_;
    sim::NodeId middlebox_node_ = 0;
    std::unique_ptr<baselines::ProphecyMiddlebox> middlebox_;
    std::vector<std::unique_ptr<troxy_core::LegacyClient>> clients_;
};

// ------------------------------------------------------------ Standalone

class StandaloneCluster : public ClusterBase {
  public:
    struct Params {
        ClusterOptions base;
        hybster::ServiceFactory service;
    };

    explicit StandaloneCluster(Params params);

    [[nodiscard]] http::StandaloneServer& server() noexcept {
        return *server_;
    }

    troxy_core::LegacyClient& add_client();

  private:
    crypto::X25519Keypair identity_;
    sim::NodeId server_node_ = 0;
    std::unique_ptr<http::StandaloneServer> server_;
    std::vector<std::unique_ptr<troxy_core::LegacyClient>> clients_;
};

}  // namespace troxy::bench

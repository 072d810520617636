#include "bench_support/cluster.hpp"

#include <stdexcept>

#include "common/serialize.hpp"
#include "hybster/keys.hpp"

namespace troxy::bench {

namespace {

/// Trusted-subsystem provisioning output: the per-replica counters plus
/// the deployment authority and expected measurement, kept around so
/// proactive enclave recovery can run the same attestation re-handshake
/// the initial setup did.
struct Provisioned {
    std::vector<std::shared_ptr<enclave::TrinX>> trinx;
    std::shared_ptr<enclave::AttestationAuthority> authority;
    enclave::Measurement measurement{};
};

/// Establishes the trusted subsystems' shared group key the way the real
/// system does: each enclave attests to the deployment authority, which
/// releases the secret only against a valid report (§V-A).
Provisioned provision_trinx(int count, std::uint64_t seed) {
    Writer platform_seed;
    platform_seed.u64(seed);
    platform_seed.str("platform-key");
    const Bytes platform_key =
        crypto::hkdf({}, platform_seed.data(), to_bytes("platform"), 32);

    Provisioned out;
    out.authority =
        std::make_shared<enclave::AttestationAuthority>(platform_key);
    out.measurement = enclave::measure("troxy-enclave-v1");

    Writer group_seed;
    group_seed.u64(seed);
    group_seed.str("troxy-group-key");
    const Bytes group_key =
        crypto::hkdf({}, group_seed.data(), to_bytes("group"), 32);

    for (int replica = 0; replica < count; ++replica) {
        const std::uint64_t nonce = seed * 1000 + static_cast<std::uint64_t>(replica);
        const enclave::AttestationReport report =
            out.authority->issue(out.measurement, nonce);
        const auto secret = out.authority->provision(report, out.measurement,
                                                     nonce, group_key);
        TROXY_ASSERT(secret.has_value(), "attestation must succeed at setup");
        out.trinx.push_back(std::make_shared<enclave::TrinX>(
            static_cast<std::uint32_t>(replica), *secret));
    }
    return out;
}

crypto::X25519Keypair identity_for(std::uint64_t seed, int index) {
    Writer w;
    w.u64(seed);
    w.u32(static_cast<std::uint32_t>(index));
    w.str("channel-identity");
    return crypto::x25519_keypair_from_seed(w.data());
}

/// Client-side receive dispatch for legacy clients. A coalescing host
/// may ship several client frames as one Bundle; the dispatch unpacks
/// them like a socket read loop. The wire buffer is consumed in place
/// and recycled for the next sender.
void attach_legacy_dispatch(net::Fabric& fabric, sim::Node& node,
                            troxy_core::LegacyClient* client) {
    fabric.attach(node.id(), [client, network = &fabric.network(),
                              inner = std::vector<ByteView>()](
                                 sim::NodeId from, Bytes message) mutable {
        auto unwrapped = net::unwrap_view(message);
        if (unwrapped) {
            if (unwrapped->first == net::Channel::Bundle) {
                if (net::unbundle(unwrapped->second, inner)) {
                    for (const ByteView m : inner) {
                        auto u = net::unwrap_view(m);
                        if (u && u->first == net::Channel::Client) {
                            client->on_message(from, u->second);
                        }
                    }
                }
            } else if (unwrapped->first == net::Channel::Client) {
                client->on_message(from, unwrapped->second);
            }
        }
        network->recycle(std::move(message));
    });
}

}  // namespace

// ------------------------------------------------------------ ClusterBase

ClusterBase::ClusterBase(const ClusterOptions& options)
    : options_(options),
      sim_(options.seed, options.scheduler),
      network_(sim_),
      fabric_(sim_, network_),
      java_(sim::CostProfile::java()),
      native_(sim::CostProfile::native()) {
    sim::LinkSpec lan = sim::LinkSpec::lan();
    if (options.lan_jitter > 0) {
        lan.latency = sim::LatencyModel::normal(
            sim::microseconds(50) + options.lan_jitter / 4,
            options.lan_jitter, sim::microseconds(5));
    }
    network_.set_default_link(lan);
    if (options.transport.credit_window > 0) {
        network_.set_credit_window(options.transport.credit_window);
    }
}

sim::Node& ClusterBase::make_server_node(const std::string& name) {
    const sim::NodeId id = next_server_id_++;
    nodes_.push_back(std::make_unique<sim::Node>(sim_, id, name,
                                                 options_.replica_cores));
    // Each server is its own machine with four bonded NICs.
    network_.set_nic_group(id, static_cast<int>(id),
                           options_.replica_machine_bandwidth);
    // Loopback for co-located components (replica → its own Troxy voter).
    network_.set_link(id, id,
                      sim::LinkSpec{sim::LatencyModel::constant(
                                        sim::microseconds(1)),
                                    40e9});
    server_nodes_.push_back(id);
    return *nodes_.back();
}

sim::Node& ClusterBase::make_client_node(const std::string& name) {
    const sim::NodeId id = next_client_id_++;
    nodes_.push_back(
        std::make_unique<sim::Node>(sim_, id, name, options_.client_cores));

    // Pack clients onto the configured number of client machines.
    const int machine = 10'000 + (next_client_machine_++ %
                                  std::max(1, options_.client_machines));
    network_.set_nic_group(id, machine, options_.client_machine_bandwidth);

    if (options_.wan_clients) {
        for (const sim::NodeId server : server_nodes_) {
            network_.set_link_bidirectional(id, server, sim::LinkSpec::wan());
        }
    }
    return *nodes_.back();
}

troxy_core::LegacyClient& ClusterBase::add_legacy_client(
    std::vector<std::unique_ptr<troxy_core::LegacyClient>>& clients,
    sim::NodeId server, const crypto::X25519Key& key) {
    sim::Node& node =
        make_client_node("client" + std::to_string(clients.size()));
    clients.push_back(std::make_unique<troxy_core::LegacyClient>(
        fabric_, node, std::vector<sim::NodeId>{server},
        std::vector<crypto::X25519Key>{key}, java_,
        troxy_core::LegacyClient::Options{}));
    attach_legacy_dispatch(fabric_, node, clients.back().get());
    return *clients.back();
}

// ----------------------------------------------------------- TroxyCluster

TroxyCluster::TroxyCluster(Params params) : ClusterBase(params.base) {
    service_factory_ = params.service;
    client_options_ = params.client;
    const int shards = options_.shard_count;
    const int n = 2 * options_.f + 1;
    if (shards < 1) {
        throw std::invalid_argument(
            "TroxyCluster: shard_count must be at least 1, got " +
            std::to_string(shards));
    }
    if (options_.front_count < 1) {
        throw std::invalid_argument(
            "TroxyCluster: front_count must be at least 1, got " +
            std::to_string(options_.front_count));
    }
    if (options_.front_count > 1 && shards == 1) {
        throw std::invalid_argument(
            "TroxyCluster: front_count > 1 needs a sharded "
            "deployment (shard_count > 1) — unsharded clients contact "
            "the replicas directly");
    }
    if (options_.replica_budget > 0 &&
        shards * n > options_.replica_budget) {
        throw std::invalid_argument(
            "TroxyCluster: " + std::to_string(shards) +
            " shards x " + std::to_string(n) + " replicas (f=" +
            std::to_string(options_.f) + ") = " +
            std::to_string(shards * n) +
            " replicas exceed the replica budget of " +
            std::to_string(options_.replica_budget));
    }
    if (shards > 1) {
        if (params.map.shard_count() != shards) {
            throw std::invalid_argument(
                "TroxyCluster: shard map describes " +
                std::to_string(params.map.shard_count()) +
                " shards but shard_count is " + std::to_string(shards));
        }
        params.map.validate();
    } else {
        // Single shard: the whole key space, whatever map was passed.
        params.map = troxy_core::ShardMap();
    }
    map_ = std::move(params.map);

    groups_.reserve(static_cast<std::size_t>(shards));
    for (int s = 0; s < shards; ++s) {
        build_group(s, params);
    }

    if (shards > 1) {
        const int fronts = options_.front_count;
        front_map_ = troxy_core::FrontMap(fronts);
        for (int f = 0; f < fronts; ++f) {
            // A single-front deployment keeps the pre-multi-front node
            // name and identity seed so it replays bit-identically.
            const std::string name =
                fronts == 1 ? "front" : "front" + std::to_string(f);
            sim::Node& front_node = make_server_node(name);
            front_identities_.push_back(
                identity_for(options_.seed, 9000 + f));
            std::vector<troxy_core::ShardFrontHost::Backend> backends;
            backends.reserve(groups_.size());
            for (Group& group : groups_) {
                troxy_core::ShardFrontHost::Backend backend;
                for (int i = 0; i < n; ++i) {
                    backend.servers.push_back(
                        group.config.node_of(
                            static_cast<std::uint32_t>(i)));
                    backend.pinned_keys.push_back(
                        group.identities[static_cast<std::size_t>(i)]
                            .public_key);
                }
                backends.push_back(std::move(backend));
            }
            fronts_.push_back(
                std::make_unique<troxy_core::ShardFrontHost>(
                    fabric_, front_node, map_, std::move(backends),
                    front_identities_.back(), params.classifier, native_,
                    params.front));
            fronts_.back()->attach();
            fronts_.back()->start();
        }
    }
}

void TroxyCluster::build_group(int shard, const Params& params) {
    const int n = 2 * options_.f + 1;
    // Shard 0 runs on the base seed, so an unsharded deployment keeps
    // the seed's key material; further shards derive disjoint key
    // material from a fixed stride.
    const std::uint64_t group_seed =
        options_.seed + static_cast<std::uint64_t>(shard) * 1000003;
    Group group;
    static_cast<hybster::PipelineOptions&>(group.config) = options_;
    group.config.f = options_.f;
    group.config.checkpoint_interval = options_.checkpoint_interval;
    group.config.shard_id = shard;
    group.config.shard_count = options_.shard_count;
    const std::size_t node_base = nodes_.size();
    for (int i = 0; i < n; ++i) {
        const std::string name =
            options_.shard_count == 1
                ? "replica" + std::to_string(i)
                : "s" + std::to_string(shard) + "r" + std::to_string(i);
        group.config.replicas.push_back(make_server_node(name).id());
    }
    group.config.validate();

    auto provisioned = provision_trinx(n, group_seed);
    troxy_core::TroxyReplicaHost::Options host_options = params.host;
    host_options.troxy.inside_enclave = !params.ctroxy;
    host_options.authority = provisioned.authority;
    host_options.measurement = provisioned.measurement;

    for (int i = 0; i < n; ++i) {
        group.identities.push_back(identity_for(group_seed, i));
        group.hosts.push_back(
            std::make_unique<troxy_core::TroxyReplicaHost>(
                fabric_, *nodes_[node_base + static_cast<std::size_t>(i)],
                group.config, static_cast<std::uint32_t>(i),
                params.service(),
                provisioned.trinx[static_cast<std::size_t>(i)],
                group.identities.back(), params.classifier, java_,
                native_, host_options,
                group_seed + static_cast<std::uint64_t>(i)));
        group.hosts.back()->attach();
    }
    groups_.push_back(std::move(group));
}

troxy_core::LegacyClient& TroxyCluster::add_client(int contact) {
    sim::Node& node = make_client_node(
        "client" + std::to_string(clients_.size()));

    std::vector<sim::NodeId> servers;
    std::vector<crypto::X25519Key> keys;
    if (!fronts_.empty()) {
        // Sharded: the front tier is the transparent endpoint. The
        // consistent-hash ring picks this client's home front; the rest
        // of the ring walk is its failover list, so a dead front sends
        // the client to the next one (fronts are stateless, any front
        // serves any client).
        for (const int f : front_map_.failover_order(node.id())) {
            servers.push_back(
                fronts_[static_cast<std::size_t>(f)]->node().id());
            keys.push_back(
                front_identities_[static_cast<std::size_t>(f)]
                    .public_key);
        }
    } else {
        // Unsharded: the chosen (or next round-robin) contact replica
        // first, then the rest of the group as the failover list.
        const Group& group = groups_.front();
        if (contact < 0) {
            contact = next_contact_;
            next_contact_ = (next_contact_ + 1) % group.config.n();
        }
        for (int i = 0; i < group.config.n(); ++i) {
            const int replica = (contact + i) % group.config.n();
            servers.push_back(
                group.config.node_of(static_cast<std::uint32_t>(replica)));
            keys.push_back(
                group.identities[static_cast<std::size_t>(replica)]
                    .public_key);
        }
    }

    clients_.push_back(std::make_unique<troxy_core::LegacyClient>(
        fabric_, node, std::move(servers), std::move(keys), java_,
        client_options_));
    auto* client = clients_.back().get();
    attach_legacy_dispatch(fabric_, node, client);
    return *client;
}

void TroxyCluster::crash_host(int shard, int replica) {
    host(shard, replica).crash();
}

void TroxyCluster::restart_host(int shard, int replica) {
    host(shard, replica).restart(service_factory_());
}

void TroxyCluster::crash_front(int front) {
    fronts_.at(static_cast<std::size_t>(front))->crash();
}

void TroxyCluster::restart_front(int front) {
    fronts_.at(static_cast<std::size_t>(front))->restart();
}

// ------------------------------------------------------- BaselineGroup

std::vector<crypto::X25519Key> BaselineGroup::pinned_keys() const {
    std::vector<crypto::X25519Key> keys;
    for (const crypto::X25519Keypair& identity : identities) {
        keys.push_back(identity.public_key);
    }
    return keys;
}

std::vector<Bytes> BaselineGroup::client_keys(sim::NodeId client) const {
    std::vector<Bytes> keys;
    for (int i = 0; i < config.n(); ++i) {
        keys.push_back(hybster::client_replica_key(
            client_master, client, static_cast<std::uint32_t>(i)));
    }
    return keys;
}

BaselineGroup ClusterBase::build_baseline_group(
    bool pbft, const hybster::ServiceFactory& service,
    const std::string& name) {
    if (options_.coalesce_wire ||
        options_.transport != sim::TransportProfile::none()) {
        throw std::invalid_argument(
            "BaselineReplicaHost groups support neither coalesce_wire nor a "
            "transport profile");
    }
    BaselineGroup group;
    static_cast<hybster::PipelineOptions&>(group.config) = options_;
    group.config.f = options_.f;
    group.config.checkpoint_interval = options_.checkpoint_interval;
    const int n = (pbft ? 3 : 2) * options_.f + 1;
    std::vector<sim::Node*> nodes;
    for (int i = 0; i < n; ++i) {
        nodes.push_back(&make_server_node(name + std::to_string(i)));
        group.config.replicas.push_back(nodes.back()->id());
    }
    group.config.validate(/*trusted_counters=*/!pbft);

    Writer master_seed;
    master_seed.u64(options_.seed);
    master_seed.str("client-master");
    group.client_master = crypto::hkdf({}, master_seed.data(),
                                       to_bytes("clients"), 32);

    // The hybrid group's trusted subsystems attest into one TrinX group;
    // the PBFT group shares pairwise link keys instead.
    std::vector<hybster::Certifier> certifiers;
    if (pbft) {
        Writer link_seed;
        link_seed.u64(options_.seed);
        link_seed.str("pbft-links");
        const Bytes link_master =
            crypto::hkdf({}, link_seed.data(), to_bytes("links"), 32);
        for (int i = 0; i < n; ++i) {
            std::vector<Bytes> links;
            for (int r = 0; r < n; ++r) {
                links.push_back(hybster::replica_link_key(
                    link_master, static_cast<std::uint32_t>(i),
                    static_cast<std::uint32_t>(r)));
            }
            certifiers.emplace_back(static_cast<std::uint32_t>(i),
                                    std::move(links));
        }
    } else {
        for (auto& trinx : provision_trinx(n, options_.seed).trinx) {
            certifiers.emplace_back(std::move(trinx));
        }
    }

    for (int i = 0; i < n; ++i) {
        group.identities.push_back(identity_for(options_.seed, i));
        const Bytes master = group.client_master;
        const auto replica_id = static_cast<std::uint32_t>(i);
        group.hosts.push_back(std::make_unique<baselines::BaselineReplicaHost>(
            fabric_, *nodes[static_cast<std::size_t>(i)], group.config,
            replica_id, service(),
            std::move(certifiers[static_cast<std::size_t>(i)]),
            group.identities.back(),
            [master, replica_id](sim::NodeId client) {
                return hybster::client_replica_key(master, client,
                                                   replica_id);
            },
            java_));
        group.hosts.back()->attach();
    }
    return group;
}

// -------------------------------------------------------- BaselineCluster

BaselineCluster::BaselineCluster(Params params)
    : ClusterBase(params.base),
      optimistic_reads_(params.optimistic_reads),
      client_retransmit_(params.client_retransmit) {
    group_ = build_baseline_group(/*pbft=*/false, params.service, "replica");
}

hybster::Client& BaselineCluster::add_client() {
    sim::Node& node = make_client_node(
        "client" + std::to_string(clients_.size()));

    hybster::Client::Options client_options;
    client_options.optimistic_reads = optimistic_reads_;
    client_options.retransmit_timeout = client_retransmit_;
    clients_.push_back(std::make_unique<hybster::Client>(
        fabric_, node, group_.config, group_.pinned_keys(),
        group_.client_keys(node.id()), java_, client_options));
    auto* client = clients_.back().get();
    fabric_.attach(node.id(), [client, network = &fabric_.network()](
                                  sim::NodeId from, Bytes message) {
        auto unwrapped = net::unwrap_view(message);
        if (unwrapped && unwrapped->first == net::Channel::Client) {
            client->on_message(from, unwrapped->second);
        }
        network->recycle(std::move(message));
    });
    return *client;
}

// -------------------------------------------------------- ProphecyCluster

ProphecyCluster::ProphecyCluster(Params params) : ClusterBase(params.base) {
    group_ = build_baseline_group(/*pbft=*/true, params.service, "pbft");

    // The middlebox machine sits next to the replicas (LAN links).
    sim::Node& mb_node = make_server_node("middlebox");
    middlebox_node_ = mb_node.id();
    middlebox_identity_ = identity_for(options_.seed, 1000);
    middlebox_ = std::make_unique<baselines::ProphecyMiddlebox>(
        fabric_, mb_node, group_.config, group_.pinned_keys(),
        group_.client_keys(middlebox_node_), middlebox_identity_,
        params.classifier, native_, params.middlebox, options_.seed);
    middlebox_->attach();
}

troxy_core::LegacyClient& ProphecyCluster::add_client() {
    return add_legacy_client(clients_, middlebox_node_,
                             middlebox_identity_.public_key);
}

// ------------------------------------------------------ StandaloneCluster

StandaloneCluster::StandaloneCluster(Params params)
    : ClusterBase(params.base) {
    sim::Node& node = make_server_node("server");
    server_node_ = node.id();
    identity_ = identity_for(options_.seed, 0);
    server_ = std::make_unique<http::StandaloneServer>(
        fabric_, node, params.service(), identity_, native_);
    server_->attach();
}

troxy_core::LegacyClient& StandaloneCluster::add_client() {
    return add_legacy_client(clients_, server_node_, identity_.public_key);
}

}  // namespace troxy::bench

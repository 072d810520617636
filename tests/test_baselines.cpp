// Baseline systems: the Hybster replica in its PBFT profile (3f+1, link-MAC
// authenticators, three phases) driven by the client-side BFT library, and
// the Prophecy middlebox sketch behaviour.
#include <gtest/gtest.h>

#include "apps/echo_service.hpp"
#include "bench_support/cluster.hpp"
#include "busy_reconnect.hpp"
#include "crypto/x25519.hpp"
#include "enclave/trinx.hpp"
#include "hybster/client.hpp"
#include "hybster/keys.hpp"
#include "http/http.hpp"
#include "http/page_service.hpp"
#include "net/envelope.hpp"

namespace troxy::baselines {
namespace {

using apps::EchoService;

// ------------------------------------------------------ PBFT profile config

TEST(PbftConfig, Validation) {
    hybster::Config config;
    config.f = 1;
    config.replicas = {1, 2, 3, 4};
    config.validate();
    config.validate(/*trusted_counters=*/false);
    EXPECT_EQ(config.quorum(), 3);        // prepare round 2f + the leader
    EXPECT_EQ(config.reply_quorum(), 2);  // f+1 matching replies
    // Link MACs need 3f+1 replicas and TrinX needs 2f+1: every other
    // pairing is rejected.
    EXPECT_DEATH(config.validate(/*trusted_counters=*/true), "TrinX");
    config.replicas = {1, 2, 3};
    EXPECT_EQ(config.quorum(), 2);
    EXPECT_DEATH(config.validate(/*trusted_counters=*/false), "link MACs");
    config.replicas = {1, 2, 3, 4, 5};
    EXPECT_DEATH(config.validate(), "3f\\+1");
}

// ------------------------------------------------- PBFT-profile replica set

/// Prophecy's replica group — four BaselineReplicaHosts in the PBFT
/// profile, from the deployments' shared builder — driven directly by one
/// hybster::Client. The tests invoke at t = 0, before the client's
/// handshakes finish; each request goes out as the channel it is
/// addressed to comes up.
struct PbftGroup : bench::ClusterBase {
    bench::BaselineGroup group;
    std::unique_ptr<hybster::Client> client;

    static bench::ClusterOptions options() {
        bench::ClusterOptions options;
        options.seed = 55;
        options.checkpoint_interval = 8;
        return options;
    }

    PbftGroup() : ClusterBase(options()) {
        group = build_baseline_group(
            /*pbft=*/true, [] { return std::make_unique<EchoService>(); },
            "p");
        sim::Node& node = make_client_node("client");
        client = std::make_unique<hybster::Client>(
            fabric_, node, group.config, group.pinned_keys(),
            group.client_keys(node.id()), java_, hybster::Client::Options{});
        fabric_.attach(node.id(), [this](sim::NodeId from, Bytes message) {
            auto unwrapped = net::unwrap_view(message);
            if (unwrapped && unwrapped->first == net::Channel::Client) {
                client->on_message(from, unwrapped->second);
            }
        });
        client->start(nullptr);
    }

    hybster::Replica& replica(int i) {
        return group.hosts.at(static_cast<std::size_t>(i))->replica();
    }
};

hybster::FaultProfile crashed() {
    hybster::FaultProfile crash;
    crash.crashed = true;
    return crash;
}

TEST(Pbft, OrdersAndVotes) {
    PbftGroup group;
    Bytes result;
    bool done = false;
    group.client->invoke(EchoService::make_write(1, 64), false,
                         [&](Bytes r) {
                             result = std::move(r);
                             done = true;
                         });
    group.simulator().run_until(sim::seconds(4));
    ASSERT_TRUE(done);
    EXPECT_EQ(result.size(), 10u);
    for (int r = 0; r < 4; ++r) {
        EXPECT_EQ(group.replica(r).last_executed(), 1u);
    }
}

TEST(Pbft, SequentialRequestsStayConsistent) {
    PbftGroup group;
    int done = 0;
    std::function<void(int)> loop = [&](int remaining) {
        if (remaining == 0) return;
        group.client->invoke(EchoService::make_write(remaining % 3, 64),
                             false, [&, remaining](Bytes) {
                                 ++done;
                                 loop(remaining - 1);
                             });
    };
    loop(12);
    group.simulator().run_until(sim::seconds(5));
    EXPECT_EQ(done, 12);
    const Bytes snapshot = group.replica(0).service().checkpoint();
    for (int r = 0; r < 4; ++r) {
        EXPECT_EQ(group.replica(r).service().checkpoint(), snapshot);
    }
}

TEST(Pbft, ReadOneExecutesWithoutOrdering) {
    PbftGroup group;
    bool done = false;
    group.client->invoke(EchoService::make_write(2, 64), false, [&](Bytes) {
        group.client->read_one(EchoService::make_read(2, 32, 128), 1,
                               [&](Bytes reply) {
                                   EXPECT_EQ(
                                       reply,
                                       EchoService::expected_read_reply(
                                           2, 1, 128));
                                   done = true;
                               });
    });
    group.simulator().run_until(sim::seconds(4));
    EXPECT_TRUE(done);
    EXPECT_EQ(group.replica(1).last_executed(), 1u);  // read not ordered
}

// An ordered request invoked before any handshake finishes leaves as the
// believed leader's channel comes up, not with the 2 s retransmit.
TEST(Pbft, RequestInvokedBeforeTheHandshakeCompletesPromptly) {
    PbftGroup group;
    sim::SimTime done_at = 0;
    group.client->invoke(EchoService::make_write(1, 64), false,
                         [&](Bytes) { done_at = group.simulator().now(); });
    group.simulator().run_until(sim::seconds(4));
    ASSERT_GT(done_at, 0u);
    EXPECT_LT(done_at, sim::milliseconds(100));
    for (int r = 0; r < 4; ++r) {
        EXPECT_EQ(group.replica(r).last_executed(), 1u);
    }
}

// A READ-ONE is never retransmitted: issued at t = 0, it must still reach
// its one replica once that channel comes up.
TEST(Pbft, ReadOneIssuedBeforeTheHandshakeGetsItsReply) {
    PbftGroup group;
    Bytes reply;
    group.client->read_one(EchoService::make_read(2, 32, 128), 1,
                           [&](Bytes r) { reply = std::move(r); });
    group.simulator().run_until(sim::seconds(1));
    EXPECT_EQ(reply, EchoService::expected_read_reply(2, 0, 128));
    EXPECT_EQ(group.replica(1).last_executed(), 0u);  // read not ordered
}

TEST(Pbft, ToleratesOneCrashedFollower) {
    PbftGroup group;
    group.replica(3).set_faults(crashed());

    bool done = false;
    group.client->invoke(EchoService::make_write(1, 64), false,
                         [&](Bytes) { done = true; });
    group.simulator().run_until(sim::seconds(4));
    EXPECT_TRUE(done);
}

TEST(Pbft, CorruptReplicaOutvoted) {
    PbftGroup group;
    hybster::FaultProfile corrupt;
    corrupt.corrupt_replies = true;
    group.replica(2).set_faults(corrupt);

    Bytes result;
    bool done = false;
    group.client->invoke(EchoService::make_write(3, 64), false,
                         [&](Bytes r) {
                             result = std::move(r);
                             done = true;
                         });
    group.simulator().run_until(sim::seconds(4));
    ASSERT_TRUE(done);
    // The corrupt replica's reply differs; the voted result is correct.
    EchoService reference;
    EXPECT_EQ(result, reference.execute(EchoService::make_write(3, 64)));
}

TEST(Pbft, ViewChangeOnCrashedLeader) {
    PbftGroup group;
    bool warm = false;
    group.client->invoke(EchoService::make_write(1, 64), false,
                         [&](Bytes) { warm = true; });
    group.simulator().run_until(sim::seconds(3));
    ASSERT_TRUE(warm);

    group.replica(0).set_faults(crashed());

    bool done = false;
    group.client->invoke(EchoService::make_write(2, 64), false,
                         [&](Bytes) { done = true; });
    group.simulator().run_until(sim::seconds(8));
    EXPECT_TRUE(done);
    EXPECT_GT(group.replica(1).view(), 0u);
}

TEST(Pbft, CommitWaitsForTwoFPlusOneReplicas) {
    // f = 1: with two of the four replicas down, the leader and one
    // follower are f+1 — enough for the hybrid rule, not for PBFT's.
    PbftGroup group;
    group.replica(2).set_faults(crashed());
    group.replica(3).set_faults(crashed());

    bool done = false;
    group.client->invoke(EchoService::make_write(1, 64), false,
                         [&](Bytes) { done = true; });
    group.simulator().run_until(sim::seconds(3));
    EXPECT_FALSE(done);
    EXPECT_EQ(group.replica(0).last_executed(), 0u);
    EXPECT_EQ(group.replica(1).last_executed(), 0u);

    // A third replica returns: 2f+1 are up and the write commits.
    group.replica(2).set_faults(hybster::FaultProfile{});
    group.simulator().run_until(sim::seconds(15));
    EXPECT_TRUE(done);
}

// The same stall escalates through one view change per timeout. Once the
// write commits, no replica keeps a ViewChange for a view it has reached:
// every one of them is discarded when the view is installed.
TEST(Pbft, InstalledViewDropsItsViewChanges) {
    PbftGroup group;
    group.replica(2).set_faults(crashed());
    group.replica(3).set_faults(crashed());
    bool done = false;
    group.client->invoke(EchoService::make_write(1, 64), false,
                         [&](Bytes) { done = true; });
    group.simulator().run_until(sim::seconds(3));
    ASSERT_FALSE(done);

    group.replica(2).set_faults(hybster::FaultProfile{});
    group.simulator().run_until(sim::seconds(15));
    ASSERT_TRUE(done);
    for (int r = 0; r < 3; ++r) {
        hybster::Replica& replica = group.replica(r);
        EXPECT_GT(replica.view(), 0u) << "replica " << r;
        EXPECT_EQ(replica.retained_view_changes(replica.view()), 0u)
            << "replica " << r << " in view " << replica.view();
    }
}

TEST(Pbft, LogIsBoundedByTheStableCheckpoint) {
    PbftGroup group;  // checkpoint every 8 requests
    int done = 0;
    std::function<void(int)> loop = [&](int remaining) {
        if (remaining == 0) return;
        group.client->invoke(EchoService::make_write(remaining % 5, 64),
                             false, [&, remaining](Bytes) {
                                 ++done;
                                 loop(remaining - 1);
                             });
    };
    loop(44);
    group.simulator().run_until(sim::seconds(10));
    ASSERT_EQ(done, 44);
    for (int r = 0; r < 4; ++r) {
        hybster::Replica& replica = group.replica(r);
        EXPECT_EQ(replica.last_executed(), 44u) << "replica " << r;
        EXPECT_EQ(replica.last_stable(), 40u) << "replica " << r;
        // Only the entries above the stable checkpoint stay.
        EXPECT_EQ(replica.log_size(), 4u) << "replica " << r;
        EXPECT_EQ(replica.retained_snapshots(), 1u) << "replica " << r;
    }
}

// ------------------------------------------------------- BL replica host

/// A hybrid BL group of three whose hosts count how often they derive a
/// client's pairwise key, driven by one hybster::Client.
struct KeyCountingGroup : bench::ClusterBase {
    hybster::Config config;
    std::vector<std::unique_ptr<BaselineReplicaHost>> hosts;
    std::unique_ptr<hybster::Client> client;
    Bytes master = to_bytes("key-counting-master");
    int derivations = 0;

    KeyCountingGroup() : ClusterBase(bench::ClusterOptions{}) {
        config.f = 1;
        std::vector<sim::Node*> nodes;
        for (int i = 0; i < 3; ++i) {
            nodes.push_back(&make_server_node("bl" + std::to_string(i)));
            config.replicas.push_back(nodes.back()->id());
        }
        std::vector<crypto::X25519Key> pinned;
        for (std::uint32_t i = 0; i < 3; ++i) {
            const crypto::X25519Keypair identity =
                crypto::x25519_keypair_from_seed(
                    to_bytes("bl-identity-" + std::to_string(i)));
            pinned.push_back(identity.public_key);
            hosts.push_back(std::make_unique<BaselineReplicaHost>(
                fabric_, *nodes[i], config, i,
                std::make_unique<EchoService>(),
                hybster::Certifier(std::make_shared<enclave::TrinX>(
                    i, to_bytes("key-counting-group"))),
                identity,
                [this, i](sim::NodeId client) {
                    ++derivations;
                    return hybster::client_replica_key(master, client, i);
                },
                java_));
            hosts.back()->attach();
        }
        sim::Node& node = make_client_node("client");
        std::vector<Bytes> keys;
        for (std::uint32_t i = 0; i < 3; ++i) {
            keys.push_back(hybster::client_replica_key(master, node.id(), i));
        }
        client = std::make_unique<hybster::Client>(
            fabric_, node, config, pinned, keys, java_,
            hybster::Client::Options{});
        fabric_.attach(node.id(), [this](sim::NodeId from, Bytes message) {
            auto unwrapped = net::unwrap_view(message);
            if (unwrapped && unwrapped->first == net::Channel::Client) {
                client->on_message(from, unwrapped->second);
            }
        });
        client->start(nullptr);
    }
};

TEST(BaselineHost, DerivesEachClientKeyOncePerReplica) {
    // Every request is verified and every reply authenticated under the
    // pairwise key, but each replica runs the derivation only the first
    // time it meets the client.
    KeyCountingGroup group;
    int done = 0;
    for (std::uint64_t key = 0; key < 10; ++key) {
        group.client->invoke(EchoService::make_write(key, 32), false,
                             [&](Bytes) { ++done; });
    }
    group.simulator().run_until(sim::seconds(4));
    EXPECT_EQ(done, 10);
    EXPECT_EQ(group.derivations, 3);
}

// ---------------------------------------------------------------- Prophecy

bench::ProphecyCluster::Params prophecy_params(std::uint64_t seed) {
    bench::ProphecyCluster::Params params;
    params.base.seed = seed;
    params.service = []() { return std::make_unique<http::PageService>(8); };
    params.classifier = http::PageService::classifier();
    return params;
}

TEST(Prophecy, SketchFastPathAfterFirstRead) {
    bench::ProphecyCluster cluster(prophecy_params(61));
    auto& client = cluster.add_client();

    int done = 0;
    std::function<void(int)> loop;
    loop = [&](int remaining) {
        if (remaining == 0) return;
        client.send(http::PageService::make_get(2),
                    [&, remaining](Bytes response) {
                        auto parsed = http::parse_response(response);
                        ASSERT_TRUE(parsed.has_value());
                        EXPECT_EQ(parsed->status, 200);
                        ++done;
                        loop(remaining - 1);
                    });
    };
    client.start([&]() { loop(6); });
    cluster.simulator().run_until(sim::seconds(10));
    ASSERT_EQ(done, 6);
    const auto& stats = cluster.middlebox().stats();
    EXPECT_EQ(stats.sketch_misses, 1u);  // only the first read
    EXPECT_GE(stats.fast_hits, 4u);
}

TEST(Prophecy, WriteLeavesSketchStaleThenRecovers) {
    bench::ProphecyCluster cluster(prophecy_params(62));
    auto& client = cluster.add_client();

    std::string final_body;
    bool done = false;
    client.start([&]() {
        client.send(http::PageService::make_get(1), [&](Bytes) {
            client.send(http::PageService::make_post(1, to_bytes("fresh")),
                        [&](Bytes) {
                            client.send(http::PageService::make_get(1),
                                        [&](Bytes response) {
                                            auto parsed =
                                                http::parse_response(
                                                    response);
                                            ASSERT_TRUE(parsed.has_value());
                                            final_body =
                                                to_string(parsed->body);
                                            done = true;
                                        });
                        });
    });
    });
    cluster.simulator().run_until(sim::seconds(10));
    ASSERT_TRUE(done);
    // The post-write read conflicts with the stale sketch, falls back to
    // an ordered read, and returns the fresh content (all replicas are
    // correct and caught up here).
    EXPECT_EQ(final_body, "fresh");
    EXPECT_GE(cluster.middlebox().stats().fast_conflicts, 1u);
}

TEST(Prophecy, BusyReconnectRepliesMatchTheirRequests) {
    // The middlebox's session table drops the replies of the session a
    // reconnect replaced; let into the new session's slots, they would
    // answer two of the five in-flight reads with another key's reply.
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        bench::ProphecyCluster::Params params;
        params.base.seed = seed;
        params.service = []() { return std::make_unique<EchoService>(); };
        params.classifier = [](ByteView request) {
            return EchoService().classify(request);
        };
        bench::ProphecyCluster cluster(std::move(params));
        auto& client = cluster.add_client();

        const test_support::BusyReconnect run =
            test_support::run_busy_reconnect(cluster.simulator(), client,
                                             /*writes=*/false);
        EXPECT_EQ(run.answered, 8) << "seed " << seed;
        for (std::uint64_t key = 0; key < 8; ++key) {
            const auto reply = run.replies.find(key);
            ASSERT_NE(reply, run.replies.end())
                << "seed " << seed << " key " << key;
            EXPECT_EQ(reply->second,
                      EchoService::expected_read_reply(key, 0, 64))
                << "seed " << seed << " key " << key;
        }
    }
}

TEST(Prophecy, SilentFastReadReplicaFallsBackToOrderedRead) {
    // A fast read that picks a crashed replica gets no READ-ONE reply;
    // after fast_read_timeout it is ordered instead of hanging forever.
    bench::ProphecyCluster::Params params;
    params.base.seed = 606;
    params.service = []() { return std::make_unique<http::PageService>(4); };
    params.classifier = http::PageService::classifier();
    bench::ProphecyCluster cluster(params);
    auto& client = cluster.add_client();

    int done = 0;
    std::function<void(int)> loop;
    loop = [&](int remaining) {
        if (remaining == 0) return;
        client.send(http::PageService::make_get(1),
                    [&, remaining](Bytes response) {
                        auto parsed = http::parse_response(response);
                        ASSERT_TRUE(parsed.has_value());
                        EXPECT_EQ(to_string(parsed->body),
                                  http::PageService::initial_content(1));
                        ++done;
                        loop(remaining - 1);
                    });
    };
    client.start([&]() {
        client.send(http::PageService::make_get(1), [&](Bytes) {
            client.send(http::PageService::make_get(1), [&](Bytes) {
                hybster::FaultProfile crash;
                crash.crashed = true;
                cluster.replica(3).set_faults(crash);  // not the leader
                loop(40);
            });
        });
    });
    cluster.simulator().run_until(sim::seconds(60));
    EXPECT_EQ(done, 40);
    const auto& stats = cluster.middlebox().stats();
    EXPECT_GE(stats.fast_timeouts, 1u);
    // Every read was released exactly once: the two warm-up reads plus
    // the 40, each by a fast hit or an ordered read.
    EXPECT_EQ(stats.fast_hits + stats.ordered, 42u);
}

}  // namespace
}  // namespace troxy::baselines

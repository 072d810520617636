// Baseline systems: PBFT replica group, PBFT client voting, and the
// Prophecy middlebox sketch behaviour.
#include <gtest/gtest.h>

#include "apps/echo_service.hpp"
#include "baselines/pbft.hpp"
#include "bench_support/cluster.hpp"
#include "busy_reconnect.hpp"
#include "http/http.hpp"
#include "http/page_service.hpp"
#include "net/envelope.hpp"

namespace troxy::baselines {
namespace {

using apps::EchoService;

// --------------------------------------------------------- PBFT wire layer

TEST(PbftFrames, SealOpenRoundTrip) {
    net::MacTable macs = net::MacTable::for_group(to_bytes("m"), {1, 2});
    enclave::CostMeter meter;
    enclave::CostedCrypto crypto(sim::CostProfile::java(), meter);

    const Bytes frame = pbft::seal_frame(crypto, macs, 1, 2,
                                         pbft::PbftType::Prepare,
                                         to_bytes("body"));
    const auto opened = pbft::open_frame(crypto, macs, 1, 2, frame);
    ASSERT_TRUE(opened.has_value());
    EXPECT_EQ(opened->first, pbft::PbftType::Prepare);
    EXPECT_EQ(opened->second, to_bytes("body"));
}

TEST(PbftFrames, RejectsTamperingAndWrongLink) {
    net::MacTable macs = net::MacTable::for_group(to_bytes("m"), {1, 2, 3});
    enclave::CostMeter meter;
    enclave::CostedCrypto crypto(sim::CostProfile::java(), meter);

    Bytes frame = pbft::seal_frame(crypto, macs, 1, 2,
                                   pbft::PbftType::Commit, to_bytes("b"));
    // Wrong destination.
    EXPECT_FALSE(pbft::open_frame(crypto, macs, 1, 3, frame).has_value());
    // Tampered body.
    frame[1] ^= 1;
    EXPECT_FALSE(pbft::open_frame(crypto, macs, 1, 2, frame).has_value());
    // Too short.
    EXPECT_FALSE(
        pbft::open_frame(crypto, macs, 1, 2, Bytes(10, 0)).has_value());
}

TEST(PbftConfig, Validation) {
    pbft::Config config;
    config.f = 1;
    config.replicas = {1, 2, 3, 4};
    config.validate();
    EXPECT_EQ(config.prepared_quorum(), 2);
    EXPECT_EQ(config.commit_quorum(), 3);
    EXPECT_EQ(config.reply_quorum(), 2);
}

// -------------------------------------------------------- PBFT replica set

struct PbftGroup {
    sim::Simulator sim{55};
    sim::Network network{sim};
    net::Fabric fabric{sim, network};
    pbft::Config config;
    std::shared_ptr<net::MacTable> macs;
    std::vector<std::unique_ptr<sim::Node>> nodes;
    std::vector<std::unique_ptr<pbft::PbftReplica>> replicas;
    std::unique_ptr<sim::Node> client_node;
    std::unique_ptr<pbft::PbftClient> client;
    sim::CostProfile profile = sim::CostProfile::java();

    PbftGroup() {
        config.f = 1;
        config.checkpoint_interval = 8;
        config.view_change_timeout = sim::milliseconds(200);
        for (int i = 0; i < 4; ++i) {
            config.replicas.push_back(static_cast<sim::NodeId>(i + 1));
        }
        std::vector<sim::NodeId> group = config.replicas;
        group.push_back(99);  // the client
        macs = std::make_shared<net::MacTable>(
            net::MacTable::for_group(to_bytes("pbft-test"), group));

        for (int i = 0; i < 4; ++i) {
            nodes.push_back(std::make_unique<sim::Node>(
                sim, config.replicas[static_cast<std::size_t>(i)],
                "p" + std::to_string(i), 4));
            replicas.push_back(std::make_unique<pbft::PbftReplica>(
                fabric, *nodes.back(), config,
                static_cast<std::uint32_t>(i),
                std::make_unique<EchoService>(), macs, profile));
            auto* replica = replicas.back().get();
            fabric.attach(config.replicas[static_cast<std::size_t>(i)],
                          [replica](sim::NodeId from, Bytes message) {
                              auto unwrapped = net::unwrap(message);
                              if (!unwrapped) return;
                              replica->on_message(from, unwrapped->second);
                          });
        }
        client_node = std::make_unique<sim::Node>(sim, 99, "client", 4);
        client = std::make_unique<pbft::PbftClient>(
            fabric, *client_node, config, macs, profile,
            sim::milliseconds(400));
        fabric.attach(99, [this](sim::NodeId from, Bytes message) {
            auto unwrapped = net::unwrap(message);
            if (!unwrapped) return;
            client->on_message(from, unwrapped->second);
        });
    }
};

TEST(Pbft, OrdersAndVotes) {
    PbftGroup group;
    Bytes result;
    bool done = false;
    group.client->invoke(EchoService::make_write(1, 64), false,
                         [&](Bytes r) {
                             result = std::move(r);
                             done = true;
                         });
    group.sim.run_until(sim::seconds(2));
    ASSERT_TRUE(done);
    EXPECT_EQ(result.size(), 10u);
    for (const auto& replica : group.replicas) {
        EXPECT_EQ(replica->last_executed(), 1u);
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
    group.sim.run_until(sim::seconds(5));
    EXPECT_EQ(done, 12);
    const Bytes snapshot = group.replicas[0]->service().checkpoint();
    for (const auto& replica : group.replicas) {
        EXPECT_EQ(replica->service().checkpoint(), snapshot);
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
    group.sim.run_until(sim::seconds(2));
    EXPECT_TRUE(done);
    EXPECT_EQ(group.replicas[1]->last_executed(), 1u);  // read not ordered
}

TEST(Pbft, ToleratesOneCrashedFollower) {
    PbftGroup group;
    hybster::FaultProfile crash;
    crash.crashed = true;
    group.replicas[3]->set_faults(crash);

    bool done = false;
    group.client->invoke(EchoService::make_write(1, 64), false,
                         [&](Bytes) { done = true; });
    group.sim.run_until(sim::seconds(2));
    EXPECT_TRUE(done);
}

TEST(Pbft, CorruptReplicaOutvoted) {
    PbftGroup group;
    hybster::FaultProfile corrupt;
    corrupt.corrupt_replies = true;
    group.replicas[2]->set_faults(corrupt);

    Bytes result;
    bool done = false;
    group.client->invoke(EchoService::make_write(3, 64), false,
                         [&](Bytes r) {
                             result = std::move(r);
                             done = true;
                         });
    group.sim.run_until(sim::seconds(2));
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
    group.sim.run_until(sim::seconds(1));
    ASSERT_TRUE(warm);

    hybster::FaultProfile crash;
    crash.crashed = true;
    group.replicas[0]->set_faults(crash);

    bool done = false;
    group.client->invoke(EchoService::make_write(2, 64), false,
                         [&](Bytes) { done = true; });
    group.sim.run_until(sim::seconds(6));
    EXPECT_TRUE(done);
    EXPECT_GT(group.replicas[1]->view(), 0u);
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

}  // namespace
}  // namespace troxy::baselines

// Fine-grained protocol-level tests: certificate validation corner cases,
// Byzantine message injection at the wire level, and parameterized
// sweeps over protocol knobs.
#include <gtest/gtest.h>

#include "apps/echo_service.hpp"
#include "bench_support/cluster.hpp"
#include "net/envelope.hpp"
#include "troxy/cache_messages.hpp"

namespace troxy {
namespace {

using apps::EchoService;

bench::TroxyCluster::Params make_params(std::uint64_t seed) {
    bench::TroxyCluster::Params params;
    params.base.seed = seed;
    params.service = []() { return std::make_unique<EchoService>(); };
    params.classifier = [](ByteView request) {
        return EchoService().classify(request);
    };
    return params;
}

/// Runs one write through the cluster and returns whether it completed.
bool one_write_completes(bench::TroxyCluster& cluster,
                         troxy_core::LegacyClient& client) {
    bool done = false;
    client.start([&]() {
        client.send(EchoService::make_write(1, 64),
                    [&](Bytes) { done = true; });
    });
    cluster.simulator().run_until(sim::seconds(10));
    return done;
}

// A garbage blob on every channel must be discarded by every component
// without any effect on a concurrently running request.
TEST(WireFuzz, GarbageOnEveryChannelIsDiscarded) {
    bench::TroxyCluster cluster(make_params(201));
    auto& client = cluster.add_client(0);

    Rng rng(77);
    for (const auto channel :
         {net::Channel::Hybster, net::Channel::Client,
          net::Channel::TroxyCache}) {
        for (int i = 0; i < 20; ++i) {
            Bytes junk(rng.next_below(64) + 1);
            for (auto& byte : junk) {
                byte = static_cast<std::uint8_t>(rng.next());
            }
            cluster.fabric().send(cluster.config().node_of(2),
                                  cluster.config().node_of(0),
                                  net::wrap(channel, junk));
        }
    }
    EXPECT_TRUE(one_write_completes(cluster, client));
}

// Truncations of every valid protocol message must be rejected, not
// crash a replica (decode robustness over the full message space).
TEST(WireFuzz, TruncatedRealMessagesRejected) {
    hybster::Request request;
    request.id = {9, 4};
    request.assign(to_bytes("payload"), 1);

    const Bytes wire = encode_message(hybster::Message(request));
    for (std::size_t cut = 0; cut < wire.size(); ++cut) {
        const auto decoded = hybster::decode_message(
            ByteView(wire.data(), cut));
        if (cut == wire.size()) continue;
        EXPECT_FALSE(decoded.has_value()) << "cut=" << cut;
    }

    troxy_core::CacheQuery query;
    query.state_key = "k";
    const Bytes cache_wire = encode_cache_message(&query, &query + 1);
    troxy_core::CacheBurst burst;
    for (std::size_t cut = 0; cut + 1 < cache_wire.size(); ++cut) {
        EXPECT_FALSE(troxy_core::decode_cache_burst(
            ByteView(cache_wire.data(), cut), burst));
    }
}

// A forged cache response (valid shape, bogus certificate) must neither
// complete nor corrupt a fast read.
TEST(WireFuzz, ForgedCacheResponseIgnored) {
    bench::TroxyCluster cluster(make_params(202));
    auto& client = cluster.add_client(0);

    Bytes read_reply;
    client.start([&]() {
        client.send(EchoService::make_write(2, 64), [&](Bytes) {
            client.send(EchoService::make_read(2, 32, 64), [&](Bytes) {
                // Next read will take the fast path; sneak in forged
                // responses claiming the entry differs.
                for (std::uint64_t q = 1; q <= 8; ++q) {
                    troxy_core::CacheResponse forged;
                    forged.responder = cluster.config().node_of(2);
                    forged.responder_replica = 2;
                    forged.query_id = q;
                    forged.has_entry = false;  // "mismatch"
                    cluster.fabric().send(
                        cluster.config().node_of(2),
                        cluster.config().node_of(0),
                        net::wrap(net::Channel::TroxyCache,
                                  encode_cache_message(&forged,
                                                       &forged + 1)));
                }
                client.send(EchoService::make_read(2, 32, 64),
                            [&](Bytes reply) {
                                read_reply = std::move(reply);
                            });
            });
        });
    });
    cluster.simulator().run_until(sim::seconds(10));
    EXPECT_EQ(read_reply, EchoService::expected_read_reply(2, 1, 64));
}

// A cache query from a node that is not a replica must be ignored (no
// response, no crash).
TEST(WireFuzz, CacheQueryFromOutsiderIgnored) {
    bench::TroxyCluster cluster(make_params(203));
    auto& client = cluster.add_client(0);

    troxy_core::CacheQuery query;
    query.requester = 4242;  // not a replica node
    query.query_id = 1;
    query.state_key = "k1";
    cluster.fabric().send(4242, cluster.config().node_of(1),
                          net::wrap(net::Channel::TroxyCache,
                                    encode_cache_message(&query,
                                                         &query + 1)));

    EXPECT_TRUE(one_write_completes(cluster, client));
}

// ------------------------- parameterized: checkpoint interval sweep ----

class CheckpointSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CheckpointSweep, LogStaysBoundedAndServiceCorrect) {
    bench::TroxyCluster::Params params = make_params(210 + GetParam());
    params.base.checkpoint_interval = GetParam();
    bench::TroxyCluster cluster(std::move(params));
    auto& client = cluster.add_client();

    constexpr int kWrites = 40;
    int done = 0;
    std::function<void(int)> loop;
    loop = [&](int remaining) {
        if (remaining == 0) return;
        client.send(EchoService::make_write(1, 48), [&, remaining](Bytes) {
            ++done;
            loop(remaining - 1);
        });
    };
    client.start([&]() { loop(kWrites); });
    cluster.simulator().run_until(sim::seconds(30));

    ASSERT_EQ(done, kWrites);
    for (int r = 0; r < cluster.n(); ++r) {
        EXPECT_EQ(cluster.host(r).replica().last_executed(),
                  static_cast<std::uint64_t>(kWrites));
        // The stable point advanced to the last full interval.
        EXPECT_GE(cluster.host(r).replica().last_stable(),
                  (kWrites / GetParam()) * GetParam() -
                      (kWrites % GetParam() == 0 ? GetParam() : 0));
    }
}

INSTANTIATE_TEST_SUITE_P(Intervals, CheckpointSweep,
                         ::testing::Values(4, 8, 16, 32));

// ------------------------- parameterized: cache capacity sweep ---------

class CacheCapacitySweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CacheCapacitySweep, TinyCachesStayCorrectJustSlower) {
    bench::TroxyCluster::Params params = make_params(220);
    params.host.troxy.cache_capacity_bytes = GetParam();
    bench::TroxyCluster cluster(std::move(params));
    auto& client = cluster.add_client(0);

    // Touch 8 keys twice; small caches will evict between rounds but
    // every reply must still be correct.
    int correct = 0;
    std::function<void(int)> loop;
    loop = [&](int step) {
        if (step == 16) return;
        const std::uint64_t key = static_cast<std::uint64_t>(step % 8);
        client.send(EchoService::make_read(key, 32, 128),
                    [&, key, step](Bytes reply) {
                        if (reply == EchoService::expected_read_reply(
                                         key, 0, 128)) {
                            ++correct;
                        }
                        loop(step + 1);
                    });
    };
    client.start([&]() { loop(0); });
    cluster.simulator().run_until(sim::seconds(20));
    EXPECT_EQ(correct, 16);
}

INSTANTIATE_TEST_SUITE_P(Capacities, CacheCapacitySweep,
                         ::testing::Values(512, 4096, 1u << 20));

// ------------------------- leader placement sweep ----------------------

class ContactSweep : public ::testing::TestWithParam<int> {};

TEST_P(ContactSweep, EveryContactReplicaWorks) {
    bench::TroxyCluster cluster(make_params(230));
    auto& client = cluster.add_client(GetParam());
    EXPECT_TRUE(one_write_completes(cluster, client));
}

INSTANTIATE_TEST_SUITE_P(Contacts, ContactSweep, ::testing::Values(0, 1, 2));

}  // namespace
}  // namespace troxy

// Edge cases across modules: boundary sizes, empty payloads, reconnect
// churn, EPC pressure, and failure-timing corners.
#include <gtest/gtest.h>

#include "apps/echo_service.hpp"
#include "apps/kv_service.hpp"
#include "bench_support/cluster.hpp"
#include "busy_reconnect.hpp"
#include "crypto/aead.hpp"
#include "net/secure_channel.hpp"

namespace troxy {
namespace {

using apps::EchoService;
using apps::KvService;

bench::TroxyCluster::Params make_params(std::uint64_t seed) {
    bench::TroxyCluster::Params params;
    params.base.seed = seed;
    params.service = []() { return std::make_unique<EchoService>(); };
    params.classifier = [](ByteView request) {
        return EchoService().classify(request);
    };
    return params;
}

// ------------------------------------------------------------ crypto edges

TEST(EdgeCases, AeadEmptyPlaintextAndAad) {
    crypto::ChaChaKey key{};
    key[31] = 9;
    crypto::ChaChaNonce nonce{};
    const Bytes sealed = crypto::aead_seal(key, nonce, {}, {});
    EXPECT_EQ(sealed.size(), crypto::kAeadTagSize);
    const auto opened = crypto::aead_open(key, nonce, {}, sealed);
    ASSERT_TRUE(opened.has_value());
    EXPECT_TRUE(opened->empty());
}

TEST(EdgeCases, AeadLargePayload) {
    crypto::ChaChaKey key{};
    key[0] = 1;
    crypto::ChaChaNonce nonce{};
    Bytes big(1 << 20, 0xab);  // 1 MiB
    const Bytes sealed = crypto::aead_seal(key, nonce, {}, big);
    const auto opened = crypto::aead_open(key, nonce, {}, sealed);
    ASSERT_TRUE(opened.has_value());
    EXPECT_EQ(*opened, big);
}

TEST(EdgeCases, SecureChannelEmptyRecord) {
    const crypto::X25519Keypair identity =
        crypto::x25519_keypair_from_seed(to_bytes("id"));
    net::SecureChannelClient client(identity.public_key, to_bytes("s"));
    net::SecureChannelServer server(identity);
    enclave::CostMeter meter;
    enclave::CostedCrypto crypto_ops(sim::CostProfile::native(), meter);
    auto hello = server.accept(crypto_ops, client.client_hello(),
                               to_bytes("seed"));
    ASSERT_TRUE(hello && client.finish(*hello));

    const auto delivered = server.unprotect(client.protect({}));
    ASSERT_EQ(delivered.size(), 1u);
    EXPECT_TRUE(delivered[0].empty());
}

// -------------------------------------------------------- service edges

TEST(EdgeCases, EchoZeroByteReply) {
    EchoService service;
    EXPECT_TRUE(service.execute(EchoService::make_read(1, 32, 0)).empty());
}

TEST(EdgeCases, EchoTinyRequestSmallerThanHeader) {
    // make_write clamps padding at zero; the request is still parseable.
    EchoService service;
    const Bytes request = EchoService::make_write(1, 4);
    EXPECT_FALSE(service.classify(request).is_read);
    EXPECT_EQ(service.execute(request).size(), 10u);
}

TEST(EdgeCases, KvEmptyKeyAndValue) {
    KvService service;
    service.execute(KvService::make_put("", ""));
    EXPECT_EQ(to_string(service.execute(KvService::make_get(""))), "");
    EXPECT_EQ(service.size(), 1u);
}

TEST(EdgeCases, KvLargeValue) {
    KvService service;
    const std::string value(64 * 1024, 'v');
    service.execute(KvService::make_put("big", value));
    EXPECT_EQ(to_string(service.execute(KvService::make_get("big"))), value);
}

// ----------------------------------------------------- cluster edge cases

TEST(EdgeCases, ZeroByteWriteThroughCluster) {
    bench::TroxyCluster::Params params;
    params.base.seed = 301;
    params.service = []() { return std::make_unique<KvService>(); };
    params.classifier = [](ByteView request) {
        return KvService().classify(request);
    };
    bench::TroxyCluster cluster(std::move(params));
    auto& client = cluster.add_client();

    bool done = false;
    client.start([&]() {
        client.send(KvService::make_put("k", ""), [&](Bytes) {
            client.send(KvService::make_get("k"), [&](Bytes value) {
                EXPECT_TRUE(value.empty());
                done = true;
            });
        });
    });
    cluster.simulator().run_until(sim::seconds(10));
    EXPECT_TRUE(done);
}

TEST(EdgeCases, ClientReconnectChurn) {
    bench::TroxyCluster cluster(make_params(302));
    auto& client = cluster.add_client(0);

    // The contact is dead before the client even connects; the first
    // handshake times out and the client fails over. Later the crashed
    // host recovers — traffic just keeps flowing elsewhere.
    hybster::FaultProfile crash;
    crash.crashed = true;
    cluster.host(0).set_faults(crash);

    int completed = 0;
    std::function<void(int)> loop;
    loop = [&](int remaining) {
        if (remaining == 0) return;
        client.send(EchoService::make_write(1, 48), [&, remaining](Bytes) {
            ++completed;
            loop(remaining - 1);
        });
    };
    client.start([&]() { loop(12); });

    cluster.simulator().after(sim::seconds(8), [&]() {
        cluster.host(0).set_faults(hybster::FaultProfile{});
    });

    cluster.simulator().run_until(sim::seconds(60));
    EXPECT_EQ(completed, 12);
    EXPECT_GE(client.failovers(), 1u);
}

/// The busy reconnect end to end through the Troxy: with one shard the
/// contact enclave's session table fences the old session, with two the
/// front's. The leaders hold an incomplete batch for 2 ms, so the new
/// Hello lands while the old session's requests are still being ordered
/// (unbatched, the contact would answer them before the Hello arrives and
/// the fence would have nothing to drop). Writes are acknowledged with
/// the key's new version; the retransmitted write executes after the old
/// session's copy, so its ack carries the key's final version.
void expect_busy_reconnect_matches(int shards, bool writes) {
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        bench::TroxyCluster::Params params = make_params(seed);
        params.base.shard_count = shards;
        params.base.batch_size_max = 16;
        params.base.batch_delay = sim::milliseconds(2);
        if (shards > 1) {
            params.map = troxy_core::ShardMap::split_evenly(
                {"k0", "k1", "k2", "k3", "k4", "k5", "k6", "k7"}, shards);
        }
        bench::TroxyCluster cluster(std::move(params));
        auto& client = cluster.add_client();

        const test_support::BusyReconnect run =
            test_support::run_busy_reconnect(cluster.simulator(), client,
                                             writes);
        EXPECT_EQ(run.outstanding_at_reconnect, 5u) << "seed " << seed;
        EXPECT_EQ(client.sessions(), 2u) << "seed " << seed;
        EXPECT_EQ(run.answered, 8) << "seed " << seed;
        for (std::uint64_t key = 0; key < 8; ++key) {
            const auto reply = run.replies.find(key);
            ASSERT_NE(reply, run.replies.end())
                << "seed " << seed << " key " << key;
            if (!writes || key < 3) {
                EXPECT_EQ(reply->second,
                          EchoService::expected_read_reply(key, 0, 64))
                    << "seed " << seed << " key " << key;
                continue;
            }
            const int shard =
                shards > 1 ? cluster.front()->map().shard_of(
                                 "k" + std::to_string(key))
                           : 0;
            const auto& service = static_cast<const EchoService&>(
                cluster.host(shard, 0).replica().service());
            Writer ack;
            ack.u8(1);
            ack.u64(service.version_of(key));
            ack.u8(0);
            EXPECT_EQ(reply->second, ack.data())
                << "seed " << seed << " key " << key;
        }
    }
}

TEST(EdgeCases, BusyReconnectThroughContactReads) {
    expect_busy_reconnect_matches(/*shards=*/1, /*writes=*/false);
}

TEST(EdgeCases, BusyReconnectThroughContactWrites) {
    expect_busy_reconnect_matches(/*shards=*/1, /*writes=*/true);
}

TEST(EdgeCases, BusyReconnectThroughFrontReads) {
    expect_busy_reconnect_matches(/*shards=*/2, /*writes=*/false);
}

TEST(EdgeCases, BusyReconnectThroughFrontWrites) {
    expect_busy_reconnect_matches(/*shards=*/2, /*writes=*/true);
}

TEST(EdgeCases, ManyKeysChurnCacheUnderEpcPressure) {
    // A cache far smaller than the working set: every read evicts; all
    // replies must stay correct and the EPC accounting must never go
    // negative (assertions inside would abort).
    bench::TroxyCluster::Params params = make_params(303);
    params.host.troxy.cache_capacity_bytes = 2048;
    bench::TroxyCluster cluster(std::move(params));
    auto& client = cluster.add_client(0);

    int correct = 0;
    std::function<void(int)> loop;
    loop = [&](int step) {
        if (step == 30) return;
        const auto key = static_cast<std::uint64_t>(step % 10);
        client.send(EchoService::make_read(key, 32, 200),
                    [&, key, step](Bytes reply) {
                        if (reply == EchoService::expected_read_reply(
                                         key, 0, 200)) {
                            ++correct;
                        }
                        loop(step + 1);
                    });
    };
    client.start([&]() { loop(0); });
    cluster.simulator().run_until(sim::seconds(30));
    EXPECT_EQ(correct, 30);
}

TEST(EdgeCases, TwoFaultsWithFTwo) {
    bench::TroxyCluster::Params params = make_params(304);
    params.base.f = 2;  // five replicas
    bench::TroxyCluster cluster(std::move(params));

    hybster::FaultProfile drop;
    drop.drop_replies = true;
    cluster.host(3).replica().set_faults(drop);
    hybster::FaultProfile corrupt;
    corrupt.corrupt_replies = true;
    cluster.host(4).replica().set_faults(corrupt);

    auto& client = cluster.add_client(0);
    Bytes reply;
    client.start([&]() {
        client.send(EchoService::make_write(1, 64), [&](Bytes) {
            client.send(EchoService::make_read(1, 32, 96),
                        [&](Bytes r) { reply = std::move(r); });
        });
    });
    cluster.simulator().run_until(sim::seconds(15));
    EXPECT_EQ(reply, EchoService::expected_read_reply(1, 1, 96));
}

TEST(EdgeCases, SequentialClientsShareNothing) {
    // A second client connecting later sees exactly the state the first
    // one left behind — including through the fast-read cache.
    bench::TroxyCluster cluster(make_params(305));
    auto& first = cluster.add_client(0);

    bool first_done = false;
    first.start([&]() {
        first.send(EchoService::make_write(6, 48),
                   [&](Bytes) { first_done = true; });
    });
    cluster.simulator().run_until(sim::seconds(5));
    ASSERT_TRUE(first_done);

    auto& second = cluster.add_client(0);
    Bytes reply;
    second.start([&]() {
        second.send(EchoService::make_read(6, 32, 64),
                    [&](Bytes r) { reply = std::move(r); });
    });
    cluster.simulator().run_until(sim::seconds(10));
    EXPECT_EQ(reply, EchoService::expected_read_reply(6, 1, 64));
}

}  // namespace
}  // namespace troxy

// Unit tests for the Troxy's trusted components: fast-read cache,
// miss-rate monitor, cache wire messages, and enclave-level behaviour.
#include <gtest/gtest.h>

#include <optional>

#include "apps/echo_service.hpp"
#include "apps/kv_service.hpp"
#include "bench_support/cluster.hpp"
#include "enclave/trinx.hpp"
#include "net/client_framing.hpp"
#include "net/envelope.hpp"
#include "net/secure_channel.hpp"
#include "troxy/cache.hpp"
#include "troxy/cache_messages.hpp"
#include "troxy/enclave.hpp"

namespace troxy::troxy_core {
namespace {

enclave::EnclaveGate make_gate() {
    return enclave::EnclaveGate("test", sim::EnclaveCosts::sgx_v1(), 16);
}

CacheEntry entry_of(std::string_view request, std::string_view result) {
    CacheEntry entry;
    entry.request_digest = crypto::sha256(to_bytes(request));
    entry.result = to_bytes(result);
    return entry;
}

// ------------------------------------------------------------------- cache

TEST(FastReadCache, PutGetInvalidate) {
    auto gate = make_gate();
    FastReadCache cache(gate, 1 << 20);

    EXPECT_EQ(cache.get("k1"), nullptr);
    cache.put("k1", entry_of("req", "result"));
    const CacheEntry* entry = cache.get("k1");
    ASSERT_NE(entry, nullptr);
    EXPECT_EQ(entry->result, to_bytes("result"));

    cache.invalidate("k1");
    EXPECT_EQ(cache.get("k1"), nullptr);
    EXPECT_EQ(cache.entries(), 0u);
}

TEST(FastReadCache, PutOverwrites) {
    auto gate = make_gate();
    FastReadCache cache(gate, 1 << 20);
    cache.put("k", entry_of("r1", "old"));
    cache.put("k", entry_of("r1", "new"));
    EXPECT_EQ(cache.entries(), 1u);
    EXPECT_EQ(cache.get("k")->result, to_bytes("new"));
}

TEST(FastReadCache, LruEvictionUnderCapacity) {
    auto gate = make_gate();
    FastReadCache cache(gate, 1250);  // fits roughly two entries

    cache.put("a", entry_of("ra", std::string(400, 'x')));
    cache.put("b", entry_of("rb", std::string(400, 'y')));
    ASSERT_EQ(cache.entries(), 2u);
    // Touch "a" so "b" becomes least recently used.
    EXPECT_NE(cache.get("a"), nullptr);
    cache.put("c", entry_of("rc", std::string(400, 'z')));

    EXPECT_NE(cache.get("a"), nullptr);
    EXPECT_EQ(cache.get("b"), nullptr);  // evicted
    EXPECT_NE(cache.get("c"), nullptr);
    EXPECT_LE(cache.bytes_used(), 1250u);
}

TEST(FastReadCache, ClearDropsEverythingAndReleasesEpc) {
    auto gate = make_gate();
    FastReadCache cache(gate, 1 << 20);
    cache.put("a", entry_of("r", "v"));
    cache.put("b", entry_of("r", "v"));
    const std::size_t allocated = gate.allocated_bytes();
    EXPECT_GT(allocated, 0u);
    cache.clear();
    EXPECT_EQ(cache.entries(), 0u);
    EXPECT_EQ(gate.allocated_bytes(), 0u);
}

TEST(FastReadCache, EpcAccountingTracksUsage) {
    auto gate = make_gate();
    FastReadCache cache(gate, 1 << 20);
    cache.put("k", entry_of("r", std::string(1000, 'v')));
    EXPECT_EQ(gate.allocated_bytes(), cache.bytes_used());
    cache.invalidate("k");
    EXPECT_EQ(gate.allocated_bytes(), 0u);
}

TEST(FastReadCache, FootprintShrinksOnSmallerOverwrite) {
    // Overwriting an entry with a smaller result must return the size
    // difference to the EPC accounting, not leak the old footprint.
    auto gate = make_gate();
    FastReadCache cache(gate, 1 << 20);
    cache.put("k", entry_of("r", std::string(1000, 'a')));
    const std::size_t big = cache.bytes_used();
    EXPECT_EQ(gate.allocated_bytes(), big);
    cache.put("k", entry_of("r", std::string(10, 'b')));
    EXPECT_EQ(cache.entries(), 1u);
    EXPECT_LT(cache.bytes_used(), big);
    EXPECT_EQ(gate.allocated_bytes(), cache.bytes_used());
}

TEST(FastReadCache, FootprintMatchesGateAfterEviction) {
    auto gate = make_gate();
    FastReadCache cache(gate, 1250);  // fits roughly two entries
    cache.put("a", entry_of("ra", std::string(400, 'x')));
    cache.put("b", entry_of("rb", std::string(400, 'y')));
    cache.put("c", entry_of("rc", std::string(400, 'z')));  // evicts "a"
    EXPECT_EQ(cache.get("a"), nullptr);
    EXPECT_LE(cache.bytes_used(), 1250u);
    EXPECT_EQ(gate.allocated_bytes(), cache.bytes_used());
}

// ----------------------------------------------------------------- monitor

TEST(MissRateMonitor, StartsInFastMode) {
    MissRateMonitor monitor({});
    EXPECT_TRUE(monitor.fast_path_enabled());
}

TEST(MissRateMonitor, SwitchesOffUnderSustainedMisses) {
    MissRateMonitor::Options options;
    options.miss_threshold = 0.5;
    options.window = 32;
    MissRateMonitor monitor(options);

    for (int i = 0; i < 64 && monitor.fast_path_enabled(); ++i) {
        monitor.record(true);
    }
    EXPECT_FALSE(monitor.fast_path_enabled());
    EXPECT_EQ(monitor.mode_switches(), 1u);
}

TEST(MissRateMonitor, StaysOnUnderLowMissRate) {
    MissRateMonitor::Options options;
    options.miss_threshold = 0.5;
    options.window = 32;
    MissRateMonitor monitor(options);

    Rng rng(4);
    for (int i = 0; i < 1000; ++i) {
        monitor.record(rng.next_below(100) < 10);  // 10% misses
    }
    EXPECT_TRUE(monitor.fast_path_enabled());
}

TEST(MissRateMonitor, ProbesAgainAfterCooldown) {
    MissRateMonitor::Options options;
    options.miss_threshold = 0.5;
    options.window = 16;
    options.cooldown = 10;
    MissRateMonitor monitor(options);

    for (int i = 0; i < 64 && monitor.fast_path_enabled(); ++i) {
        monitor.record(true);
    }
    ASSERT_FALSE(monitor.fast_path_enabled());
    for (int i = 0; i < 10; ++i) monitor.record_total_order();
    EXPECT_TRUE(monitor.fast_path_enabled());
    EXPECT_EQ(monitor.mode_switches(), 2u);
}

TEST(MissRateMonitor, NonAdaptiveNeverSwitches) {
    MissRateMonitor::Options options;
    options.adaptive = false;
    MissRateMonitor monitor(options);
    for (int i = 0; i < 200; ++i) monitor.record(true);
    EXPECT_TRUE(monitor.fast_path_enabled());
    EXPECT_EQ(monitor.mode_switches(), 0u);
}

// ---------------------------------------------------------- cache messages

TEST(CacheMessages, QueryRoundTrip) {
    CacheQuery query;
    query.requester = 42;
    query.query_id = 7;
    query.state_key = "k9";
    query.request_digest = crypto::sha256(to_bytes("req"));
    query.cert.fill(0xaa);

    const Bytes wire = encode_cache_message(CacheMessage(query));
    const auto decoded = decode_cache_message(wire);
    ASSERT_TRUE(decoded.has_value());
    const auto* out = std::get_if<CacheQuery>(&*decoded);
    ASSERT_NE(out, nullptr);
    EXPECT_EQ(out->requester, 42u);
    EXPECT_EQ(out->query_id, 7u);
    EXPECT_EQ(out->state_key, "k9");
    EXPECT_EQ(out->request_digest, query.request_digest);
}

TEST(CacheMessages, ResponseRoundTrip) {
    CacheResponse response;
    response.responder = 3;
    response.responder_replica = 1;
    response.query_id = 9;
    response.has_entry = true;
    response.result_digest = crypto::sha256(to_bytes("result"));

    const Bytes wire = encode_cache_message(CacheMessage(response));
    const auto decoded = decode_cache_message(wire);
    ASSERT_TRUE(decoded.has_value());
    const auto* out = std::get_if<CacheResponse>(&*decoded);
    ASSERT_NE(out, nullptr);
    EXPECT_TRUE(out->has_entry);
    EXPECT_EQ(out->result_digest, response.result_digest);
}

TEST(CacheMessages, MalformedRejected) {
    EXPECT_FALSE(decode_cache_message(Bytes{}).has_value());
    EXPECT_FALSE(decode_cache_message(Bytes{9, 1, 2}).has_value());
    Bytes truncated =
        encode_cache_message(CacheMessage(CacheQuery{}));
    truncated.resize(truncated.size() / 2);
    EXPECT_FALSE(decode_cache_message(truncated).has_value());
}

// ------------------------------------------------- enclave-level behaviour

bench::TroxyCluster::Params cluster_params(std::uint64_t seed) {
    bench::TroxyCluster::Params params;
    params.base.seed = seed;
    params.service = []() { return std::make_unique<apps::EchoService>(); };
    params.classifier = [](ByteView request) {
        return apps::EchoService().classify(request);
    };
    return params;
}

TEST(TroxyEnclave, EcallBudgetRespected) {
    // Drive a full workload and verify the interface stayed within the
    // paper's 16-ecall budget (ours is 10).
    bench::TroxyCluster cluster(cluster_params(31));
    auto& client = cluster.add_client(0);
    int done = 0;
    client.start([&]() {
        client.send(apps::EchoService::make_write(1, 64), [&](Bytes) {
            client.send(apps::EchoService::make_read(1, 32, 64),
                        [&](Bytes) { ++done; });
        });
    });
    cluster.simulator().run_until(sim::seconds(5));
    ASSERT_EQ(done, 1);
    for (int r = 0; r < cluster.n(); ++r) {
        EXPECT_LE(cluster.host(r).troxy().gate().distinct_ecalls(), 16u);
        EXPECT_GT(cluster.host(r).troxy().gate().transitions(), 0u);
    }
}

TEST(TroxyEnclave, CtroxyChargesJniNotSgxCosts) {
    bench::TroxyCluster::Params params = cluster_params(32);
    params.ctroxy = true;
    bench::TroxyCluster cluster(std::move(params));
    auto& client = cluster.add_client(0);
    bool done = false;
    client.start([&]() {
        client.send(apps::EchoService::make_write(1, 64),
                    [&](Bytes) { done = true; });
    });
    cluster.simulator().run_until(sim::seconds(5));
    ASSERT_TRUE(done);
    // ctroxy pays JNI call costs, strictly below the SGX transition cost,
    // and no EPC paging.
    const auto& costs = cluster.host(0).troxy().gate().costs();
    EXPECT_EQ(costs.ecall_transition_ns,
              sim::EnclaveCosts::jni_only().ecall_transition_ns);
    EXPECT_LT(costs.ecall_transition_ns,
              sim::EnclaveCosts::sgx_v1().ecall_transition_ns);
    EXPECT_EQ(costs.epc_limit_bytes, 0u);
}

TEST(TroxyEnclave, RestartLosesCacheButStaysSafe) {
    // §IV-B rollback attack: rebooting the enclave empties the cache;
    // subsequent reads are ordered and still correct.
    bench::TroxyCluster cluster(cluster_params(33));
    auto& client = cluster.add_client(0);

    int phase = 0;
    Bytes last_reply;
    client.start([&]() {
        client.send(apps::EchoService::make_write(1, 64), [&](Bytes) {
            client.send(apps::EchoService::make_read(1, 32, 128),
                        [&](Bytes) { phase = 1; });
        });
    });
    cluster.simulator().run_until(sim::seconds(5));
    ASSERT_EQ(phase, 1);

    cluster.host(0).troxy().restart();
    EXPECT_EQ(cluster.host(0).troxy().status().cache_entries, 0u);

    // The client's channel died with the restart; it reconnects via its
    // ordinary failover and the read still returns the correct value.
    client.send(apps::EchoService::make_read(1, 32, 128), [&](Bytes reply) {
        last_reply = std::move(reply);
        phase = 2;
    });
    cluster.simulator().run_until(sim::seconds(20));
    ASSERT_EQ(phase, 2);
    EXPECT_EQ(last_reply,
              apps::EchoService::expected_read_reply(1, 1, 128));
}

TEST(TroxyEnclave, StatusReportsProgress) {
    bench::TroxyCluster cluster(cluster_params(34));
    auto& client = cluster.add_client(0);
    int done = 0;
    std::function<void(int)> loop;
    loop = [&](int remaining) {
        if (remaining == 0) return;
        client.send(apps::EchoService::make_write(1, 64),
                    [&, remaining](Bytes) {
                        ++done;
                        loop(remaining - 1);
                    });
    };
    client.start([&]() { loop(5); });
    cluster.simulator().run_until(sim::seconds(5));
    ASSERT_EQ(done, 5);
    const auto status = cluster.host(0).troxy().status();
    EXPECT_EQ(status.ordered_requests, 5u);
    EXPECT_EQ(status.completed_votes, 5u);
    EXPECT_EQ(status.rejected_replies, 0u);
}

// ---------------------------------------------------------- batched voting

namespace {

/// Direct enclave rig: one Troxy enclave (replica 0) with a connected
/// legacy-client channel, plus standalone TrinX instances for the peer
/// replicas so tests can forge authenticated replies.
struct VotingRig {
    static constexpr sim::NodeId kHostNode = 1;
    static constexpr sim::NodeId kClientNode = 1000;

    hybster::Config config;
    sim::CostProfile profile = sim::CostProfile::native();
    std::shared_ptr<enclave::TrinX> local_trinx;
    std::vector<std::unique_ptr<enclave::TrinX>> peer_trinx;
    crypto::X25519Keypair identity =
        crypto::x25519_keypair_from_seed(to_bytes("voting-rig-server"));
    std::unique_ptr<TroxyEnclave> enclave;
    std::optional<net::SecureChannelClient> channel;
    enclave::CostMeter meter;

    explicit VotingRig(Classifier classifier = [](ByteView request) {
        return apps::EchoService().classify(request);
    }) {
        config.f = 1;
        for (int i = 0; i < 3; ++i) {
            config.replicas.push_back(static_cast<sim::NodeId>(i + 1));
        }
        const Bytes group_key = to_bytes("voting-rig-group-key");
        local_trinx = std::make_shared<enclave::TrinX>(0, group_key);
        for (std::uint32_t r = 1; r < 3; ++r) {
            peer_trinx.push_back(
                std::make_unique<enclave::TrinX>(r, group_key));
        }
        enclave = std::make_unique<TroxyEnclave>(
            kHostNode, 0, config, local_trinx, identity,
            std::move(classifier), profile, TroxyOptions{}, /*seed=*/7);

        channel.emplace(identity.public_key, to_bytes("client-seed"));
        auto actions = enclave->accept_connection(meter, kClientNode,
                                                  channel->client_hello());
        const auto hello = unframe(actions);
        EXPECT_TRUE(channel->finish(hello));
    }

    /// Extracts the client-frame payload of the single queued send.
    Bytes unframe(const TroxyActions& actions) {
        EXPECT_EQ(actions.sends.size(), 1u);
        const auto unwrapped = net::unwrap(actions.sends[0].second);
        EXPECT_TRUE(unwrapped.has_value());
        EXPECT_EQ(unwrapped->first, net::Channel::Client);
        const auto frame = net::unframe_client(unwrapped->second);
        EXPECT_TRUE(frame.has_value());
        return frame->second;
    }

    /// Sends one write through the channel; returns the ordered request.
    hybster::Request order_write(std::uint64_t key) {
        auto actions = enclave->handle_request(
            meter, kClientNode,
            channel->protect(apps::EchoService::make_write(key, 16)));
        EXPECT_EQ(actions.to_order.size(), 1u);
        return std::move(actions.to_order[0]);
    }

    /// Forges replica `r`'s authenticated reply for `request`.
    hybster::Reply make_reply(std::uint32_t r,
                              const hybster::Request& request) {
        enclave::CostedCrypto crypto_ops(profile, meter);
        hybster::Reply reply;
        reply.request_id = request.id;
        Bytes scratch;
        reply.request_digest = request.digest_with(crypto_ops, scratch);
        reply.result = to_bytes("ack-" + std::to_string(request.id.number));
        reply.replica = r;
        enclave::TrinX& signer =
            r == 0 ? *local_trinx : *peer_trinx[r - 1];
        reply.cert =
            signer.certify_independent(crypto_ops, reply.certified_view());
        return reply;
    }
};

}  // namespace

TEST(TroxyEnclave, BatchedVotingOneTransitionPerBurst) {
    VotingRig rig;
    std::vector<hybster::Request> ordered;
    for (std::uint64_t key = 0; key < 4; ++key) {
        ordered.push_back(rig.order_write(key));
    }

    // Eight replies (two sources x four requests) enter in ONE batch.
    std::vector<hybster::Reply> batch;
    for (const std::uint32_t r : {0u, 1u}) {
        for (const hybster::Request& request : ordered) {
            batch.push_back(rig.make_reply(r, request));
        }
    }
    const std::uint64_t before = rig.enclave->gate().transitions();
    auto actions = rig.enclave->handle_replies(rig.meter, std::move(batch));
    EXPECT_EQ(rig.enclave->gate().transitions(), before + 1);

    const auto status = rig.enclave->status();
    EXPECT_EQ(status.completed_votes, 4u);
    EXPECT_EQ(status.rejected_replies, 0u);
    EXPECT_EQ(status.reply_batches, 1u);
    EXPECT_EQ(status.batched_replies, 8u);
    EXPECT_EQ(actions.completed_votes.size(), 4u);

    // All four client replies left the enclave as ONE coalesced record,
    // and the channel delivers them in request order.
    const Bytes record = rig.unframe(actions);
    const auto replies = rig.channel->unprotect(record);
    ASSERT_EQ(replies.size(), 4u);
    for (std::size_t i = 0; i < replies.size(); ++i) {
        EXPECT_EQ(replies[i],
                  to_bytes("ack-" + std::to_string(ordered[i].id.number)));
    }
}

TEST(TroxyEnclave, BatchOfOneMatchesPerReplyEcall) {
    // A voter batch of one must be byte- and count-identical to the
    // unbatched handle_reply flow: one transition, one single-message
    // record the client channel decodes the same way.
    VotingRig rig;
    const hybster::Request request = rig.order_write(1);

    std::vector<hybster::Reply> batch;
    batch.push_back(rig.make_reply(0, request));
    auto first = rig.enclave->handle_replies(rig.meter, std::move(batch));
    EXPECT_TRUE(first.sends.empty());  // quorum not yet reached

    const std::uint64_t before = rig.enclave->gate().transitions();
    auto second =
        rig.enclave->handle_reply(rig.meter, rig.make_reply(1, request));
    EXPECT_EQ(rig.enclave->gate().transitions(), before + 1);
    const auto replies = rig.channel->unprotect(rig.unframe(second));
    ASSERT_EQ(replies.size(), 1u);
    EXPECT_EQ(replies[0], to_bytes("ack-" +
                                   std::to_string(request.id.number)));
}

TEST(TroxyEnclave, ByzantineReplyDoesNotPoisonBatch) {
    VotingRig rig;
    std::vector<hybster::Request> ordered;
    for (std::uint64_t key = 0; key < 4; ++key) {
        ordered.push_back(rig.order_write(key));
    }

    // Replica 1's reply for the FIRST request carries a corrupted
    // certificate; every other reply in the batch is honest. Replica 2
    // covers the gap for that request.
    std::vector<hybster::Reply> batch;
    for (const hybster::Request& request : ordered) {
        batch.push_back(rig.make_reply(0, request));
    }
    for (const hybster::Request& request : ordered) {
        hybster::Reply reply = rig.make_reply(1, request);
        if (request.id.number == ordered[0].id.number) {
            reply.cert[0] ^= 1;
        }
        batch.push_back(std::move(reply));
    }
    batch.push_back(rig.make_reply(2, ordered[0]));

    auto actions = rig.enclave->handle_replies(rig.meter, std::move(batch));
    const auto status = rig.enclave->status();
    // The bad certificate rejected exactly one reply and nothing else:
    // all four votes still completed within the same transition.
    EXPECT_EQ(status.rejected_replies, 1u);
    EXPECT_EQ(status.completed_votes, 4u);
    EXPECT_EQ(actions.completed_votes.size(), 4u);
    const auto replies = rig.channel->unprotect(rig.unframe(actions));
    EXPECT_EQ(replies.size(), 4u);
}

// ------------------------------------------------------ batched fast reads

namespace {

/// Two full enclaves — the contact (replica 0) with a connected legacy
/// client channel and one remote (replica 1) — wired back-to-back so
/// tests can drive the whole fast-read protocol without a simulator.
/// f = 1 over two replicas, so every fast read awaits exactly the one
/// remote and the query routing is deterministic.
struct FastReadRig {
    static constexpr sim::NodeId kContactNode = 1;
    static constexpr sim::NodeId kRemoteNode = 2;
    static constexpr sim::NodeId kClientNode = 1000;

    hybster::Config config;
    sim::CostProfile profile = sim::CostProfile::native();
    std::shared_ptr<enclave::TrinX> contact_trinx;
    std::shared_ptr<enclave::TrinX> remote_trinx;
    crypto::X25519Keypair identity =
        crypto::x25519_keypair_from_seed(to_bytes("fastread-rig-server"));
    std::unique_ptr<TroxyEnclave> contact;
    std::unique_ptr<TroxyEnclave> remote;
    std::optional<net::SecureChannelClient> channel;
    enclave::CostMeter meter;
    std::uint64_t next_number = 1;

    FastReadRig() {
        config.f = 1;
        config.replicas = {kContactNode, kRemoteNode};
        const Bytes group_key = to_bytes("fastread-rig-group-key");
        contact_trinx = std::make_shared<enclave::TrinX>(0, group_key);
        remote_trinx = std::make_shared<enclave::TrinX>(1, group_key);
        const Classifier classifier = [](ByteView request) {
            return apps::EchoService().classify(request);
        };
        contact = std::make_unique<TroxyEnclave>(
            kContactNode, 0, config, contact_trinx, identity, classifier,
            profile, TroxyOptions{}, /*seed=*/11);
        remote = std::make_unique<TroxyEnclave>(
            kRemoteNode, 1, config, remote_trinx,
            crypto::x25519_keypair_from_seed(to_bytes("fastread-rig-remote")),
            classifier, profile, TroxyOptions{}, /*seed=*/12);

        channel.emplace(identity.public_key, to_bytes("client-seed"));
        auto actions = contact->accept_connection(meter, kClientNode,
                                                  channel->client_hello());
        EXPECT_TRUE(channel->finish(unframe(actions)));
    }

    /// The ordered read request whose execution fills the caches.
    hybster::Request ordered_read(std::uint64_t key) {
        hybster::Request request;
        request.id.client = kContactNode;
        request.id.number = next_number++;
        request.flags |= hybster::Request::kFlagRead;
        request.payload = apps::EchoService::make_read(key, 32, 64);
        return request;
    }

    hybster::Reply executed(const hybster::Request& request,
                            std::string_view result, std::uint32_t replica) {
        hybster::Reply reply;
        reply.kind = hybster::Reply::Kind::Ordered;
        reply.request_id = request.id;
        reply.result = to_bytes(result);
        reply.replica = replica;
        return reply;
    }

    /// Executes the ordered read for `key` on both enclaves so both
    /// caches hold `result` — the state the real system reaches after the
    /// first ordered miss for a key.
    void warm(std::uint64_t key, std::string_view result) {
        const hybster::Request request = ordered_read(key);
        contact->authenticate_reply(meter, request,
                                    executed(request, result, 0));
        remote->authenticate_reply(meter, request,
                                   executed(request, result, 1));
    }

    /// Sends a read through the client channel; the warm cache makes the
    /// contact start a fast read and surface one query for the remote.
    CacheQuery start_read(std::uint64_t key) {
        auto actions = contact->handle_request(
            meter, kClientNode,
            channel->protect(apps::EchoService::make_read(key, 32, 64)));
        EXPECT_EQ(actions.cache_queries.size(), 1u);
        EXPECT_EQ(actions.cache_queries[0].first, kRemoteNode);
        return std::move(actions.cache_queries[0].second);
    }

    /// Extracts the client-frame payload of the single queued send.
    Bytes unframe(const TroxyActions& actions) {
        EXPECT_EQ(actions.sends.size(), 1u);
        const auto unwrapped = net::unwrap(actions.sends[0].second);
        EXPECT_TRUE(unwrapped.has_value());
        EXPECT_EQ(unwrapped->first, net::Channel::Client);
        const auto frame = net::unframe_client(unwrapped->second);
        EXPECT_TRUE(frame.has_value());
        return frame->second;
    }

    /// Decodes a queued send as a TroxyCache-channel message.
    CacheMessage decode_cache_send(
        const std::pair<sim::NodeId, Bytes>& send) {
        const auto unwrapped = net::unwrap(send.second);
        EXPECT_TRUE(unwrapped.has_value());
        EXPECT_EQ(unwrapped->first, net::Channel::TroxyCache);
        auto message = decode_cache_message(unwrapped->second);
        EXPECT_TRUE(message.has_value());
        return std::move(*message);
    }
};

}  // namespace

TEST(TroxyEnclave, BatchedFastReadOneTransitionPerStage) {
    FastReadRig rig;
    for (std::uint64_t key = 0; key < 4; ++key) {
        rig.warm(key, "value-" + std::to_string(key));
    }
    std::vector<CacheQuery> queries;
    for (std::uint64_t key = 0; key < 4; ++key) {
        queries.push_back(rig.start_read(key));
    }

    // Remote side: the whole burst is answered in ONE transition and the
    // four responses return as ONE CacheResponseBatch.
    const std::uint64_t remote_before = rig.remote->gate().transitions();
    auto remote_actions =
        rig.remote->handle_cache_queries(rig.meter, queries);
    EXPECT_EQ(rig.remote->gate().transitions(), remote_before + 1);
    ASSERT_EQ(remote_actions.sends.size(), 1u);
    EXPECT_EQ(remote_actions.sends[0].first, FastReadRig::kContactNode);
    auto message = rig.decode_cache_send(remote_actions.sends[0]);
    auto* batch = std::get_if<CacheResponseBatch>(&message);
    ASSERT_NE(batch, nullptr);
    ASSERT_EQ(batch->responses.size(), 4u);
    EXPECT_EQ(rig.remote->status().cache_query_batches, 1u);
    EXPECT_EQ(rig.remote->status().batched_cache_queries, 4u);

    // Contact side: the burst applies in ONE transition; all four fast
    // reads complete and release as ONE coalesced client record.
    const std::uint64_t contact_before = rig.contact->gate().transitions();
    auto contact_actions =
        rig.contact->handle_cache_responses(rig.meter, batch->responses);
    EXPECT_EQ(rig.contact->gate().transitions(), contact_before + 1);
    const auto status = rig.contact->status();
    EXPECT_EQ(status.fast_read_hits, 4u);
    EXPECT_EQ(status.fast_read_conflicts, 0u);
    EXPECT_EQ(status.cache_response_batches, 1u);
    EXPECT_EQ(status.batched_cache_responses, 4u);
    const auto replies =
        rig.channel->unprotect(rig.unframe(contact_actions));
    ASSERT_EQ(replies.size(), 4u);
    for (std::size_t i = 0; i < replies.size(); ++i) {
        EXPECT_EQ(replies[i], to_bytes("value-" + std::to_string(i)));
    }
}

TEST(TroxyEnclave, CacheBatchOfOneMatchesSinglePath) {
    // The batched entry points with a one-element burst must produce
    // byte-identical output to the single-message ecalls, so the host's
    // flush-of-one (which emits the plain wire form and dispatches the
    // single ecall) and a degenerate batch are interchangeable.
    FastReadRig single;
    FastReadRig batched;
    single.warm(1, "v1");
    batched.warm(1, "v1");
    const CacheQuery squery = single.start_read(1);
    const CacheQuery bquery = batched.start_read(1);

    // Remote side: a burst of one answers as a plain CacheResponse — the
    // same bytes the single ecall emits — in one transition either way.
    auto sresp = single.remote->handle_cache_query(single.meter, squery);
    auto bresp =
        batched.remote->handle_cache_queries(batched.meter, {bquery});
    ASSERT_EQ(sresp.sends.size(), 1u);
    ASSERT_EQ(bresp.sends.size(), 1u);
    EXPECT_EQ(sresp.sends[0], bresp.sends[0]);
    EXPECT_EQ(single.remote->gate().transitions(),
              batched.remote->gate().transitions());
    auto smessage = single.decode_cache_send(sresp.sends[0]);
    const auto* response = std::get_if<CacheResponse>(&smessage);
    ASSERT_NE(response, nullptr);

    // Contact side: applying the burst of one releases the same sealed
    // client record as the single-response ecall.
    auto sdone =
        single.contact->handle_cache_response(single.meter, *response);
    auto bdone =
        batched.contact->handle_cache_responses(batched.meter, {*response});
    ASSERT_EQ(sdone.sends.size(), 1u);
    ASSERT_EQ(bdone.sends.size(), 1u);
    EXPECT_EQ(sdone.sends[0], bdone.sends[0]);
    EXPECT_EQ(single.contact->status().fast_read_hits, 1u);
    EXPECT_EQ(batched.contact->status().fast_read_hits, 1u);
}

TEST(TroxyEnclave, AuthenticateRepliesOneTransitionSameCertificates) {
    FastReadRig rig;
    std::vector<hybster::Request> requests;
    std::vector<hybster::Reply> replies;
    std::vector<TroxyEnclave::ReplyAuth> batch;
    for (std::uint64_t key = 0; key < 4; ++key) {
        requests.push_back(rig.ordered_read(key));
        replies.push_back(rig.executed(requests.back(),
                                       "r" + std::to_string(key), 0));
    }
    for (std::size_t i = 0; i < requests.size(); ++i) {
        batch.push_back(TroxyEnclave::ReplyAuth{&requests[i], &replies[i]});
    }

    const std::uint64_t before = rig.contact->gate().transitions();
    const auto certs =
        rig.contact->authenticate_replies(rig.meter, batch);
    EXPECT_EQ(rig.contact->gate().transitions(), before + 1);
    ASSERT_EQ(certs.size(), 4u);
    EXPECT_EQ(rig.contact->status().reply_auth_batches, 1u);
    EXPECT_EQ(rig.contact->status().batch_authenticated_replies, 4u);
    // The batch certified the ordered reads, so the cache is warm now.
    EXPECT_EQ(rig.contact->status().cache_entries, 4u);

    // Every certificate in the batch verifies exactly like one produced
    // by the per-reply ecall (the running MAC changes cost, not bytes).
    enclave::CostedCrypto crypto(rig.profile, rig.meter);
    for (std::size_t i = 0; i < certs.size(); ++i) {
        EXPECT_TRUE(rig.remote_trinx->verify_independent(
            crypto, 0, replies[i].certified_view(), certs[i]));
    }
}

TEST(TroxyEnclave, AuthenticateBatchOfOneMatchesSinglePath) {
    // Cost parity, not just byte parity: a one-element batch charges the
    // exact same marshalled bytes and crypto work as authenticate_reply.
    FastReadRig single;
    FastReadRig batched;
    const hybster::Request srequest = single.ordered_read(5);
    const hybster::Request brequest = batched.ordered_read(5);
    const hybster::Reply sreply = single.executed(srequest, "r5", 0);
    const hybster::Reply breply = batched.executed(brequest, "r5", 0);

    enclave::CostMeter m_single;
    enclave::CostMeter m_batched;
    const auto cert =
        single.contact->authenticate_reply(m_single, srequest, sreply);
    const auto certs = batched.contact->authenticate_replies(
        m_batched, {TroxyEnclave::ReplyAuth{&brequest, &breply}});
    ASSERT_EQ(certs.size(), 1u);
    EXPECT_EQ(certs[0], cert);
    EXPECT_EQ(m_single.total(), m_batched.total());
    EXPECT_EQ(single.contact->gate().transitions(),
              batched.contact->gate().transitions());
}

TEST(TroxyEnclave, ByzantineCacheResponseFallsBackOnlyItself) {
    FastReadRig rig;
    for (std::uint64_t key = 0; key < 4; ++key) {
        rig.warm(key, "value-" + std::to_string(key));
    }
    // The remote's cache for the LAST key diverges (a stale or lying
    // replica): its correctly-certified response carries a mismatching
    // result digest. Last so the three earlier reads sit below the
    // conflicted connection slot and can release in order.
    {
        const hybster::Request request = rig.ordered_read(3);
        rig.remote->authenticate_reply(rig.meter, request,
                                       rig.executed(request, "stale", 1));
    }

    std::vector<CacheQuery> queries;
    for (std::uint64_t key = 0; key < 4; ++key) {
        queries.push_back(rig.start_read(key));
    }
    auto remote_actions =
        rig.remote->handle_cache_queries(rig.meter, queries);
    auto message = rig.decode_cache_send(remote_actions.sends[0]);
    auto* batch = std::get_if<CacheResponseBatch>(&message);
    ASSERT_NE(batch, nullptr);

    auto actions =
        rig.contact->handle_cache_responses(rig.meter, batch->responses);
    const auto status = rig.contact->status();
    // The mismatch conflicted exactly one fast read — the other three in
    // the same burst completed within the same transition.
    EXPECT_EQ(status.fast_read_conflicts, 1u);
    EXPECT_EQ(status.fast_read_hits, 3u);
    ASSERT_EQ(actions.to_order.size(), 1u);
    EXPECT_TRUE(actions.to_order[0].is_read());
    const auto replies = rig.channel->unprotect(rig.unframe(actions));
    ASSERT_EQ(replies.size(), 3u);
    for (std::size_t i = 0; i < replies.size(); ++i) {
        EXPECT_EQ(replies[i], to_bytes("value-" + std::to_string(i)));
    }
}

// ------------------------------------- batch invalidation / fallback burst

TEST(TroxyEnclave, FallbackBurstEntersOrderingPrebatched) {
    // Every fast read in the burst conflicts (the remote's cache diverged
    // on all four keys): instead of four independent ordering submissions
    // the whole burst surfaces as ONE pre-formed batch for
    // Replica::submit_prebatched.
    FastReadRig rig;
    for (std::uint64_t key = 0; key < 4; ++key) {
        const hybster::Request request = rig.ordered_read(key);
        rig.contact->authenticate_reply(rig.meter, request,
                                        rig.executed(request, "local", 0));
        rig.remote->authenticate_reply(rig.meter, request,
                                       rig.executed(request, "stale", 1));
    }
    std::vector<CacheQuery> queries;
    for (std::uint64_t key = 0; key < 4; ++key) {
        queries.push_back(rig.start_read(key));
    }
    auto remote_actions =
        rig.remote->handle_cache_queries(rig.meter, queries);
    auto message = rig.decode_cache_send(remote_actions.sends[0]);
    auto* batch = std::get_if<CacheResponseBatch>(&message);
    ASSERT_NE(batch, nullptr);

    auto actions =
        rig.contact->handle_cache_responses(rig.meter, batch->responses);
    const auto status = rig.contact->status();
    EXPECT_EQ(status.fast_read_conflicts, 4u);
    EXPECT_TRUE(actions.to_order.empty());
    ASSERT_EQ(actions.to_order_batch.size(), 4u);
    for (const hybster::Request& request : actions.to_order_batch) {
        EXPECT_TRUE(request.is_read());
    }
    EXPECT_EQ(status.fallback_prebatches, 1u);
    EXPECT_EQ(status.prebatched_fallbacks, 4u);
}

TEST(TroxyEnclave, ExecutedWriteBatchInvalidatesEachKeyOnce) {
    // Three writes to one key certified in a single batched transition:
    // the key drops from the cache once, the two repeat writers are
    // dedup savings.
    FastReadRig rig;
    std::vector<hybster::Request> requests;
    std::vector<hybster::Reply> replies;
    for (int i = 0; i < 3; ++i) {
        hybster::Request request;
        request.id.client = FastReadRig::kContactNode;
        request.id.number = rig.next_number++;
        request.payload = apps::EchoService::make_write(7, 16);
        requests.push_back(std::move(request));
    }
    for (const hybster::Request& request : requests) {
        replies.push_back(rig.executed(request, "ack", 0));
    }
    std::vector<TroxyEnclave::ReplyAuth> batch;
    for (std::size_t i = 0; i < requests.size(); ++i) {
        batch.push_back(TroxyEnclave::ReplyAuth{&requests[i], &replies[i]});
    }
    rig.contact->authenticate_replies(rig.meter, batch);
    const auto status = rig.contact->status();
    EXPECT_EQ(status.cache_invalidations, 1u);
    EXPECT_EQ(status.invalidations_saved, 2u);
}

TEST(TroxyEnclave, RepeatWriteAcrossTransitionsSkipsInvalidation) {
    // Cross-batch dedup: once a key is invalidated and nothing re-cached
    // it, later transitions' writes to it provably find no entry to drop
    // — the invalidation is skipped entirely. A read that re-fills the
    // cache re-arms the key.
    FastReadRig rig;
    auto write_once = [&]() {
        hybster::Request request;
        request.id.client = FastReadRig::kContactNode;
        request.id.number = rig.next_number++;
        request.payload = apps::EchoService::make_write(7, 16);
        const hybster::Reply reply = rig.executed(request, "ack", 0);
        rig.contact->authenticate_reply(rig.meter, request, reply);
    };

    write_once();  // first write: the key drops from the cache
    const auto first = rig.contact->status();
    EXPECT_EQ(first.invalidations_saved_cross_batch, 0u);

    write_once();  // separate transition, key still uncached: skipped
    write_once();
    const auto skipped = rig.contact->status();
    EXPECT_EQ(skipped.invalidations_saved_cross_batch, 2u);
    EXPECT_EQ(skipped.cache_invalidations, first.cache_invalidations);

    // An executed ordered read re-caches the key...
    hybster::Request read;
    read.id.client = FastReadRig::kContactNode;
    read.id.number = rig.next_number++;
    read.flags |= hybster::Request::kFlagRead;
    read.payload = apps::EchoService::make_read(7, 32, 64);
    rig.contact->authenticate_reply(rig.meter, read,
                                    rig.executed(read, "value", 0));

    // ...so the next write must invalidate for real again.
    write_once();
    const auto rearmed = rig.contact->status();
    EXPECT_EQ(rearmed.invalidations_saved_cross_batch, 2u);
    EXPECT_EQ(rearmed.cache_invalidations, skipped.cache_invalidations + 1);
}

TEST(TroxyEnclave, WriteReadWriteBatchLeavesNoStaleEntry) {
    // Regression: within one batched transition, a read between two
    // writes of the same key re-fills the cache; the second write must
    // invalidate AGAIN (the read re-arms the key in the dedup set) or a
    // stale entry survives the batch.
    auto run = [](bool trailing_write) {
        FastReadRig rig;
        std::vector<hybster::Request> requests;
        std::vector<hybster::Reply> replies;
        auto add = [&](bool read) {
            hybster::Request request;
            request.id.client = FastReadRig::kContactNode;
            request.id.number = rig.next_number++;
            if (read) {
                request.flags |= hybster::Request::kFlagRead;
                request.payload = apps::EchoService::make_read(7, 32, 64);
            } else {
                request.payload = apps::EchoService::make_write(7, 16);
            }
            requests.push_back(std::move(request));
        };
        add(false);
        add(true);
        if (trailing_write) add(false);
        for (const hybster::Request& request : requests) {
            replies.push_back(rig.executed(
                request, request.is_read() ? "value" : "ack", 0));
        }
        std::vector<TroxyEnclave::ReplyAuth> batch;
        for (std::size_t i = 0; i < requests.size(); ++i) {
            batch.push_back(
                TroxyEnclave::ReplyAuth{&requests[i], &replies[i]});
        }
        rig.contact->authenticate_replies(rig.meter, batch);

        // A fresh client read of the key: a live cache entry starts a
        // fast read (cache query); an invalidated one falls back to
        // ordering.
        auto actions = rig.contact->handle_request(
            rig.meter, FastReadRig::kClientNode,
            rig.channel->protect(apps::EchoService::make_read(7, 32, 64)));
        return std::pair(actions.cache_queries.size(),
                         actions.to_order.size());
    };

    // write-read: the read's fresh entry is live, the follow-up read
    // fast-reads from it.
    const auto [wr_queries, wr_ordered] = run(false);
    EXPECT_EQ(wr_queries, 1u);
    EXPECT_EQ(wr_ordered, 0u);

    // write-read-write: the second write killed the read's entry; the
    // follow-up read must be ordered.
    const auto [wrw_queries, wrw_ordered] = run(true);
    EXPECT_EQ(wrw_queries, 0u);
    EXPECT_EQ(wrw_ordered, 1u);
}

TEST(TroxyEnclave, WriteSetGatesAndInvalidatesScanPartitions) {
    // KV coherence: an in-flight put("ab") gates fast reads on every
    // covering scan partition, and its completed vote invalidates them.
    VotingRig rig([](ByteView request) {
        return apps::KvService().classify(request);
    });

    // Warm the contact cache for the scan("a") partition via an executed
    // ordered scan.
    hybster::Request scan_request;
    scan_request.id.client = VotingRig::kHostNode;
    scan_request.id.number = 900;
    scan_request.flags |= hybster::Request::kFlagRead;
    scan_request.payload = apps::KvService::make_scan("a");
    hybster::Reply scan_reply;
    scan_reply.kind = hybster::Reply::Kind::Ordered;
    scan_reply.request_id = scan_request.id;
    scan_reply.result = to_bytes("scan-result");
    scan_reply.replica = 0;
    rig.enclave->authenticate_reply(rig.meter, scan_request, scan_reply);

    // Order a put whose write set covers "scan:a".
    auto put_actions = rig.enclave->handle_request(
        rig.meter, VotingRig::kClientNode,
        rig.channel->protect(apps::KvService::make_put("ab", "v")));
    ASSERT_EQ(put_actions.to_order.size(), 1u);
    const hybster::Request put = put_actions.to_order[0];

    // Despite the warm cache, the scan must be conservatively ordered
    // while the put is in flight — the gate works through the write-set
    // closure, not just the exact key.
    auto gated = rig.enclave->handle_request(
        rig.meter, VotingRig::kClientNode,
        rig.channel->protect(apps::KvService::make_scan("a")));
    EXPECT_TRUE(gated.cache_queries.empty());
    EXPECT_EQ(gated.to_order.size(), 1u);

    // Complete the put's vote: the whole write set (kv:ab + scan:"",
    // scan:a, scan:ab) is invalidated, each key once.
    const auto before = rig.enclave->status();
    auto vote_actions = rig.enclave->handle_replies(
        rig.meter, {rig.make_reply(0, put), rig.make_reply(1, put)});
    const auto after = rig.enclave->status();
    EXPECT_EQ(after.completed_votes, before.completed_votes + 1);
    EXPECT_EQ(after.cache_invalidations - before.cache_invalidations, 4u);
    EXPECT_EQ(after.invalidations_saved, before.invalidations_saved);
}

TEST(TroxyEnclave, LatencyTargetFlushesLoneFastReadImmediately) {
    // Under batched fast reads a lone query normally waits out the flush
    // delay; with the latency target on, a cold served-load EWMA predicts
    // the batch will never fill and the host flushes immediately,
    // recovering batch-1 latency at low load.
    auto fast_read_latency = [](bool latency_target) {
        bench::TroxyCluster::Params params = cluster_params(44);
        params.host.fastread_batch_max = 8;
        params.host.fastread_batch_delay = sim::milliseconds(5);
        params.host.fastread_latency_target = latency_target;
        bench::TroxyCluster cluster(std::move(params));
        auto& client = cluster.add_client(0);
        sim::SimTime start = 0;
        sim::SimTime done = 0;
        client.start([&]() {
            client.send(apps::EchoService::make_write(1, 64), [&](Bytes) {
                // The first read is ordered (cold caches) and warms every
                // replica; the second takes the fast path through the
                // batching host.
                client.send(
                    apps::EchoService::make_read(1, 32, 64), [&](Bytes) {
                        start = cluster.simulator().now();
                        client.send(apps::EchoService::make_read(1, 32, 64),
                                    [&](Bytes) {
                                        done = cluster.simulator().now();
                                    });
                    });
            });
        });
        cluster.simulator().run_until(sim::seconds(5));
        EXPECT_GT(done, start);
        return done - start;
    };
    const sim::Duration held = fast_read_latency(false);
    const sim::Duration immediate = fast_read_latency(true);
    EXPECT_GE(held, sim::milliseconds(5));
    EXPECT_LT(immediate, sim::milliseconds(2));
}

}  // namespace
}  // namespace troxy::troxy_core

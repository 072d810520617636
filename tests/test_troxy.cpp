// Unit tests for the Troxy's trusted components: fast-read cache,
// miss-rate monitor, cache wire messages, and enclave-level behaviour.
#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <new>
#include <optional>
#include <span>
#include <vector>

#include "apps/echo_service.hpp"
#include "apps/kv_service.hpp"
#include "bench_support/cluster.hpp"
#include "crypto/fastmode.hpp"
#include "enclave/trinx.hpp"
#include "net/client_framing.hpp"
#include "net/envelope.hpp"
#include "net/secure_channel.hpp"
#include "sim/pool.hpp"
#include "troxy/cache.hpp"
#include "troxy/cache_messages.hpp"
#include "troxy/enclave.hpp"

// Counts heap allocations while a test enables it (see test_codec.cpp).
namespace {
bool g_count_allocs = false;
std::uint64_t g_allocs = 0;
}  // namespace

void* operator new(std::size_t size) {
    if (g_count_allocs) ++g_allocs;
    if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
    throw std::bad_alloc();
}
// GCC pairs these frees with the operator new calls they inline into.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace troxy::troxy_core {
namespace {

/// Heap allocations made while running `body`.
template <typename Body>
std::uint64_t allocations_in(Body&& body) {
    g_allocs = 0;
    g_count_allocs = true;
    body();
    g_count_allocs = false;
    return g_allocs;
}

/// Fast crypto for the scope, as in the benchmarks: the reference AEAD
/// stages its MAC input in temporaries of its own, which allocation
/// counts must not see.
struct FastCryptoScope {
    FastCryptoScope() { crypto::set_fast_crypto(true); }
    ~FastCryptoScope() { crypto::set_fast_crypto(previous); }
    FastCryptoScope(const FastCryptoScope&) = delete;
    FastCryptoScope& operator=(const FastCryptoScope&) = delete;

    bool previous = crypto::fast_crypto();
};

/// Owning copies of the messages unprotect() delivered: its views borrow
/// the channel's buffers only until the channel's next call.
std::vector<Bytes> owned(std::span<const ByteView> messages) {
    std::vector<Bytes> out;
    for (const ByteView m : messages) out.emplace_back(m.begin(), m.end());
    return out;
}

enclave::EnclaveGate make_gate() {
    return enclave::EnclaveGate("test", sim::EnclaveCosts::sgx_v1(), 16);
}

/// Certifies one executed reply through the batched ecall, as a span of
/// one; returns the certificate it wrote into the reply.
enclave::Certificate authenticate_one(TroxyEnclave& troxy,
                                      enclave::CostMeter& meter,
                                      const hybster::Request& request,
                                      hybster::Reply reply) {
    hybster::ExecutedReply item{&request, std::move(reply)};
    troxy.authenticate_replies(meter, std::span(&item, 1));
    return item.reply.cert;
}

/// Caches `result` under `key` as the answer to `request`.
void put(FastReadCache& cache, std::string_view key, std::string_view request,
         std::string_view result) {
    const Bytes bytes = to_bytes(result);
    cache.put(key, crypto::sha256(to_bytes(request)), bytes,
              crypto::sha256(bytes));
}

// ------------------------------------------------------------------- cache

TEST(FastReadCache, PutGetInvalidate) {
    auto gate = make_gate();
    FastReadCache cache(gate, 1 << 20);

    EXPECT_EQ(cache.get("k1"), nullptr);
    put(cache, "k1", "req", "result");
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
    put(cache, "k", "r1", "old");
    put(cache, "k", "r1", "new");
    EXPECT_EQ(cache.entries(), 1u);
    EXPECT_EQ(cache.get("k")->result, to_bytes("new"));
}

TEST(FastReadCache, LruEvictionUnderCapacity) {
    auto gate = make_gate();
    FastReadCache cache(gate, 1250);  // fits roughly two entries

    put(cache, "a", "ra", std::string(400, 'x'));
    put(cache, "b", "rb", std::string(400, 'y'));
    ASSERT_EQ(cache.entries(), 2u);
    // Touch "a" so "b" becomes least recently used.
    EXPECT_NE(cache.get("a"), nullptr);
    put(cache, "c", "rc", std::string(400, 'z'));

    EXPECT_NE(cache.get("a"), nullptr);
    EXPECT_EQ(cache.get("b"), nullptr);  // evicted
    EXPECT_NE(cache.get("c"), nullptr);
    EXPECT_LE(cache.bytes_used(), 1250u);
}

TEST(FastReadCache, ClearDropsEverythingAndReleasesEpc) {
    auto gate = make_gate();
    FastReadCache cache(gate, 1 << 20);
    put(cache, "a", "r", "v");
    put(cache, "b", "r", "v");
    const std::size_t allocated = gate.allocated_bytes();
    EXPECT_GT(allocated, 0u);
    cache.clear();
    EXPECT_EQ(cache.entries(), 0u);
    EXPECT_EQ(gate.allocated_bytes(), 0u);
}

TEST(FastReadCache, EpcAccountingTracksUsage) {
    auto gate = make_gate();
    FastReadCache cache(gate, 1 << 20);
    put(cache, "k", "r", std::string(1000, 'v'));
    EXPECT_EQ(gate.allocated_bytes(), cache.bytes_used());
    cache.invalidate("k");
    EXPECT_EQ(gate.allocated_bytes(), 0u);
}

TEST(FastReadCache, FootprintShrinksOnSmallerOverwrite) {
    // Overwriting an entry with a smaller result must return the size
    // difference to the EPC accounting, not leak the old footprint.
    auto gate = make_gate();
    FastReadCache cache(gate, 1 << 20);
    put(cache, "k", "r", std::string(1000, 'a'));
    const std::size_t big = cache.bytes_used();
    EXPECT_EQ(gate.allocated_bytes(), big);
    put(cache, "k", "r", std::string(10, 'b'));
    EXPECT_EQ(cache.entries(), 1u);
    EXPECT_LT(cache.bytes_used(), big);
    EXPECT_EQ(gate.allocated_bytes(), cache.bytes_used());
}

// A key invalidated by a write and refilled by the next read reuses the
// slot's buffers: the warm refill allocates nothing.
TEST(FastReadCache, RefillAfterInvalidateAllocatesNothing) {
    auto gate = make_gate();
    FastReadCache cache(gate, 1 << 20);
    const crypto::Sha256Digest request = crypto::sha256(to_bytes("get k"));
    const Bytes first(64, 0x11);
    const Bytes second(64, 0x22);
    const crypto::Sha256Digest digest = crypto::sha256(second);
    cache.put("k", request, first, crypto::sha256(first));
    cache.invalidate("k");
    const std::uint64_t allocs =
        allocations_in([&] { cache.put("k", request, second, digest); });
    EXPECT_EQ(allocs, 0u);
    ASSERT_NE(cache.get("k"), nullptr);
    EXPECT_EQ(cache.get("k")->result, second);
    EXPECT_EQ(cache.get("k")->result_digest, digest);
    EXPECT_EQ(gate.allocated_bytes(), cache.bytes_used());
}

TEST(FastReadCache, FootprintMatchesGateAfterEviction) {
    auto gate = make_gate();
    FastReadCache cache(gate, 1250);  // fits roughly two entries
    put(cache, "a", "ra", std::string(400, 'x'));
    put(cache, "b", "rb", std::string(400, 'y'));
    put(cache, "c", "rc", std::string(400, 'z'));  // evicts "a"
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

    const Bytes wire = encode_cache_message(&query, &query + 1);
    CacheBurst burst;
    ASSERT_TRUE(decode_cache_burst(wire, burst));
    ASSERT_EQ(burst.queries.size(), 1u);
    EXPECT_TRUE(burst.responses.empty());
    const CacheQuery* out = &burst.queries[0];
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

    const Bytes wire = encode_cache_message(&response, &response + 1);
    CacheBurst burst;
    ASSERT_TRUE(decode_cache_burst(wire, burst));
    ASSERT_EQ(burst.responses.size(), 1u);
    EXPECT_TRUE(burst.queries.empty());
    const CacheResponse* out = &burst.responses[0];
    EXPECT_TRUE(out->has_entry);
    EXPECT_EQ(out->result_digest, response.result_digest);
}

TEST(CacheMessages, MalformedRejected) {
    CacheBurst burst;
    EXPECT_FALSE(decode_cache_burst(Bytes{}, burst));
    EXPECT_FALSE(decode_cache_burst(Bytes{9, 1, 2}, burst));
    const CacheQuery query;
    Bytes truncated = encode_cache_message(&query, &query + 1);
    truncated.resize(truncated.size() / 2);
    EXPECT_FALSE(decode_cache_burst(truncated, burst));
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
    // paper's 16-ecall budget (ours is 9).
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
        EXPECT_LE(cluster.host(r).troxy().gate().distinct_ecalls(), 9u);
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
    sim::BufferPool pool;
    std::shared_ptr<enclave::TrinX> local_trinx;
    std::vector<std::unique_ptr<enclave::TrinX>> peer_trinx;
    crypto::X25519Keypair identity =
        crypto::x25519_keypair_from_seed(to_bytes("voting-rig-server"));
    std::unique_ptr<TroxyEnclave> enclave;
    std::optional<net::SecureChannelClient> channel;
    enclave::CostMeter meter;

    explicit VotingRig(Classifier classifier =
                           [](ByteView request) {
                               return apps::EchoService().classify(request);
                           },
                       TroxyOptions options = {}) {
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
            std::move(classifier), profile, options, /*seed=*/7, pool);

        connect("client-seed");
    }

    /// (Re)connects the client: a second Hello from the same node
    /// replaces the enclave's session for it.
    void connect(std::string_view client_seed) {
        channel.emplace(identity.public_key, to_bytes(client_seed));
        auto actions = enclave->accept_connection(meter, kClientNode,
                                                  channel->client_hello());
        const auto hello = unframe(actions);
        EXPECT_TRUE(channel->finish(hello));
    }

    /// Every reply the client channel decodes from the queued sends.
    std::vector<Bytes> client_replies(const TroxyActions& actions) {
        std::vector<Bytes> replies;
        for (const auto& [to, bytes] : actions.sends) {
            EXPECT_EQ(to, kClientNode);
            const auto unwrapped = net::unwrap_view(bytes);
            EXPECT_TRUE(unwrapped.has_value());
            const auto frame = net::unframe_client(unwrapped->second);
            EXPECT_TRUE(frame.has_value());
            for (const ByteView reply : channel->unprotect(frame->second)) {
                replies.emplace_back(reply.begin(), reply.end());
            }
        }
        return replies;
    }

    /// Extracts the client-frame payload of the single queued send.
    Bytes unframe(const TroxyActions& actions) {
        EXPECT_EQ(actions.sends.size(), 1u);
        const auto unwrapped = net::unwrap_view(actions.sends[0].second);
        EXPECT_TRUE(unwrapped.has_value());
        EXPECT_EQ(unwrapped->first, net::Channel::Client);
        const auto frame = net::unframe_client(unwrapped->second);
        EXPECT_TRUE(frame.has_value());
        return Bytes(frame->second.begin(), frame->second.end());
    }

    /// Sends one write through the channel; returns the ordered request
    /// and hands the action set back, as the host does.
    hybster::Request order_write(std::uint64_t key) {
        auto actions = enclave->handle_request(
            meter, kClientNode,
            channel->protect(apps::EchoService::make_write(key, 16)));
        EXPECT_EQ(actions.to_order.size(), 1u);
        hybster::Request request = std::move(actions.to_order.at(0));
        enclave->recycle(std::move(actions));
        return request;
    }

    /// Votes one reply (a span of one).
    TroxyActions vote(hybster::Reply reply) {
        return enclave->handle_replies(meter, std::span(&reply, 1));
    }

    /// Forges replica `r`'s authenticated reply for `request`; the
    /// result defaults to "ack-<request number>".
    hybster::Reply make_reply(std::uint32_t r,
                              const hybster::Request& request,
                              std::optional<std::string> result = {}) {
        enclave::CostedCrypto crypto_ops(profile, meter);
        hybster::Reply reply;
        reply.request_id = request.id;
        Bytes scratch;
        reply.request_digest = request.digest_with(crypto_ops, scratch);
        reply.result = to_bytes(result.value_or(
            "ack-" + std::to_string(request.id.number)));
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
    auto actions = rig.enclave->handle_replies(rig.meter, batch);
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
    const auto replies = owned(rig.channel->unprotect(record));
    ASSERT_EQ(replies.size(), 4u);
    for (std::size_t i = 0; i < replies.size(); ++i) {
        EXPECT_EQ(replies[i],
                  to_bytes("ack-" + std::to_string(ordered[i].id.number)));
    }
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

    auto actions = rig.enclave->handle_replies(rig.meter, batch);
    const auto status = rig.enclave->status();
    // The bad certificate rejected exactly one reply and nothing else:
    // all four votes still completed within the same transition.
    EXPECT_EQ(status.rejected_replies, 1u);
    EXPECT_EQ(status.completed_votes, 4u);
    EXPECT_EQ(actions.completed_votes.size(), 4u);
    const auto replies = owned(rig.channel->unprotect(rig.unframe(actions)));
    EXPECT_EQ(replies.size(), 4u);
}

// The voter's tally semantics: one vote per replica, counted on its
// latest result; f+1 equal results complete the request.

TEST(TroxyEnclave, RepeatedReplyCountsOnce) {
    VotingRig rig;
    const hybster::Request request = rig.order_write(1);
    for (int repeat = 0; repeat < 3; ++repeat) {
        auto actions = rig.vote(rig.make_reply(0, request));
        EXPECT_TRUE(actions.sends.empty());
    }
    EXPECT_EQ(rig.enclave->status().completed_votes, 0u);

    auto actions = rig.vote(rig.make_reply(1, request));
    EXPECT_EQ(rig.enclave->status().completed_votes, 1u);
    EXPECT_EQ(rig.client_replies(actions),
              std::vector<Bytes>{to_bytes("ack-" +
                                          std::to_string(request.id.number))});
}

TEST(TroxyEnclave, SwitchedResultMovesTheVote) {
    VotingRig rig;
    const hybster::Request request = rig.order_write(1);
    rig.vote(rig.make_reply(0, request, "x"));
    rig.vote(rig.make_reply(0, request, "y"));
    // Replica 0 now votes "y" only: one "x" is no quorum.
    auto actions = rig.vote(rig.make_reply(1, request, "x"));
    EXPECT_TRUE(actions.sends.empty());
    EXPECT_EQ(rig.enclave->status().completed_votes, 0u);

    actions = rig.vote(rig.make_reply(2, request, "y"));
    EXPECT_EQ(rig.enclave->status().completed_votes, 1u);
    EXPECT_EQ(rig.client_replies(actions), std::vector<Bytes>{to_bytes("y")});
}

TEST(TroxyEnclave, DifferingResultsWaitForAMatchingReply) {
    VotingRig rig;
    const hybster::Request request = rig.order_write(1);
    // f+1 replies, but with different results: no quorum.
    std::vector<hybster::Reply> batch;
    batch.push_back(rig.make_reply(0, request, "a"));
    batch.push_back(rig.make_reply(1, request, "b"));
    auto actions = rig.enclave->handle_replies(rig.meter, batch);
    EXPECT_TRUE(actions.sends.empty());
    EXPECT_EQ(rig.enclave->status().completed_votes, 0u);
    EXPECT_EQ(rig.enclave->status().pending_votes, 1u);

    // A later reply matching either result completes the vote with it.
    actions = rig.vote(rig.make_reply(2, request, "b"));
    EXPECT_EQ(rig.enclave->status().completed_votes, 1u);
    EXPECT_EQ(rig.enclave->status().pending_votes, 0u);
    EXPECT_EQ(rig.client_replies(actions), std::vector<Bytes>{to_bytes("b")});
}

TEST(TroxyEnclave, FlippingReplicaReusesResultSlots) {
    // Replica 0 moves its vote through eight results of one size. Each
    // abandoned result frees its slot, so every flip after the first
    // copies into that slot without allocating.
    const FastCryptoScope fast;
    VotingRig rig;
    const hybster::Request request = rig.order_write(1);
    std::vector<hybster::Reply> flips;
    for (const char c : std::string_view("abcdefgh")) {
        flips.push_back(rig.make_reply(0, request, std::string(1, c)));
    }
    rig.enclave->recycle(rig.vote(flips[0]));
    const std::uint64_t allocs = allocations_in([&] {
        for (std::size_t i = 1; i < flips.size(); ++i) {
            rig.enclave->recycle(rig.enclave->handle_replies(
                rig.meter, std::span(flips).subspan(i, 1)));
        }
    });
    EXPECT_EQ(allocs, 0u);

    // Replica 0 now votes "h" only: one "g" is no quorum.
    auto actions = rig.vote(rig.make_reply(1, request, "g"));
    EXPECT_TRUE(actions.sends.empty());
    EXPECT_EQ(rig.enclave->status().completed_votes, 0u);
    actions = rig.vote(rig.make_reply(2, request, "h"));
    EXPECT_EQ(rig.enclave->status().completed_votes, 1u);
    EXPECT_EQ(rig.client_replies(actions), std::vector<Bytes>{to_bytes("h")});
}

TEST(VoterAllocations, SteadyStateVoteCopiesResultOnce) {
    // With every action set handed back, a warm voter allocates per
    // completed vote only the client record that seals it: no action
    // vectors, no per-vote tally storage, and its one copy of the result
    // goes into the plaintext buffer an earlier release left behind.
    const FastCryptoScope fast;
    VotingRig rig;
    constexpr std::uint64_t kWrites = 8;
    for (int round = 0; round < 3; ++round) {
        std::vector<hybster::Reply> replies;
        for (std::uint64_t key = 0; key < kWrites; ++key) {
            const hybster::Request request = rig.order_write(key);
            // One result size throughout: staging buffers reach their
            // final capacity in the warm-up round.
            replies.push_back(rig.make_reply(1, request, "written"));
            replies.push_back(rig.make_reply(2, request, "written"));
        }
        const std::uint64_t before = rig.enclave->status().completed_votes;
        const std::uint64_t allocs = allocations_in([&] {
            for (std::size_t i = 0; i < replies.size(); i += 2) {
                rig.enclave->recycle(rig.enclave->handle_replies(
                    rig.meter, std::span(replies).subspan(i, 2)));
            }
        });
        const std::uint64_t votes =
            rig.enclave->status().completed_votes - before;
        EXPECT_EQ(votes, kWrites);
        if (round == 0) continue;  // warm-up fills the spare lists
        EXPECT_LE(allocs, votes) << "round " << round;
    }
}

TEST(TroxyEnclave, ReconnectDropsRepliesOfTheReplacedSession) {
    // A client reconnects (second Hello from the same node) while an
    // ordered write and a fast read of its old session are in flight.
    // The new session starts its slot window at zero again; the old
    // requests' replies must not fill its slots.
    VotingRig rig;
    hybster::Request warm_read;
    warm_read.id.client = VotingRig::kHostNode;
    warm_read.id.number = 1000;
    warm_read.flags |= hybster::Request::kFlagRead;
    warm_read.assign(apps::EchoService::make_read(5, 32, 64));
    hybster::Reply warm_reply;
    warm_reply.kind = hybster::Reply::Kind::Ordered;
    warm_reply.request_id = warm_read.id;
    warm_reply.result = to_bytes("cached");
    authenticate_one(*rig.enclave, rig.meter, warm_read, warm_reply);

    const hybster::Request old_write = rig.order_write(1);
    auto read = rig.enclave->handle_request(
        rig.meter, VotingRig::kClientNode,
        rig.channel->protect(apps::EchoService::make_read(5, 32, 64)));
    ASSERT_EQ(read.arm_fast_read_timers.size(), 1u);

    rig.connect("client-seed-after-reconnect");
    const hybster::Request fresh = rig.order_write(3);

    // The old fast read falls back to ordering after the reconnect.
    auto fallback = rig.enclave->fast_read_timeout(
        rig.meter, read.arm_fast_read_timers[0]);
    ASSERT_EQ(fallback.to_order.size(), 1u);
    const hybster::Request old_read = fallback.to_order[0];

    // Old votes complete first: one a reply at a time, the rest in a
    // batch together with the new session's write.
    std::vector<Bytes> released;
    for (const std::uint32_t r : {0u, 1u}) {
        auto actions = rig.vote(rig.make_reply(r, old_write));
        for (Bytes& reply : rig.client_replies(actions)) {
            released.push_back(std::move(reply));
        }
    }
    std::vector<hybster::Reply> batch;
    for (const std::uint32_t r : {0u, 1u}) {
        batch.push_back(rig.make_reply(r, old_read));
        batch.push_back(rig.make_reply(r, fresh));
    }
    auto actions = rig.enclave->handle_replies(rig.meter, batch);
    for (Bytes& reply : rig.client_replies(actions)) {
        released.push_back(std::move(reply));
    }

    EXPECT_EQ(rig.enclave->status().completed_votes, 3u);
    EXPECT_EQ(released,
              std::vector<Bytes>{to_bytes(
                  "ack-" + std::to_string(fresh.id.number))});
    EXPECT_EQ(rig.enclave->status().stuck_replies, 0u);
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
    sim::BufferPool pool;
    std::shared_ptr<enclave::TrinX> contact_trinx;
    std::shared_ptr<enclave::TrinX> remote_trinx;
    crypto::X25519Keypair identity =
        crypto::x25519_keypair_from_seed(to_bytes("fastread-rig-server"));
    std::unique_ptr<TroxyEnclave> contact;
    std::unique_ptr<TroxyEnclave> remote;
    std::optional<net::SecureChannelClient> channel;
    enclave::CostMeter meter;
    std::uint64_t next_number = 1;

    explicit FastReadRig(TroxyOptions options = {}) {
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
            profile, options, /*seed=*/11, pool);
        remote = std::make_unique<TroxyEnclave>(
            kRemoteNode, 1, config, remote_trinx,
            crypto::x25519_keypair_from_seed(to_bytes("fastread-rig-remote")),
            classifier, profile, options, /*seed=*/12, pool);

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
        request.assign(apps::EchoService::make_read(key, 32, 64));
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
        authenticate_one(*contact, meter, request,
                                    executed(request, result, 0));
        authenticate_one(*remote, meter, request,
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
        const auto unwrapped = net::unwrap_view(actions.sends[0].second);
        EXPECT_TRUE(unwrapped.has_value());
        EXPECT_EQ(unwrapped->first, net::Channel::Client);
        const auto frame = net::unframe_client(unwrapped->second);
        EXPECT_TRUE(frame.has_value());
        return Bytes(frame->second.begin(), frame->second.end());
    }

    /// Decodes a queued send as a TroxyCache-channel message.
    CacheBurst decode_cache_send(const std::pair<sim::NodeId, Bytes>& send) {
        const auto unwrapped = net::unwrap_view(send.second);
        EXPECT_TRUE(unwrapped.has_value());
        EXPECT_EQ(unwrapped->first, net::Channel::TroxyCache);
        CacheBurst burst;
        EXPECT_TRUE(decode_cache_burst(unwrapped->second, burst));
        return burst;
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
    // four responses return as ONE response batch.
    const std::uint64_t remote_before = rig.remote->gate().transitions();
    auto remote_actions =
        rig.remote->handle_cache_queries(rig.meter, queries);
    EXPECT_EQ(rig.remote->gate().transitions(), remote_before + 1);
    ASSERT_EQ(remote_actions.sends.size(), 1u);
    EXPECT_EQ(remote_actions.sends[0].first, FastReadRig::kContactNode);
    const CacheBurst batch = rig.decode_cache_send(remote_actions.sends[0]);
    ASSERT_EQ(batch.responses.size(), 4u);
    EXPECT_EQ(rig.remote->status().cache_query_batches, 1u);
    EXPECT_EQ(rig.remote->status().batched_cache_queries, 4u);

    // Contact side: the burst applies in ONE transition; all four fast
    // reads complete and release as ONE coalesced client record.
    const std::uint64_t contact_before = rig.contact->gate().transitions();
    auto contact_actions =
        rig.contact->handle_cache_responses(rig.meter, batch.responses);
    EXPECT_EQ(rig.contact->gate().transitions(), contact_before + 1);
    const auto status = rig.contact->status();
    EXPECT_EQ(status.fast_read_hits, 4u);
    EXPECT_EQ(status.fast_read_conflicts, 0u);
    EXPECT_EQ(status.cache_response_batches, 1u);
    EXPECT_EQ(status.batched_cache_responses, 4u);
    const auto replies =
        owned(rig.channel->unprotect(rig.unframe(contact_actions)));
    ASSERT_EQ(replies.size(), 4u);
    for (std::size_t i = 0; i < replies.size(); ++i) {
        EXPECT_EQ(replies[i], to_bytes("value-" + std::to_string(i)));
    }
}

TEST(TroxyEnclave, AuthenticateRepliesOneTransitionSameCertificates) {
    FastReadRig rig;
    std::vector<hybster::Request> requests;
    for (std::uint64_t key = 0; key < 4; ++key) {
        requests.push_back(rig.ordered_read(key));
    }
    std::vector<hybster::ExecutedReply> batch;
    for (std::size_t i = 0; i < requests.size(); ++i) {
        batch.push_back({&requests[i], rig.executed(requests[i],
                                                    "r" + std::to_string(i),
                                                    0)});
    }

    const std::uint64_t before = rig.contact->gate().transitions();
    rig.contact->authenticate_replies(rig.meter, batch);
    EXPECT_EQ(rig.contact->gate().transitions(), before + 1);
    EXPECT_EQ(rig.contact->status().reply_auth_batches, 1u);
    EXPECT_EQ(rig.contact->status().batch_authenticated_replies, 4u);
    // The batch certified the ordered reads, so the cache is warm now.
    EXPECT_EQ(rig.contact->status().cache_entries, 4u);

    // Every certificate in the batch verifies exactly like one produced
    // alone (the running MAC changes cost, not bytes).
    enclave::CostedCrypto crypto(rig.profile, rig.meter);
    for (const hybster::ExecutedReply& item : batch) {
        EXPECT_TRUE(rig.remote_trinx->verify_independent(
            crypto, 0, item.reply.certified_view(), item.reply.cert));
    }
}

TEST(TroxyEnclave, SpanOfOneReproducesTheSingleItemGolden) {
    // A lone reply, executed reply, cache query or cache response goes
    // through the same ecall as a burst, as a span of one. The expected
    // values were recorded from the dedicated single-item ecalls this
    // interface replaced: meter total, transitions, and every byte sent
    // (count/size/sha256 prefix) or, for the certification, the
    // certificate. One nanosecond per marshalled byte makes a stray batch
    // header visible in the meter.
    TroxyOptions options;
    options.enclave_costs.param_copy_per_byte_ns = 1.0;
    auto sent = [](const TroxyActions& actions) {
        Bytes all;
        for (const auto& [to, bytes] : actions.sends) {
            all.push_back(static_cast<std::uint8_t>(to));
            all.insert(all.end(), bytes.begin(), bytes.end());
        }
        return std::to_string(actions.sends.size()) + "/" +
               std::to_string(all.size()) + "/" +
               hex_encode(crypto::sha256(all)).substr(0, 16);
    };

    {  // The reply that completes a vote.
        VotingRig rig(
            [](ByteView request) {
                return apps::EchoService().classify(request);
            },
            options);
        const hybster::Request request = rig.order_write(1);
        rig.vote(rig.make_reply(0, request));
        hybster::Reply reply = rig.make_reply(1, request);
        enclave::CostMeter meter;
        const std::uint64_t before = rig.enclave->gate().transitions();
        const auto actions =
            rig.enclave->handle_replies(meter, std::span(&reply, 1));
        EXPECT_EQ(meter.total(), 7495u);
        EXPECT_EQ(rig.enclave->gate().transitions() - before, 1u);
        EXPECT_EQ(sent(actions), "1/42/632a7623d9e2ec8d");
    }
    {  // An executed ordered read's certification.
        FastReadRig rig(options);
        const hybster::Request request = rig.ordered_read(5);
        enclave::CostMeter meter;
        const std::uint64_t before = rig.contact->gate().transitions();
        const enclave::Certificate cert = authenticate_one(
            *rig.contact, meter, request, rig.executed(request, "r5", 0));
        EXPECT_EQ(meter.total(), 7505u);
        EXPECT_EQ(rig.contact->gate().transitions() - before, 1u);
        EXPECT_EQ(hex_encode(cert),
                  "43fbdfa9038b85fab56ef4356bc4f307"
                  "5745de9a9a8f81749e8ad22fff2bc464");
    }
    {  // A plain-form cache query, then the response it produced.
        FastReadRig rig(options);
        rig.warm(1, "v1");
        const CacheQuery query = rig.start_read(1);
        enclave::CostMeter meter;
        std::uint64_t before = rig.remote->gate().transitions();
        const auto answered =
            rig.remote->handle_cache_queries(meter, std::span(&query, 1));
        EXPECT_EQ(meter.total(), 7857u);
        EXPECT_EQ(rig.remote->gate().transitions() - before, 1u);
        EXPECT_EQ(sent(answered), "1/116/8bda7eb34084b7b8");

        const CacheBurst message = rig.decode_cache_send(answered.sends[0]);
        ASSERT_EQ(message.responses.size(), 1u);
        enclave::CostMeter done_meter;
        before = rig.contact->gate().transitions();
        const auto done =
            rig.contact->handle_cache_responses(done_meter, message.responses);
        EXPECT_EQ(done_meter.total(), 7508u);
        EXPECT_EQ(rig.contact->gate().transitions() - before, 1u);
        EXPECT_EQ(sent(done), "1/39/4ae964bdfb09251d");
    }
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
        authenticate_one(*rig.remote, rig.meter, request,
                                       rig.executed(request, "stale", 1));
    }

    std::vector<CacheQuery> queries;
    for (std::uint64_t key = 0; key < 4; ++key) {
        queries.push_back(rig.start_read(key));
    }
    auto remote_actions =
        rig.remote->handle_cache_queries(rig.meter, queries);
    const CacheBurst batch = rig.decode_cache_send(remote_actions.sends[0]);
    ASSERT_EQ(batch.responses.size(), 4u);

    auto actions =
        rig.contact->handle_cache_responses(rig.meter, batch.responses);
    const auto status = rig.contact->status();
    // The mismatch conflicted exactly one fast read — the other three in
    // the same burst completed within the same transition.
    EXPECT_EQ(status.fast_read_conflicts, 1u);
    EXPECT_EQ(status.fast_read_hits, 3u);
    ASSERT_EQ(actions.to_order.size(), 1u);
    EXPECT_TRUE(actions.to_order[0].is_read());
    const auto replies = owned(rig.channel->unprotect(rig.unframe(actions)));
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
    // Replica::submit.
    FastReadRig rig;
    for (std::uint64_t key = 0; key < 4; ++key) {
        const hybster::Request request = rig.ordered_read(key);
        authenticate_one(*rig.contact, rig.meter, request,
                                        rig.executed(request, "local", 0));
        authenticate_one(*rig.remote, rig.meter, request,
                                       rig.executed(request, "stale", 1));
    }
    std::vector<CacheQuery> queries;
    for (std::uint64_t key = 0; key < 4; ++key) {
        queries.push_back(rig.start_read(key));
    }
    auto remote_actions =
        rig.remote->handle_cache_queries(rig.meter, queries);
    const CacheBurst batch = rig.decode_cache_send(remote_actions.sends[0]);
    ASSERT_EQ(batch.responses.size(), 4u);

    auto actions =
        rig.contact->handle_cache_responses(rig.meter, batch.responses);
    const auto status = rig.contact->status();
    EXPECT_EQ(status.fast_read_conflicts, 4u);
    EXPECT_TRUE(actions.to_order_preformed);
    ASSERT_EQ(actions.to_order.size(), 4u);
    for (const hybster::Request& request : actions.to_order) {
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
    for (int i = 0; i < 3; ++i) {
        hybster::Request request;
        request.id.client = FastReadRig::kContactNode;
        request.id.number = rig.next_number++;
        request.assign(apps::EchoService::make_write(7, 16));
        requests.push_back(std::move(request));
    }
    std::vector<hybster::ExecutedReply> batch;
    for (const hybster::Request& request : requests) {
        batch.push_back({&request, rig.executed(request, "ack", 0)});
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
        request.assign(apps::EchoService::make_write(7, 16));
        const hybster::Reply reply = rig.executed(request, "ack", 0);
        authenticate_one(*rig.contact, rig.meter, request, reply);
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
    read.assign(apps::EchoService::make_read(7, 32, 64));
    authenticate_one(*rig.contact, rig.meter, read,
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
        auto add = [&](bool read) {
            hybster::Request request;
            request.id.client = FastReadRig::kContactNode;
            request.id.number = rig.next_number++;
            if (read) {
                request.flags |= hybster::Request::kFlagRead;
                request.assign(apps::EchoService::make_read(7, 32, 64));
            } else {
                request.assign(apps::EchoService::make_write(7, 16));
            }
            requests.push_back(std::move(request));
        };
        add(false);
        add(true);
        if (trailing_write) add(false);
        std::vector<hybster::ExecutedReply> batch;
        for (const hybster::Request& request : requests) {
            batch.push_back({&request,
                             rig.executed(request,
                                          request.is_read() ? "value" : "ack",
                                          0)});
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
    scan_request.assign(apps::KvService::make_scan("a"));
    hybster::Reply scan_reply;
    scan_reply.kind = hybster::Reply::Kind::Ordered;
    scan_reply.request_id = scan_request.id;
    scan_reply.result = to_bytes("scan-result");
    scan_reply.replica = 0;
    authenticate_one(*rig.enclave, rig.meter, scan_request, scan_reply);

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
    std::vector<hybster::Reply> votes = {rig.make_reply(0, put),
                                         rig.make_reply(1, put)};
    rig.enclave->handle_replies(rig.meter, votes);
    const auto after = rig.enclave->status();
    EXPECT_EQ(after.completed_votes, before.completed_votes + 1);
    EXPECT_EQ(after.cache_invalidations - before.cache_invalidations, 4u);
    EXPECT_EQ(after.invalidations_saved, before.invalidations_saved);
}

TEST(TroxyEnclave, LoneFastReadWaitsOutTheHold) {
    // Under batched fast reads a lone query that does not fill the batch
    // waits out the flush delay before it leaves the host.
    bench::TroxyCluster::Params params = cluster_params(44);
    params.host.fastread_batch_max = 8;
    params.host.fastread_batch_delay = sim::milliseconds(5);
    bench::TroxyCluster cluster(std::move(params));
    auto& client = cluster.add_client(0);
    sim::SimTime start = 0;
    sim::SimTime done = 0;
    client.start([&]() {
        client.send(apps::EchoService::make_write(1, 64), [&](Bytes) {
            // The first read is ordered (cold caches) and warms every
            // replica; the second takes the fast path through the
            // batching host.
            client.send(apps::EchoService::make_read(1, 32, 64), [&](Bytes) {
                start = cluster.simulator().now();
                client.send(apps::EchoService::make_read(1, 32, 64),
                            [&](Bytes) { done = cluster.simulator().now(); });
            });
        });
    });
    cluster.simulator().run_until(sim::seconds(5));
    EXPECT_GT(done, start);
    EXPECT_GE(done - start, sim::milliseconds(5));
}

// ---------------------------------------------------------- host dispatch

TEST(TroxyHost, UndecodableHybsterFrameCostsOnlyItsDispatch) {
    bench::TroxyCluster::Params params;
    params.service = []() { return std::make_unique<apps::EchoService>(); };
    params.classifier = [](ByteView request) {
        return apps::EchoService().classify(request);
    };
    bench::TroxyCluster cluster(std::move(params));
    cluster.simulator().run_until(sim::milliseconds(10));
    TroxyReplicaHost& host = cluster.host(1);
    const sim::NodeId peer = cluster.config().node_of(0);

    // An unknown type and a truncated Commit, alone and in a bundle.
    hybster::Commit commit;
    Bytes truncated = hybster::encode_message(hybster::Message(commit));
    truncated.pop_back();
    const std::vector<Bytes> frames = {
        net::wrap(net::Channel::Hybster, Bytes{99}),
        net::wrap(net::Channel::Hybster, truncated)};

    // Handed to the replica's byte entry, such a frame costs a dispatch.
    const sim::Duration idle = host.node().busy_time();
    host.replica().on_message(peer, ByteView(frames[0]).subspan(1));
    cluster.simulator().run_until(sim::milliseconds(20));
    const sim::Duration dispatch = host.node().busy_time() - idle;
    EXPECT_GT(dispatch, 0);

    // The host hands every agreement frame to that entry: each of the
    // four costs exactly the wasted parse, and none reaches a handler.
    const sim::Duration busy = host.node().busy_time();
    const std::size_t log_size = host.replica().log_size();
    const hybster::SequenceNumber executed = host.replica().last_executed();
    for (const Bytes& frame : frames) {
        cluster.fabric().send(peer, host.node().id(), frame);
    }
    cluster.fabric().send(peer, host.node().id(), net::make_bundle(frames));
    cluster.simulator().run_until(sim::milliseconds(30));
    EXPECT_EQ(host.node().busy_time() - busy, 4 * dispatch);
    EXPECT_EQ(host.replica().log_size(), log_size);
    EXPECT_EQ(host.replica().last_executed(), executed);
}

TEST(TroxyHost, ReplySlotsCountOnlyValidRepliesOfABundle) {
    // Bursts of [valid, malformed, misrouted, valid] replies: only the
    // valid ones reach the voter, and a slot left by an earlier flush or
    // by a failed decode is never counted again. The flush enters the
    // enclave in chunks of voter_batch_max.
    for (const std::size_t batch_max : {std::size_t{1}, std::size_t{16}}) {
        SCOPED_TRACE(batch_max);
        bench::TroxyCluster::Params params = cluster_params(45);
        params.host.voter_batch_max = batch_max;
        bench::TroxyCluster cluster(std::move(params));
        sim::Simulator& sim = cluster.simulator();
        TroxyReplicaHost& host = cluster.host(0);
        const sim::NodeId self = host.node().id();
        const sim::NodeId peer = cluster.config().node_of(1);
        auto& client = cluster.add_client(0);
        int answered = 0;
        client.start([&]() {
            for (std::uint64_t key = 0; key < 2; ++key) {
                client.send(apps::EchoService::make_write(key, 16),
                            [&](Bytes) { ++answered; });
            }
        });

        // Once both writes are ordered, the replicas' replies to the
        // host are taken off the wire instead of delivered.
        while (host.troxy().status().ordered_requests < 2 &&
               sim.now() < sim::seconds(1)) {
            sim.run_until(sim.now() + sim::microseconds(10));
        }
        std::map<std::uint64_t, std::vector<Bytes>> by_request;
        cluster.fabric().attach(self, [&](sim::NodeId, Bytes frame) {
            const auto unwrapped = net::unwrap_view(frame);
            if (!unwrapped || unwrapped->first != net::Channel::Hybster) {
                return;
            }
            auto decoded = hybster::decode_message(unwrapped->second);
            if (!decoded) return;
            if (auto* reply = std::get_if<hybster::Reply>(&*decoded)) {
                by_request[reply->request_id.number].push_back(frame);
            }
        });
        sim.run_until(sim.now() + sim::milliseconds(50));
        host.attach();
        ASSERT_EQ(by_request.size(), 2u);
        const std::vector<Bytes>& first = by_request.begin()->second;
        const std::vector<Bytes>& second = std::next(by_request.begin())->second;
        ASSERT_GE(first.size(), 2u);
        ASSERT_GE(second.size(), 2u);

        Bytes malformed = first[0];
        malformed.pop_back();
        auto misrouted = std::get<hybster::Reply>(*hybster::decode_message(
            net::unwrap_view(first[0])->second));
        misrouted.request_id.client = self + 1;
        const Bytes misrouted_frame = hybster::encode_frame(
            net::Channel::Hybster, misrouted, cluster.network().pool());

        const auto status = [&host]() { return host.status().troxy; };
        const auto deliver = [&](Bytes frame) {
            cluster.fabric().send(peer, self, std::move(frame));
            sim.run_until(sim.now() + sim::milliseconds(5));
        };
        TroxyEnclave::Status before = status();
        deliver(net::make_bundle(
            {first[0], malformed, misrouted_frame, first[1]}));
        TroxyEnclave::Status after = status();
        EXPECT_EQ(after.reply_batches - before.reply_batches,
                  batch_max == 1 ? 2u : 1u);
        EXPECT_EQ(after.batched_replies - before.batched_replies, 2u);
        EXPECT_EQ(after.completed_votes - before.completed_votes, 1u);

        // Nothing valid: the slots hold the last flush and a failed
        // decode, and no transition happens.
        before = after;
        deliver(net::make_bundle({malformed, misrouted_frame}));
        after = status();
        EXPECT_EQ(after.reply_batches, before.reply_batches);
        EXPECT_EQ(after.batched_replies, before.batched_replies);

        // One valid reply in a bundle, then one alone: each enters the
        // voter as itself, and the second completes the vote.
        deliver(net::make_bundle({malformed, second[0]}));
        after = status();
        EXPECT_EQ(after.reply_batches - before.reply_batches, 1u);
        EXPECT_EQ(after.batched_replies - before.batched_replies, 1u);
        EXPECT_EQ(after.completed_votes, before.completed_votes);
        deliver(second[1]);
        after = status();
        EXPECT_EQ(after.reply_batches - before.reply_batches, 2u);
        EXPECT_EQ(after.batched_replies - before.batched_replies, 2u);
        EXPECT_EQ(after.completed_votes - before.completed_votes, 1u);
        EXPECT_EQ(after.rejected_replies, 0u);

        sim.run_until(sim.now() + sim::milliseconds(50));
        EXPECT_EQ(answered, 2);
    }
}

}  // namespace
}  // namespace troxy::troxy_core

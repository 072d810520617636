// Fault injection against the Troxy-backed system: the §VI-B security
// analysis scenarios that are testable in simulation.
#include <gtest/gtest.h>

#include "apps/echo_service.hpp"
#include "bench_support/cluster.hpp"
#include "net/client_framing.hpp"
#include "net/envelope.hpp"

namespace troxy {
namespace {

using apps::EchoService;

bench::TroxyCluster::Params params_with_seed(std::uint64_t seed) {
    bench::TroxyCluster::Params params;
    params.base.seed = seed;
    params.service = []() { return std::make_unique<EchoService>(); };
    params.classifier = [](ByteView request) {
        return EchoService().classify(request);
    };
    // Faster fallback so fault tests converge quickly.
    params.host.vote_timeout = sim::milliseconds(500);
    params.host.fast_read_timeout = sim::milliseconds(20);
    return params;
}

// A replica that lies about results is outvoted: the client still gets
// the correct reply (f+1 matching, Troxy-authenticated).
TEST(Faults, CorruptReplicaOutvoted) {
    bench::TroxyCluster cluster(params_with_seed(71));
    hybster::FaultProfile corrupt;
    corrupt.corrupt_replies = true;
    cluster.host(2).replica().set_faults(corrupt);

    auto& client = cluster.add_client(0);
    Bytes read_reply;
    bool done = false;
    client.start([&]() {
        client.send(EchoService::make_write(1, 64), [&](Bytes) {
            client.send(EchoService::make_read(1, 32, 256),
                        [&](Bytes reply) {
                            read_reply = std::move(reply);
                            done = true;
                        });
        });
    });
    cluster.simulator().run_until(sim::seconds(10));
    ASSERT_TRUE(done);
    EXPECT_EQ(read_reply, EchoService::expected_read_reply(1, 1, 256));
}

// A replica that drops all replies cannot stall the system: the other
// f+1 replicas' authenticated replies complete the vote.
TEST(Faults, ReplyDropperToleratedByVoter) {
    bench::TroxyCluster cluster(params_with_seed(72));
    hybster::FaultProfile drop;
    drop.drop_replies = true;
    cluster.host(1).replica().set_faults(drop);

    auto& client = cluster.add_client(0);
    bool done = false;
    client.start([&]() {
        client.send(EchoService::make_write(2, 64),
                    [&](Bytes) { done = true; });
    });
    cluster.simulator().run_until(sim::seconds(10));
    EXPECT_TRUE(done);
}

// Stale-cache performance attack (§VI-B): a replica that withholds
// replies from its Troxy leaves that Troxy's cache stale. Fast reads that
// sample it mismatch and fall back to ordering — slower, never wrong.
TEST(Faults, StaleCacheCausesFallbackNotStaleness) {
    bench::TroxyCluster cluster(params_with_seed(73));
    auto& client = cluster.add_client(0);

    // Warm phase: write + read so every cache holds version 1.
    int phase = 0;
    client.start([&]() {
        client.send(EchoService::make_write(1, 64), [&](Bytes) {
            client.send(EchoService::make_read(1, 32, 128),
                        [&](Bytes) { phase = 1; });
        });
    });
    cluster.simulator().run_until(sim::seconds(5));
    ASSERT_EQ(phase, 1);

    // Now replica 2 goes silent towards its Troxy: it executes but never
    // authenticates/sends replies, so its cache stops being maintained.
    hybster::FaultProfile drop;
    drop.drop_replies = true;
    cluster.host(2).replica().set_faults(drop);

    // A write bumps the version — replica 2's cache keeps the stale entry
    // for a while (no invalidation without reply authentication).
    client.send(EchoService::make_write(1, 64), [&](Bytes) { phase = 2; });
    cluster.simulator().run_until(sim::seconds(10));
    ASSERT_EQ(phase, 2);

    // Reads must return version 2 regardless of which remote Troxy the
    // fast path samples.
    int correct = 0;
    std::function<void(int)> read_loop = [&](int remaining) {
        if (remaining == 0) return;
        client.send(EchoService::make_read(1, 32, 128),
                    [&, remaining](Bytes reply) {
                        if (reply ==
                            EchoService::expected_read_reply(1, 2, 128)) {
                            ++correct;
                        }
                        read_loop(remaining - 1);
                    });
    };
    read_loop(8);
    cluster.simulator().run_until(sim::seconds(30));
    EXPECT_EQ(correct, 8);
}

// Crash of the contact replica: the legacy client fails over to another
// Troxy via its ordinary reconnect logic (§III-D) and completes.
TEST(Faults, ContactReplicaCrashFailover) {
    bench::TroxyCluster cluster(params_with_seed(74));
    auto& client = cluster.add_client(1);  // contact = replica 1 (follower)

    bool first_done = false;
    client.start([&]() {
        client.send(EchoService::make_write(5, 64),
                    [&](Bytes) { first_done = true; });
    });
    cluster.simulator().run_until(sim::seconds(5));
    ASSERT_TRUE(first_done);

    hybster::FaultProfile crash;
    crash.crashed = true;
    cluster.host(1).set_faults(crash);

    bool second_done = false;
    client.send(EchoService::make_read(5, 32, 64), [&](Bytes reply) {
        EXPECT_EQ(reply, EchoService::expected_read_reply(5, 1, 64));
        second_done = true;
    });
    cluster.simulator().run_until(sim::seconds(30));
    EXPECT_TRUE(second_done);
    EXPECT_GE(client.failovers(), 1u);
}

// Leader crash: the troxies (acting as BFT clients) retransmit, followers
// suspect, a view change installs a new leader, service continues.
TEST(Faults, LeaderCrashViewChangeRecovers) {
    bench::TroxyCluster::Params params = params_with_seed(75);
    bench::TroxyCluster cluster(std::move(params));
    auto& client = cluster.add_client(1);  // contact replica 1, leader is 0

    bool first_done = false;
    client.start([&]() {
        client.send(EchoService::make_write(3, 64),
                    [&](Bytes) { first_done = true; });
    });
    cluster.simulator().run_until(sim::seconds(5));
    ASSERT_TRUE(first_done);

    hybster::FaultProfile crash;
    crash.crashed = true;
    cluster.host(0).set_faults(crash);

    bool second_done = false;
    client.send(EchoService::make_write(3, 64),
                [&](Bytes) { second_done = true; });
    cluster.simulator().run_until(sim::seconds(40));
    EXPECT_TRUE(second_done);
    EXPECT_GT(cluster.host(1).replica().view(), 0u);
}

// View change under compound faults: the leader host crashes while a
// stream of writes is in flight AND the link between the two surviving
// replicas is lossy. Retransmissions must push the view change through
// the lossy link, after which every outstanding and subsequent request
// completes on the new leader.
TEST(Faults, LeaderCrashMidStreamWithLossyLink) {
    bench::TroxyCluster::Params params = params_with_seed(78);
    params.base.checkpoint_interval = 8;
    params.client.connection_timeout = sim::milliseconds(500);
    bench::TroxyCluster cluster(std::move(params));
    auto& client = cluster.add_client(1);

    // 30% loss both ways between the survivors (replica 1 on node 2,
    // replica 2 on node 3) for the whole run.
    cluster.network().set_loss_bidirectional(
        cluster.config().node_of(1), cluster.config().node_of(2), 0.3);

    int done = 0;
    std::function<void(int)> write_loop = [&](int remaining) {
        if (remaining == 0) return;
        client.send(EchoService::make_write(9, 64), [&, remaining](Bytes) {
            ++done;
            // Crash the leader mid-stream: five writes are done, the
            // rest have to survive the view change.
            if (done == 5) cluster.crash_host(0);
            write_loop(remaining - 1);
        });
    };
    client.start([&]() { write_loop(20); });

    cluster.simulator().run_until(sim::seconds(60));
    EXPECT_EQ(done, 20);
    EXPECT_GT(cluster.host(1).replica().view(), 0u);
    EXPECT_GT(cluster.network().drops().by_loss, 0u);
    // The survivors converged on one state.
    EXPECT_EQ(cluster.host(1).replica().service().checkpoint(),
              cluster.host(2).replica().service().checkpoint());
}

// Bypassing the Troxy (§VI-B): raw bytes injected by a malicious replica
// towards the client are rejected by the secure channel — the client
// ignores them and its session continues to work.
TEST(Faults, BypassAttemptRejectedByChannel) {
    bench::TroxyCluster cluster(params_with_seed(76));
    auto& client = cluster.add_client(0);

    bool done = false;
    Bytes reply_seen;
    client.start([&]() {
        // Malicious untrusted code on replica 0 injects a forged record.
        cluster.fabric().send(
            cluster.config().node_of(0),
            1000,  // the client's node id
            net::client_frame(net::ClientFrame::Record,
                              to_bytes("forged-not-encrypted"),
                              cluster.network().pool()));
        client.send(EchoService::make_write(1, 64), [&](Bytes reply) {
            reply_seen = std::move(reply);
            done = true;
        });
    });
    cluster.simulator().run_until(sim::seconds(10));
    ASSERT_TRUE(done);
    EXPECT_FALSE(reply_seen.empty());
    EXPECT_NE(to_string(reply_seen), "forged-not-encrypted");
}

// Unauthenticated replica replies are not counted by the voter (§IV-A
// change (1) — replies must carry the sending Troxy's certificate).
TEST(Faults, ForgedReplyCertificatesRejected) {
    bench::TroxyCluster cluster(params_with_seed(77));
    auto& client = cluster.add_client(0);

    // Replicas 1 and 2 never send replies, so the vote at replica 0's
    // Troxy stays open (only the local reply arrives — one short of f+1).
    hybster::FaultProfile drop;
    drop.drop_replies = true;
    cluster.host(1).replica().set_faults(drop);
    cluster.host(2).replica().set_faults(drop);

    bool done = false;
    client.start([&]() {
        client.send(EchoService::make_write(1, 64),
                    [&](Bytes) { done = true; });
    });
    cluster.simulator().run_until(sim::seconds(1));
    ASSERT_FALSE(done);  // vote pending, as arranged

    // A malicious replica 2 now injects a forged reply with a bogus
    // certificate. The voter must reject it and the vote must NOT
    // complete on the forged value.
    hybster::Reply forged;
    forged.request_id = {cluster.config().node_of(0), 1};
    forged.result = to_bytes("wrong");
    forged.replica = 2;
    cluster.fabric().send(
        cluster.config().node_of(2), cluster.config().node_of(0),
        net::wrap(net::Channel::Hybster,
                  encode_message(hybster::Message(forged))));

    cluster.simulator().run_until(sim::seconds(2));
    EXPECT_FALSE(done);
    EXPECT_GE(cluster.host(0).troxy().status().rejected_replies, 1u);
}

}  // namespace
}  // namespace troxy

// Regression tests for defects found and fixed during development. Each
// test encodes the failure mode so it can never silently return.
#include <gtest/gtest.h>

#include "apps/echo_service.hpp"
#include "bench_support/cluster.hpp"
#include "bench_support/workload.hpp"
#include "closure_sends.hpp"
#include "net/outbox.hpp"

namespace troxy {
namespace {

using apps::EchoService;

// Regression: Outbox::flush once captured `this` of the stack-allocated
// outbox; the deferred send then used a dangling pointer. The fix
// captures the long-lived Fabric. This test forces the outbox to die
// before the scheduled event runs.
TEST(Regression, OutboxOutlivesItsFlush) {
    sim::Simulator sim;
    sim::Network network(sim);
    net::Fabric fabric(sim, network);
    sim::Node node(sim, 1, "n", 1);

    Bytes received;
    fabric.attach(2, [&](sim::NodeId, Bytes message) {
        received = std::move(message);
    });
    {
        net::Outbox outbox(fabric, node);
        outbox.send(2, to_bytes("survives"));
        enclave::CostMeter meter;
        meter.add(sim::microseconds(100));
        outbox.flush(meter);
    }  // outbox destroyed before the event fires
    sim.run();
    EXPECT_EQ(received, to_bytes("survives"));
}

// Regression: multi-core completion reordering let a node's messages hit
// the wire out of processing order, desynchronizing Hybster's trusted
// counters. exec_ordered must force in-call-order completions.
TEST(Regression, ExecOrderedNeverInverts) {
    sim::Simulator sim;
    sim::Node node(sim, 1, "n", 4);

    std::vector<int> completions;
    node.exec_ordered(1000, [&] { completions.push_back(1); });  // slow
    node.exec_ordered(10, [&] { completions.push_back(2); });    // fast
    node.exec_ordered(10, [&] { completions.push_back(3); });
    sim.run();
    EXPECT_EQ(completions, (std::vector<int>{1, 2, 3}));
}

TEST(Regression, ExecOrderedHonorsExternalFloor) {
    sim::Simulator sim;
    sim::Node node(sim, 1, "n", 4);
    sim::SimTime done = 0;
    node.exec_ordered(10, [&] { done = sim.now(); },
                      /*not_before=*/sim::milliseconds(5));
    sim.run();
    EXPECT_GE(done, sim::milliseconds(5));
}

// Regression: receive-side NIC bandwidth was booked in *send* order, so
// an early-sent WAN packet (arriving late) blocked a later-sent LAN
// packet that physically arrived first, inflating LAN RTTs by tens of
// milliseconds.
TEST(Regression, IngressBookedInArrivalOrder) {
    sim::Simulator sim;
    sim::Network network(sim);
    test_support::ClosureSender sender(network);
    network.set_nic_group(100, 1, 1e9);  // shared destination machine

    sim::LinkSpec slow;
    slow.latency = sim::LatencyModel::constant(sim::milliseconds(100));
    sim::LinkSpec fast;
    fast.latency = sim::LatencyModel::constant(sim::microseconds(50));
    network.set_link(10, 100, slow);
    network.set_link(11, 100, fast);

    sim::SimTime wan_arrival = 0, lan_arrival = 0;
    sender.send(10, 100, 100, [&] { wan_arrival = sim.now(); });  // first
    sender.send(11, 100, 100, [&] { lan_arrival = sim.now(); });  // second
    sim.run();
    // The LAN message must NOT wait for the earlier-sent WAN message.
    EXPECT_LT(lan_arrival, sim::milliseconds(1));
    EXPECT_GE(wan_arrival, sim::milliseconds(100));
}

// Regression: hybster::Client::retry_ordered took the Pending by rvalue
// reference and then erased the map entry it pointed into (use after
// free). Conflicted optimistic reads under contention now complete with
// the correct value.
TEST(Regression, OptimisticReadRetryUnderContention) {
    bench::BaselineCluster::Params params;
    params.base.seed = 91;
    params.base.lan_jitter = sim::microseconds(500);  // desynchronize
    params.service = []() { return std::make_unique<EchoService>(); };
    params.optimistic_reads = true;
    bench::BaselineCluster cluster(params);

    bench::Recorder recorder(sim::milliseconds(200), sim::seconds(2));
    bench::Workload workload(
        cluster.simulator(), recorder,
        [](Rng& rng) {
            bench::GeneratedRequest request;
            request.is_read = rng.next_below(100) < 90;
            request.payload =
                request.is_read ? EchoService::make_read(0, 32, 64)
                                : EchoService::make_write(0, 48);
            return request;
        },
        91);
    for (int i = 0; i < 8; ++i) {
        workload.drive_bft(cluster.add_client(), 4);
    }
    cluster.simulator().run_until(recorder.window_end() + sim::seconds(3));

    EXPECT_GT(recorder.completed(), 1000u);
    std::uint64_t conflicts = 0;
    for (auto* client : cluster.clients()) {
        conflicts += client->read_conflicts();
    }
    EXPECT_GT(conflicts, 0u) << "contention should cause retried reads";
}

// Regression: forwarded requests were lost when the leader crashed
// before preparing them — the new view never re-proposed them and no
// client retransmit existed at the replica layer.
TEST(Regression, ForwardedRequestSurvivesViewChange) {
    bench::TroxyCluster::Params params;
    params.base.seed = 92;
    params.service = []() { return std::make_unique<EchoService>(); };
    params.classifier = [](ByteView request) {
        return EchoService().classify(request);
    };
    params.host.vote_timeout = sim::milliseconds(400);
    bench::TroxyCluster cluster(std::move(params));

    // Crash the leader before any traffic: the very first write arrives
    // at a follower, is forwarded into the void, and must still commit
    // after the view change.
    hybster::FaultProfile crash;
    crash.crashed = true;
    cluster.host(0).set_faults(crash);

    auto& client = cluster.add_client(1);
    bool done = false;
    client.start([&]() {
        client.send(EchoService::make_write(3, 64),
                    [&](Bytes) { done = true; });
    });
    cluster.simulator().run_until(sim::seconds(40));
    EXPECT_TRUE(done);
    EXPECT_GT(cluster.host(1).replica().view(), 0u);
}

// Regression: fast reads raced with the Troxy's own in-flight writes on
// the same key; the pending-write suppression must order such reads.
TEST(Regression, FastReadSuppressedWhileOwnWritePending) {
    bench::TroxyCluster::Params params;
    params.base.seed = 93;
    params.service = []() { return std::make_unique<EchoService>(); };
    params.classifier = [](ByteView request) {
        return EchoService().classify(request);
    };
    bench::TroxyCluster cluster(std::move(params));
    auto& client = cluster.add_client(0);

    int correct = 0;
    client.start([&]() {
        // Warm the cache.
        client.send(EchoService::make_write(1, 48), [&](Bytes) {
            client.send(EchoService::make_read(1, 32, 64), [&](Bytes) {
                // Pipeline a write and immediately a read of the same
                // key; the read must see the write's effect.
                client.send(EchoService::make_write(1, 48), [&](Bytes) {});
                client.send(EchoService::make_read(1, 32, 64),
                            [&](Bytes reply) {
                                if (reply ==
                                    EchoService::expected_read_reply(
                                        1, 2, 64)) {
                                    ++correct;
                                }
                            });
            });
        });
    });
    cluster.simulator().run_until(sim::seconds(10));
    EXPECT_EQ(correct, 1);
}

// Regression: secure-channel records could arrive out of protect order
// (multi-core flush inversions); the receiver must reassemble rather
// than poison the channel. End-to-end: heavy pipelining on a single
// connection completes every request.
TEST(Regression, PipelinedConnectionNeverWedges) {
    bench::TroxyCluster::Params params;
    params.base.seed = 94;
    params.service = []() { return std::make_unique<EchoService>(); };
    params.classifier = [](ByteView request) {
        return EchoService().classify(request);
    };
    bench::TroxyCluster cluster(std::move(params));
    auto& client = cluster.add_client(0);

    constexpr int kPipelined = 64;
    int completed = 0;
    client.start([&]() {
        for (int i = 0; i < kPipelined; ++i) {
            client.send(EchoService::make_write(
                            static_cast<std::uint64_t>(i % 5), 64),
                        [&](Bytes) { ++completed; });
        }
    });
    cluster.simulator().run_until(sim::seconds(10));
    EXPECT_EQ(completed, kPipelined);
    EXPECT_EQ(client.failovers(), 0u) << "no watchdog resets needed";
}

}  // namespace
}  // namespace troxy

// Chaos harness tests: seeded fault schedules against the Troxy cluster
// with safety (linearizability of voted replies) and liveness (every
// request completes once faults heal) checking, plus crash-recovery
// rejoin and bit-identical replay.
#include <gtest/gtest.h>

#include "apps/echo_service.hpp"
#include "bench_support/chaos.hpp"
#include "bench_support/cluster.hpp"

namespace troxy {
namespace {

using apps::EchoService;

std::string report_summary(const bench::ChaosReport& report) {
    std::string out = "completed " + std::to_string(report.completed) + "/" +
                      std::to_string(report.issued) + ", violations " +
                      std::to_string(report.violations);
    for (const std::string& error : report.errors) out += "\n  " + error;
    out += "\nplan:\n" + report.plan_trace;
    return out;
}

// The ISSUE scenario as an explicit plan: crash one replica mid-load,
// partition the surviving Troxies for 2 simulated seconds, heal. Must
// hold safety and complete every request for several distinct seeds
// (the seed still drives workload timing and network jitter).
TEST(Chaos, CrashPlusPartitionScenarioAcrossSeeds) {
    for (const std::uint64_t seed : {7u, 11u, 13u, 17u, 19u}) {
        bench::ChaosOptions options;
        options.seed = seed;
        // Replica r lives on server node r+1 (ids are assigned in
        // construction order starting at 1); clients are unlisted and
        // keep their links.
        options.plan.crash(sim::milliseconds(1500), 2)
            .partition(sim::seconds(2), "split", {{1}, {2}})
            .heal(sim::seconds(4), "split")
            .restart(sim::milliseconds(4500), 2);

        const bench::ChaosReport report = bench::run_chaos(options);
        EXPECT_TRUE(report.ok())
            << "seed " << seed << ": " << report_summary(report);
        EXPECT_EQ(report.restarts, 1u) << "seed " << seed;
    }
}

// Randomized schedules (crash + partition + link flap + loss window, all
// derived from the seed) across several seeds: the invariants must hold
// no matter what the generator draws.
TEST(Chaos, RandomSchedulesAcrossSeeds) {
    for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
        bench::ChaosOptions options;
        options.seed = seed;
        const bench::ChaosReport report = bench::run_chaos(options);
        EXPECT_TRUE(report.ok())
            << "seed " << seed << ": " << report_summary(report);
    }
}

// Replaying the same seed yields the same fault schedule, the same
// message interleaving and the same drop decisions — bit-identical
// counters. A different seed diverges.
TEST(Chaos, SameSeedReplaysIdentically) {
    bench::ChaosOptions options;
    options.seed = 3;
    const bench::ChaosReport a = bench::run_chaos(options);
    const bench::ChaosReport b = bench::run_chaos(options);

    EXPECT_EQ(a.plan_trace, b.plan_trace);
    EXPECT_EQ(a.messages_sent, b.messages_sent);
    EXPECT_EQ(a.bytes_sent, b.bytes_sent);
    EXPECT_EQ(a.drops.by_loss, b.drops.by_loss);
    EXPECT_EQ(a.drops.by_link_down, b.drops.by_link_down);
    EXPECT_EQ(a.drops.by_partition, b.drops.by_partition);
    EXPECT_EQ(a.drops.bytes, b.drops.bytes);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.failovers, b.failovers);
    EXPECT_EQ(a.view_changes, b.view_changes);
    EXPECT_EQ(a.state_transfers, b.state_transfers);

    bench::ChaosOptions other = options;
    other.seed = 4;
    const bench::ChaosReport c = bench::run_chaos(other);
    EXPECT_NE(a.plan_trace, c.plan_trace);
}

// Chaos at one shard runs the S = 1 case of the one Troxy builder. These
// values were recorded from the former separate unsharded chaos path, so
// a builder that orders nodes or seeds its group differently changes the
// plan, the message stream or the recovery counters and fails here. (The
// report holds no wire content; ShardParity pins the channel identities.)
TEST(Chaos, SingleShardMatchesUnshardedGolden) {
    struct Golden {
        const char* name;
        bench::ChaosOptions options;
        std::uint64_t messages_sent;
        std::uint64_t bytes_sent;
        std::uint64_t view_changes;
        std::uint64_t state_transfers;
        const char* plan_trace;
    };
    bench::ChaosOptions batched;
    batched.seed = 11;
    batched.voter_batch_max = 8;
    batched.coalesce_wire = true;
    batched.think_time = sim::milliseconds(20);
    bench::ChaosOptions plain;
    plain.seed = 3;
    const Golden goldens[] = {
        {"default seed 3", plain, 1739, 244115, 12, 2,
         "1.000s link down 2<->1\n"
         "1.000s loss 3<->2 p=0.099\n"
         "2.750s crash host 1\n"
         "2.750s partition 'chaos-p0' [3] [1 2]\n"
         "4.307s loss 3<->2 p=0.000\n"
         "5.122s link up 2<->1\n"
         "7.140s heal 'chaos-p0'\n"
         "7.471s restart host 1\n"},
        {"batched seed 11", batched, 1078, 148780, 1, 1,
         "1.000s crash host 1\n"
         "1.000s partition 'chaos-p0' [2] [1 3]\n"
         "2.750s link down 3<->1\n"
         "2.750s loss 3<->2 p=0.236\n"
         "4.010s restart host 1\n"
         "5.644s heal 'chaos-p0'\n"
         "6.731s loss 3<->2 p=0.000\n"
         "6.895s link up 3<->1\n"},
    };
    for (const Golden& golden : goldens) {
        const bench::ChaosReport report = bench::run_chaos(golden.options);
        EXPECT_TRUE(report.ok()) << golden.name << ": "
                                 << report_summary(report);
        EXPECT_EQ(report.completed, 120u) << golden.name;
        EXPECT_EQ(report.messages_sent, golden.messages_sent) << golden.name;
        EXPECT_EQ(report.bytes_sent, golden.bytes_sent) << golden.name;
        EXPECT_EQ(report.view_changes, golden.view_changes) << golden.name;
        EXPECT_EQ(report.state_transfers, golden.state_transfers)
            << golden.name;
        EXPECT_EQ(report.plan_trace, golden.plan_trace) << golden.name;
    }
}

// The batching pipeline under fire: a leader crash lands while batches
// are in flight (some prepared but not committed, some still pending in
// the leader's uncut batch), followed by a restart. View change must
// repropose the prepared batches and forwarding must rescue the rest —
// safety and liveness hold for several distinct seeds.
TEST(Chaos, LeaderCrashWithBatchingInFlight) {
    for (const std::uint64_t seed : {7u, 11u, 13u}) {
        bench::ChaosOptions options;
        options.seed = seed;
        options.batch_size_max = 8;
        options.batch_delay = sim::milliseconds(5);
        // Short think time keeps several requests in flight so batches
        // actually form around the crash instant.
        options.think_time = sim::milliseconds(20);
        // Replica 0 (the view-0 leader) lives on server node 1.
        options.plan.crash(sim::milliseconds(1500), 1)
            .restart(sim::milliseconds(4500), 1);

        const bench::ChaosReport report = bench::run_chaos(options);
        EXPECT_TRUE(report.ok())
            << "seed " << seed << ": " << report_summary(report);
        EXPECT_GE(report.view_changes, 1u) << "seed " << seed;
        EXPECT_EQ(report.restarts, 1u) << "seed " << seed;
    }
}

// Determinism survives batching: with batch cuts driven by both the size
// and delay boundaries, replaying a seed still reproduces bit-identical
// network counters.
TEST(Chaos, BatchedSameSeedReplaysIdentically) {
    bench::ChaosOptions options;
    options.seed = 3;
    options.batch_size_max = 8;
    options.batch_delay = sim::milliseconds(5);
    options.think_time = sim::milliseconds(20);
    const bench::ChaosReport a = bench::run_chaos(options);
    const bench::ChaosReport b = bench::run_chaos(options);

    EXPECT_EQ(a.plan_trace, b.plan_trace);
    EXPECT_EQ(a.messages_sent, b.messages_sent);
    EXPECT_EQ(a.bytes_sent, b.bytes_sent);
    EXPECT_EQ(a.drops.by_loss, b.drops.by_loss);
    EXPECT_EQ(a.drops.by_link_down, b.drops.by_link_down);
    EXPECT_EQ(a.drops.by_partition, b.drops.by_partition);
    EXPECT_EQ(a.drops.bytes, b.drops.bytes);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.failovers, b.failovers);
    EXPECT_EQ(a.view_changes, b.view_changes);
    EXPECT_EQ(a.state_transfers, b.state_transfers);

    // Batching changes the message flow relative to the unbatched run of
    // the same seed — fewer agreement messages for the same workload.
    bench::ChaosOptions unbatched = options;
    unbatched.batch_size_max = 1;
    unbatched.batch_delay = 0;
    const bench::ChaosReport c = bench::run_chaos(unbatched);
    EXPECT_EQ(c.completed, a.completed);
    EXPECT_NE(a.messages_sent, c.messages_sent);
}

// Parallel execution lanes under fire: with execution_lanes > 1 the
// replicas charge conflict-aware makespans instead of serial sums for
// every committed batch — through crashes, partitions and view changes
// the linearizability checker and the wire counters must behave exactly
// like a (slower) serial run, because lanes change modeled time only.
TEST(Chaos, ExecutionLanesStayLinearizableAndDeterministic) {
    for (const std::uint64_t seed : {7u, 11u}) {
        bench::ChaosOptions options;
        options.seed = seed;
        options.batch_size_max = 8;
        options.batch_delay = sim::milliseconds(5);
        options.execution_lanes = 4;
        options.think_time = sim::milliseconds(20);
        const bench::ChaosReport report = bench::run_chaos(options);
        EXPECT_TRUE(report.ok())
            << "seed " << seed << ": " << report_summary(report);
    }

    // Same-seed replay stays bit-identical with lanes on.
    bench::ChaosOptions options;
    options.seed = 3;
    options.batch_size_max = 8;
    options.batch_delay = sim::milliseconds(5);
    options.execution_lanes = 4;
    options.think_time = sim::milliseconds(20);
    const bench::ChaosReport a = bench::run_chaos(options);
    const bench::ChaosReport b = bench::run_chaos(options);
    EXPECT_TRUE(a.ok()) << report_summary(a);
    EXPECT_EQ(a.plan_trace, b.plan_trace);
    EXPECT_EQ(a.messages_sent, b.messages_sent);
    EXPECT_EQ(a.bytes_sent, b.bytes_sent);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.view_changes, b.view_changes);
}

// Batched voting plus wire coalescing under fire: replies cross the wire
// as Bundle frames, enter the enclave in handle_replies batches, and the
// ordering pipeline batches too — through a crash, a partition and the
// random fault mix, linearizability of every voted reply and completion
// of every request must still hold.
TEST(Chaos, BatchedVotingWithCoalescingStaysLinearizable) {
    for (const std::uint64_t seed : {7u, 11u, 13u}) {
        bench::ChaosOptions options;
        options.seed = seed;
        options.batch_size_max = 8;
        options.batch_delay = sim::milliseconds(5);
        options.voter_batch_max = 8;
        options.coalesce_wire = true;
        options.think_time = sim::milliseconds(20);
        options.plan.crash(sim::milliseconds(1500), 2)
            .partition(sim::seconds(2), "split", {{1}, {2}})
            .heal(sim::seconds(4), "split")
            .restart(sim::milliseconds(4500), 2);

        const bench::ChaosReport report = bench::run_chaos(options);
        EXPECT_TRUE(report.ok())
            << "seed " << seed << ": " << report_summary(report);
    }
    // Coalescing is observable on the wire (fewer records for the same
    // workload) while remaining deterministic per seed.
    bench::ChaosOptions options;
    options.seed = 3;
    options.voter_batch_max = 8;
    options.coalesce_wire = true;
    options.think_time = sim::milliseconds(20);
    const bench::ChaosReport a = bench::run_chaos(options);
    const bench::ChaosReport b = bench::run_chaos(options);
    EXPECT_TRUE(a.ok()) << report_summary(a);
    EXPECT_EQ(a.messages_sent, b.messages_sent);
    EXPECT_EQ(a.bytes_sent, b.bytes_sent);
    EXPECT_EQ(a.completed, b.completed);

    bench::ChaosOptions plain = options;
    plain.voter_batch_max = 1;
    plain.coalesce_wire = false;
    const bench::ChaosReport c = bench::run_chaos(plain);
    EXPECT_EQ(c.completed, a.completed);
    EXPECT_LT(a.messages_sent, c.messages_sent);
}

// The scatter-gather transport under fire: coalesced bursts stage only
// their framing over a kernel-bypass transport (per-peer credit window
// armed) through crashes and partitions. Safety and liveness must hold,
// and the payload buffers must keep recycling through the pool.
TEST(Chaos, ZeroCopyWirePathStaysLinearizable) {
    for (const std::uint64_t seed : {7u, 11u, 13u}) {
        bench::ChaosOptions options;
        options.seed = seed;
        options.batch_size_max = 8;
        options.batch_delay = sim::milliseconds(5);
        options.voter_batch_max = 8;
        options.coalesce_wire = true;
        options.transport = sim::TransportProfile::bypass();
        options.transport.scatter_gather = true;
        options.think_time = sim::milliseconds(20);
        options.plan.crash(sim::milliseconds(1500), 2)
            .partition(sim::seconds(2), "split", {{1}, {2}})
            .heal(sim::seconds(4), "split")
            .restart(sim::milliseconds(4500), 2);

        const bench::ChaosReport report = bench::run_chaos(options);
        EXPECT_TRUE(report.ok())
            << "seed " << seed << ": " << report_summary(report);
        EXPECT_GT(report.pool_hit_rate, 0.5);
    }
}

// The batched fast-read pipeline under fire: a read-heavy workload keeps
// the cache-quorum path hot, cache queries cross the wire as
// CacheQueryBatch bursts, responses apply in handle_cache_responses
// bursts and executed batches are certified via authenticate_replies —
// through a crash, a partition and the random fault mix, every voted or
// fast-read reply must stay linearizable and every request complete.
// (Crashes also exercise the flush-timer generation guard: buffered
// queries die with the host and the timer must not fire into the
// restarted Troxy.)
TEST(Chaos, BatchedFastReadsStayLinearizable) {
    for (const std::uint64_t seed : {7u, 11u, 13u}) {
        bench::ChaosOptions options;
        options.seed = seed;
        options.write_fraction = 0.2;  // read-heavy: fast reads dominate
        options.fastread_batch_max = 16;
        options.voter_batch_max = 8;
        options.batch_reply_auth = true;
        options.coalesce_wire = true;
        options.batch_size_max = 8;
        options.batch_delay = sim::milliseconds(5);
        options.think_time = sim::milliseconds(20);
        options.plan.crash(sim::milliseconds(1500), 2)
            .partition(sim::seconds(2), "split", {{1}, {2}})
            .heal(sim::seconds(4), "split")
            .restart(sim::milliseconds(4500), 2);

        const bench::ChaosReport report = bench::run_chaos(options);
        EXPECT_TRUE(report.ok())
            << "seed " << seed << ": " << report_summary(report);
    }
    // Same-seed replay stays bit-identical with the read pipeline on, and
    // batching is observable as fewer wire messages than the seed flow.
    bench::ChaosOptions options;
    options.seed = 3;
    options.write_fraction = 0.2;
    options.fastread_batch_max = 16;
    options.voter_batch_max = 8;
    options.batch_reply_auth = true;
    options.coalesce_wire = true;
    options.think_time = sim::milliseconds(20);
    const bench::ChaosReport a = bench::run_chaos(options);
    const bench::ChaosReport b = bench::run_chaos(options);
    EXPECT_TRUE(a.ok()) << report_summary(a);
    EXPECT_EQ(a.messages_sent, b.messages_sent);
    EXPECT_EQ(a.bytes_sent, b.bytes_sent);
    EXPECT_EQ(a.completed, b.completed);

    bench::ChaosOptions plain = options;
    static_cast<troxy_core::HostPipelineOptions&>(plain) = {};
    plain.coalesce_wire = false;
    const bench::ChaosReport c = bench::run_chaos(plain);
    EXPECT_EQ(c.completed, a.completed);
    EXPECT_LT(a.messages_sent, c.messages_sent);
}

// A crashed-and-restarted replica provably rejoins: it comes back empty,
// fetches the latest stable checkpoint via state transfer and catches up
// to the quorum's execution point.
TEST(Chaos, RestartedReplicaRejoinsViaStateTransfer) {
    bench::TroxyCluster::Params params;
    params.base.seed = 21;
    params.base.checkpoint_interval = 8;
    params.service = []() { return std::make_unique<EchoService>(); };
    params.classifier = [](ByteView request) {
        return EchoService().classify(request);
    };
    params.host.vote_timeout = sim::milliseconds(300);
    params.client.connection_timeout = sim::milliseconds(500);
    bench::TroxyCluster cluster(params);

    auto& client = cluster.add_client(0);
    int done = 0;
    std::function<void(int)> write_loop = [&](int remaining) {
        if (remaining == 0) return;
        client.send(EchoService::make_write(1, 64), [&, remaining](Bytes) {
            ++done;
            write_loop(remaining - 1);
        });
    };
    client.start([&]() { write_loop(12); });
    cluster.simulator().run_until(sim::seconds(5));
    ASSERT_EQ(done, 12);

    cluster.crash_host(2);
    ASSERT_TRUE(cluster.host(2).crashed());

    // Enough writes while replica 2 is down that the survivors stabilize
    // checkpoints past its last execution point.
    write_loop(24);
    cluster.simulator().run_until(sim::seconds(15));
    ASSERT_EQ(done, 36);
    const auto quorum_executed = cluster.host(0).replica().last_executed();
    ASSERT_GT(quorum_executed, cluster.host(2).replica().last_executed());

    cluster.restart_host(2);
    EXPECT_FALSE(cluster.host(2).crashed());
    EXPECT_EQ(cluster.host(2).restarts(), 1u);

    // A little traffic after the restart lets the rejoiner finish its
    // forced view change and execute the reproposed tail.
    write_loop(6);
    cluster.simulator().run_until(sim::seconds(30));
    ASSERT_EQ(done, 42);

    auto& rejoined = cluster.host(2).replica();
    EXPECT_FALSE(rejoined.rejoining());
    EXPECT_GE(rejoined.state_transfers(), 1u);
    EXPECT_GE(rejoined.last_executed(), quorum_executed);
    EXPECT_EQ(rejoined.service().checkpoint(),
              cluster.host(0).replica().service().checkpoint());
}


// Engine A/B under chaos and ASan: the calendar scheduler must replay
// full fault-injection runs — crashes, partitions, loss, view changes,
// state transfer — with byte-for-byte the verdicts and counters of the
// binary-heap reference engine, for several seeds. This is the
// end-to-end determinism guarantee the microscopic (time, seq) storm
// test cannot give on its own.
TEST(Chaos, CalendarAndBinaryHeapSchedulersAgree) {
    for (const std::uint64_t seed : {3u, 9u, 21u}) {
        bench::ChaosOptions options;
        options.seed = seed;
        options.requests_per_client = 25;
        options.horizon = sim::seconds(20);

        options.scheduler = sim::Simulator::Scheduler::BinaryHeap;
        const bench::ChaosReport heap = bench::run_chaos(options);
        options.scheduler = sim::Simulator::Scheduler::Calendar;
        const bench::ChaosReport calendar = bench::run_chaos(options);

        EXPECT_TRUE(heap.ok()) << report_summary(heap);
        EXPECT_EQ(heap.ok(), calendar.ok()) << "seed " << seed;
        EXPECT_EQ(heap.violations, calendar.violations) << "seed " << seed;
        EXPECT_EQ(heap.completed, calendar.completed) << "seed " << seed;
        EXPECT_EQ(heap.plan_trace, calendar.plan_trace) << "seed " << seed;
        EXPECT_EQ(heap.messages_sent, calendar.messages_sent)
            << "seed " << seed;
        EXPECT_EQ(heap.bytes_sent, calendar.bytes_sent) << "seed " << seed;
        EXPECT_EQ(heap.failovers, calendar.failovers) << "seed " << seed;
        EXPECT_EQ(heap.view_changes, calendar.view_changes)
            << "seed " << seed;
        EXPECT_EQ(heap.state_transfers, calendar.state_transfers)
            << "seed " << seed;
        EXPECT_EQ(heap.drops.by_loss, calendar.drops.by_loss)
            << "seed " << seed;
        EXPECT_EQ(heap.drops.bytes, calendar.drops.bytes)
            << "seed " << seed;
    }
}

}  // namespace
}  // namespace troxy

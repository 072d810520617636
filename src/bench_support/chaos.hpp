// Chaos harness: seeded random fault schedules against a Troxy cluster
// with safety and liveness checking.
//
// One run builds a TroxyCluster over the EchoService, drives a closed-loop
// workload from several legacy clients, executes a FaultPlan (explicit or
// generated from the seed: host crash/restart, partitions, link flaps,
// loss windows) and checks two invariants:
//
//   Safety   — every voted reply is consistent with a linearizable history
//              of the echo service. EchoService makes this checkable
//              without instrumenting the replicas: write acks carry the
//              version they installed and read replies are deterministic
//              functions of (key, version), so the checker only needs a
//              monotonic per-key low-water mark of committed versions.
//              (Client failover can re-execute a write under a new request
//              id — ordinary at-least-once retry semantics — so upper
//              bounds are deliberately not asserted.)
//   Liveness — once every fault heals, all client requests complete within
//              the horizon and a quorum of replicas converges to an
//              identical service state.
//
// Everything derives from ChaosOptions::seed: the same seed replays the
// same fault schedule, the same message interleaving and the same
// network counters, bit for bit.
#pragma once

#include <string>
#include <vector>

#include "hybster/config.hpp"
#include "sim/fault_plan.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"
#include "troxy/host.hpp"

namespace troxy::bench {

/// One chaos scenario. The replica and host pipeline knobs come from the
/// two bases; their defaults keep chaos runs on the unbatched, uncoalesced,
/// serial, free-transport flow, and batching scenarios opt in.
struct ChaosOptions : hybster::PipelineOptions,
                      troxy_core::HostPipelineOptions {
    std::uint64_t seed = 1;
    /// Scheduler engine under test (ClusterOptions::scheduler). The A/B
    /// determinism test runs the same seed under both engines and demands
    /// identical verdicts, traces and counters.
    sim::Simulator::Scheduler scheduler =
        sim::Simulator::Scheduler::Calendar;

    // Workload.
    int clients = 3;
    int requests_per_client = 40;
    int keys = 4;
    double write_fraction = 0.5;
    std::size_t reply_size = 128;
    /// Mean exponential think time between a reply and the next request,
    /// pacing each client so the workload overlaps the fault window
    /// instead of draining before the first fault fires.
    sim::Duration think_time = sim::milliseconds(150);

    // Cluster. A small checkpoint interval makes state transfer exercised
    // by short runs.
    hybster::SequenceNumber checkpoint_interval = 8;

    // Rolling-restart mode: instead of a random plan, crash and restart
    // every host in sequence inside [fault_start, heal_by] — a rolling
    // upgrade under load, each host down for 400 ms or less. Combine with
    // enclave_recovery_period to also recover every enclave during the
    // run.
    bool rolling_restart = false;

    /// Minimum acceptable aggregate fast-read hit rate
    /// (hits / (hits + misses + conflicts)) after the run; 0 disables the
    /// check. Counts a violation, not an assert, when breached.
    double fastread_hitrate_floor = 0.0;

    /// Shard count (ClusterOptions::shard_count): 1 runs one replica
    /// group that clients contact directly; >1 splits the workload's
    /// "k<i>" key universe evenly over the groups and drives everything
    /// through the routing front.
    int shards = 1;
    /// Fraction of writes issued as two-key multiwrites (EchoService
    /// op 2) whose partner key usually lives on another shard, forcing
    /// the front's ordered cross-shard commit lane. 0 keeps the
    /// workload's rng stream untouched so unsharded seeds replay
    /// bit-identically.
    double cross_shard_fraction = 0.0;
    /// Routing fronts over the sharded deployment
    /// (ClusterOptions::front_count); clients hash across them. Only
    /// meaningful with shards > 1.
    int fronts = 1;
    /// Cross-shard commits allowed in flight per front
    /// (ShardFrontHost::Options::cross_pipeline_depth): 0 = unbounded
    /// pipelining through the per-key lock table, 1 = the serialized
    /// single-commit lane.
    std::size_t cross_pipeline_depth = 0;
    /// Front-tier fault injection: crash front index `front_crash` at
    /// `front_crash_at` and restart it at `front_restart_at` (0 = never).
    /// front_crash < 0 disables. A front crash mid cross-shard commit
    /// kills connection state and in-flight forwards; the front's
    /// clients fail over to the next front on the ring and retransmit.
    int front_crash = -1;
    sim::SimTime front_crash_at = 0;
    sim::SimTime front_restart_at = 0;

    // Fault schedule: faults are injected inside [fault_start, heal_by];
    // the run ends at `horizon`, leaving time to recover and drain.
    sim::SimTime fault_start = sim::seconds(1);
    sim::SimTime heal_by = sim::seconds(8);
    sim::SimTime horizon = sim::seconds(30);

    /// Explicit schedule; when empty, a random plan is generated from the
    /// seed (sim::FaultPlan::random: one crash, partition, link flap and
    /// loss window each).
    sim::FaultPlan plan;
};

/// Per-shard observability for sharded chaos runs.
struct ShardChaosReport {
    std::uint64_t forwarded = 0;  // requests the front tier routed here
};

struct ChaosReport {
    std::uint64_t issued = 0;
    std::uint64_t completed = 0;
    std::uint64_t violations = 0;
    std::vector<std::string> errors;  // one line per violation

    // Observability.
    std::uint64_t failovers = 0;
    std::uint64_t view_changes = 0;    // max over replicas
    std::uint64_t state_transfers = 0; // sum over replicas
    std::uint64_t restarts = 0;        // sum over hosts
    std::uint64_t messages_sent = 0;
    std::uint64_t bytes_sent = 0;
    sim::DropCounters drops;
    /// Share of wire-buffer acquires the network pool served from stock.
    double pool_hit_rate = 0.0;  // hits / (hits + misses)
    std::string plan_trace;  // reproduction trace (describe() of the plan)

    // Recovery observability (sums over hosts unless noted).
    std::uint64_t enclave_recoveries = 0;
    double fast_read_hit_rate = 0.0;  // hits / (hits+misses+conflicts)
    std::uint64_t st_transfers_resumed = 0;  // state transfers resumed

    // Sharded-run observability (empty/zero in unsharded runs; counters
    // are sums over the front tier unless noted).
    std::uint64_t cross_shard_commits = 0;  // completed two-shard commits
    std::uint64_t multiwrites_issued = 0;   // two-key ops the workload sent
    int router_fanout = 0;                  // upstream sessions (== S)
    int front_count = 0;                    // fronts in the tier
    std::uint64_t front_restarts = 0;       // front crash recoveries
    std::vector<ShardChaosReport> shards;

    /// Safety held and every request completed.
    [[nodiscard]] bool ok() const noexcept {
        return violations == 0 && completed == issued && issued > 0;
    }
};

/// Runs one seeded chaos scenario to completion and reports.
ChaosReport run_chaos(const ChaosOptions& options);

}  // namespace troxy::bench

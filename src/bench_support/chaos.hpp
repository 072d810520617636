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
#include "sim/cost.hpp"
#include "sim/fault_plan.hpp"
#include "sim/network.hpp"
#include "sim/pool.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace troxy::bench {

struct ChaosOptions {
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
    /// Ordering batch knobs (see hybster::Config). Defaults keep chaos
    /// runs on the unbatched flow; batching scenarios opt in.
    std::size_t batch_size_max = 1;
    sim::Duration batch_delay = 0;
    /// Voter batching and wire coalescing (TroxyReplicaHost::Options /
    /// ClusterOptions::coalesce_wire); defaults reproduce the per-reply
    /// ecall, per-message record flow.
    std::size_t voter_batch_max = 1;
    bool coalesce_wire = false;
    /// Transport send-cost profile (ClusterOptions::transport); none()
    /// keeps the seed's free-transport model. A bypass profile also arms
    /// the network's per-peer credit window under the fault schedule, and
    /// its scatter_gather flag stages only the framing of coalesced
    /// bursts (meaningful with coalesce_wire).
    sim::TransportProfile transport = sim::TransportProfile::none();
    /// Fast-read query batching and batched reply certification
    /// (TroxyReplicaHost::Options); defaults keep the per-query,
    /// per-reply ecall flow.
    std::size_t fastread_batch_max = 1;
    bool batch_reply_auth = false;
    /// Modeled execution lanes per replica (hybster::Config); the default
    /// keeps chaos runs on the serial execution flow.
    std::size_t execution_lanes = 1;
    /// Merkle-incremental state-transfer knobs: chunk granularity and the
    /// retry that resumes half-finished transfers. Independently
    /// schedulable from checkpoint_interval so recovery scenarios can
    /// tune checkpoint cadence and transfer granularity separately.
    std::size_t state_chunk_size = 4096;
    std::size_t state_chunks_per_message = 64;
    sim::Duration state_transfer_retry = sim::milliseconds(250);
    /// Proactive enclave recovery period (TroxyReplicaHost::Options);
    /// 0 disables the schedule. The cluster staggers the fleet so one
    /// enclave recovers at a time.
    sim::Duration enclave_recovery_period = 0;

    // Rolling-restart mode: instead of a random plan, crash and restart
    // every host in sequence inside [fault_start, heal_by] — a rolling
    // upgrade under load. Combine with enclave_recovery_period to also
    // recover every enclave during the run.
    bool rolling_restart = false;
    /// How long each host stays down during its rolling slot (must stay
    /// below the per-host gap so at most one host is ever down).
    sim::Duration rolling_downtime = sim::milliseconds(400);

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
    /// seed with the event counts below.
    sim::FaultPlan plan;
    int crash_events = 1;
    int partition_events = 1;
    int link_flap_events = 1;
    int loss_events = 1;
    double max_loss = 0.3;
};

/// Per-shard observability for sharded chaos runs: the front's routing
/// counters merged with the shard's replica-group recovery counters.
struct ShardChaosReport {
    std::uint64_t forwarded = 0;  // requests the front routed here
    std::uint64_t replies = 0;    // shard-local replies released
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t cross_participations = 0;
    std::uint64_t fast_read_hits = 0;
    std::uint64_t fast_read_misses = 0;
    std::uint64_t fast_read_conflicts = 0;
    double fast_read_hit_rate = 0.0;
    std::uint64_t view_changes = 0;     // max over the shard's replicas
    std::uint64_t state_transfers = 0;  // sum over the shard's replicas
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
    /// Wire-path observability: payload-buffer pool hit rate and the
    /// transport's credit stalls (zero without a credit window).
    sim::BufferPool::Stats pool;
    double pool_hit_rate = 0.0;  // hits / (hits + misses)
    sim::WireStats wire;
    std::string plan_trace;  // reproduction trace (describe() of the plan)

    // Recovery observability (sums over hosts unless noted).
    std::uint64_t enclave_recoveries = 0;
    std::uint64_t fast_read_hits = 0;
    std::uint64_t fast_read_misses = 0;
    std::uint64_t fast_read_conflicts = 0;
    double fast_read_hit_rate = 0.0;  // hits / (hits+misses+conflicts)
    std::uint64_t st_bytes_sent = 0;      // state-transfer bytes shipped
    std::uint64_t st_bytes_full = 0;      // what full snapshots would cost
    std::uint64_t st_chunks_sent = 0;
    std::uint64_t st_chunks_skipped = 0;  // already held by the rejoiner
    std::uint64_t st_chunks_reused = 0;   // verified from the local store
    std::uint64_t st_transfers_resumed = 0;

    // Sharded-run observability (empty/zero in unsharded runs; counters
    // are sums over the front tier unless noted).
    std::uint64_t cross_shard_commits = 0;  // completed two-shard commits
    std::uint64_t multiwrites_issued = 0;   // two-key ops the workload sent
    std::uint64_t front_requests = 0;       // classified + routed
    std::uint64_t front_released = 0;       // replies sent downstream
    std::uint64_t front_failovers = 0;      // upstream session failovers
    int router_fanout = 0;                  // upstream sessions (== S)
    int front_count = 0;                    // fronts in the tier
    std::uint64_t front_restarts = 0;       // front crash recoveries
    /// Pipelined commit-engine observability: lock-table waits, peak
    /// concurrent commits (max over fronts), and cross-commit latency
    /// percentiles merged over every front's samples.
    std::uint64_t cross_lock_waits = 0;
    std::uint64_t cross_inflight_peak = 0;
    double cross_p50_ms = 0.0;
    double cross_p99_ms = 0.0;
    std::vector<ShardChaosReport> shards;

    /// Safety held and every request completed.
    [[nodiscard]] bool ok() const noexcept {
        return violations == 0 && completed == issued && issued > 0;
    }
};

/// Runs one seeded chaos scenario to completion and reports.
ChaosReport run_chaos(const ChaosOptions& options);

}  // namespace troxy::bench

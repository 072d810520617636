// Experiment runner shared by the figure benchmarks.
//
// Each paper experiment is a (system, workload, network) triple; this
// module builds the matching cluster, drives the workload for a warmup
// plus measurement window, and returns throughput/latency/behaviour
// counters. Benchmarks stay thin: they sweep parameters and print the
// paper's rows.
#pragma once

#include <string>

#include "bench_support/cluster.hpp"
#include "bench_support/stats.hpp"
#include "bench_support/workload.hpp"

namespace troxy::bench {

enum class SystemKind {
    Baseline,  // original Hybster + client-side library ("BL")
    CTroxy,    // Troxy outside the enclave (JNI-only costs)
    ETroxy,    // Troxy inside the simulated enclave
};

[[nodiscard]] std::string system_name(SystemKind kind);

struct MicroParams {
    // --- workload ---
    bool read_workload = false;  // reads (10 B req / reply_size) instead of
                                 // writes (request_size / 10 B ack)
    std::size_t request_size = 256;
    std::size_t reply_size = 10;
    double write_fraction = 0.0;  // mixed workload share of writes
    int key_count = 16;

    // --- load ---
    int clients = 40;
    int pipeline = 4;
    sim::SimTime warmup = sim::milliseconds(300);
    sim::Duration window = sim::seconds(1);

    // --- environment ---
    bool wan = false;
    sim::Duration lan_jitter = 0;  // see ClusterOptions::lan_jitter
    std::uint64_t seed = 42;

    // --- system knobs ---
    bool baseline_optimistic_reads = false;  // PBFT-like read optimization
    bool fast_reads = true;                  // Troxy fast-read cache
    bool adaptive_monitor = true;            // total-order fallback switch
    double monitor_threshold = 0.5;          // miss rate that disables fast reads
    sim::EnclaveCosts enclave_costs = sim::EnclaveCosts::sgx_v1();
    /// Ordering batch knobs (see hybster::Config): requests per Prepare
    /// and max hold time before an incomplete batch is cut.
    std::size_t batch_size_max = 1;
    sim::Duration batch_delay = 0;
    /// Voter batch knob (TroxyReplicaHost::Options): replies per
    /// handle_replies ecall (1 = one ecall per reply, the paper's flow).
    std::size_t voter_batch_max = 1;
    /// Coalesce replica flush bursts into one Bundle frame / one AEAD
    /// record per destination.
    bool coalesce_wire = false;
    /// Clients seal same-instant send bursts into one channel record.
    bool coalesce_client_sends = false;
    /// Certify a whole executed batch's replies in one
    /// authenticate_replies ecall (1 transition per executed batch).
    bool batch_reply_auth = false;
    /// Fast-read batch knob (TroxyReplicaHost::Options): buffered cache
    /// queries per CacheQueryBatch burst (1 = one wire message and one
    /// remote ecall per query, the seed flow).
    std::size_t fastread_batch_max = 1;
    /// Modeled execution lanes per replica (hybster::Config);
    /// 1 = serial execution, the seed flow.
    std::size_t execution_lanes = 1;
};

struct MicroResult {
    Row row;
    // Troxy-side behaviour counters (zero for the baseline).
    std::uint64_t fast_read_hits = 0;
    std::uint64_t fast_read_misses = 0;
    std::uint64_t fast_read_conflicts = 0;
    std::uint64_t ordered_requests = 0;
    std::uint64_t mode_switches = 0;
    // Baseline read-optimization counters.
    std::uint64_t optimistic_attempts = 0;
    std::uint64_t read_conflicts = 0;
    // Hot-path cost counters (Troxy systems only): total enclave ecall
    // transitions, the voter's batched-ecall split, and the simulated
    // wire totals (records after coalescing).
    std::uint64_t enclave_transitions = 0;
    std::uint64_t reply_batches = 0;
    std::uint64_t batched_replies = 0;
    std::uint64_t reply_auth_batches = 0;
    std::uint64_t batch_authenticated_replies = 0;
    std::uint64_t cache_query_batches = 0;
    std::uint64_t batched_cache_queries = 0;
    std::uint64_t cache_response_batches = 0;
    std::uint64_t batched_cache_responses = 0;
    std::uint64_t wire_messages = 0;
    std::uint64_t wire_bytes = 0;
    // Execution-lane counters (summed over replicas; zero with one lane).
    std::uint64_t exec_scheduled_batches = 0;
    std::uint64_t exec_scheduled_requests = 0;
    std::uint64_t exec_conflict_stalls = 0;
    std::uint64_t exec_lanes_used_sum = 0;
    std::uint64_t exec_serial_ns = 0;   // serial cost of scheduled batches
    std::uint64_t exec_charged_ns = 0;  // makespan actually charged
    // Enclave batch-invalidation split and fallback pre-batching.
    std::uint64_t cache_invalidations = 0;
    std::uint64_t invalidations_saved = 0;
    std::uint64_t fallback_prebatches = 0;
    std::uint64_t prebatched_fallbacks = 0;

    /// Fraction of read attempts that ended in a *conflict*: for BL,
    /// optimistic reads whose replies disagreed and had to be re-ordered;
    /// for Troxy, fast reads whose remote cache comparison failed. Local
    /// cache misses are not conflicts — they are the conservative
    /// invalidation at work (the read is simply ordered).
    [[nodiscard]] double conflict_rate() const;
};

/// Runs one microbenchmark configuration (§VI-C).
MicroResult run_micro(SystemKind system, const MicroParams& params);

// ----------------------------------------------------------- HTTP service

enum class HttpSystem { Standalone, Baseline, Prophecy, Troxy };

[[nodiscard]] std::string http_system_name(HttpSystem system);

struct HttpParams {
    int clients = 100;
    double total_rate_per_sec = 500.0;  // across all clients (§VI-D)
    double post_fraction = 0.1;
    int page_count = 32;
    bool wan = false;
    sim::SimTime warmup = sim::milliseconds(500);
    sim::Duration window = sim::seconds(4);
    std::uint64_t seed = 7;
};

/// Runs the §VI-D HTTP latency experiment for one system.
Row run_http(HttpSystem system, const HttpParams& params);

}  // namespace troxy::bench

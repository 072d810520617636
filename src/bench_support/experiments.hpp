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

/// One microbenchmark cell. The replica and host pipeline knobs come from
/// the two bases and reach the cluster unchanged; coalesce_wire also
/// coalesces the clients' same-instant send bursts.
struct MicroParams : hybster::PipelineOptions,
                     troxy_core::HostPipelineOptions {
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
};

struct MicroResult {
    Row row;
    /// Troxy counters summed over the replicas (zero for the baseline).
    troxy_core::TroxyEnclave::Status troxy;
    // Baseline read-optimization counters.
    std::uint64_t optimistic_attempts = 0;
    std::uint64_t read_conflicts = 0;
    // Simulated wire totals (records after coalescing; Troxy systems
    // only).
    std::uint64_t wire_messages = 0;
    std::uint64_t wire_bytes = 0;

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

// Figure 10 (§VI-C3): concurrency handling — 1% writes among reads.
//
// The writes invalidate cache entries / outdate optimistic read results,
// so both read optimizations suffer conflicts:
//   * BL's PBFT-like optimization re-orders a read whenever the f+1
//     optimistic replies disagree (paper: ~50% of reads conflict, pushing
//     BL to about half of its all-ordered reference throughput);
//   * Troxy's cache invalidation turns subsequent reads into ordered
//     requests before they can conflict (paper: ~14% observed conflicts),
//     landing slightly below Troxy's own reference;
//   * the optimized Troxy monitors the miss rate and switches to
//     total-order mode when fast reads stop paying off, guaranteeing the
//     reference throughput as a lower bound.
//
// Reference rows execute every read through the ordering protocol
// (optimizations disabled).
#include <cstdio>

#include "bench_support/experiments.hpp"
#include "crypto/fastmode.hpp"

int main() {
    troxy::crypto::set_fast_crypto(true);
    using namespace troxy::bench;

    std::printf("Figure 10: concurrency handling (99%% reads, 1%% writes,\n");
    std::printf("local network, contended keys)\n");

    MicroParams base;
    base.read_workload = true;
    base.write_fraction = 0.01;
    base.reply_size = 1024;
    base.key_count = 1;  // one hot key → real write contention
    base.clients = 64;
    base.pipeline = 8;
    // Real testbeds de-synchronize replicas (GC pauses, switch queueing);
    // the conflict phenomenon depends on it (see ClusterOptions).
    base.lan_jitter = troxy::sim::microseconds(800);

    std::vector<Row> rows;

    // BL reference: no read optimization, everything ordered.
    MicroParams bl_ref = base;
    bl_ref.baseline_optimistic_reads = false;
    Row bl_ref_row = run_micro(SystemKind::Baseline, bl_ref).row;
    bl_ref_row.label = "BL reference (all ordered)";
    rows.push_back(bl_ref_row);

    // BL with the PBFT-like read optimization under write contention.
    MicroParams bl_opt = base;
    bl_opt.baseline_optimistic_reads = true;
    MicroResult bl_result = run_micro(SystemKind::Baseline, bl_opt);
    bl_result.row.label = "BL read optimization";
    rows.push_back(bl_result.row);

    // Troxy reference: fast reads disabled.
    MicroParams troxy_ref = base;
    troxy_ref.fast_reads = false;
    Row troxy_ref_row = run_micro(SystemKind::ETroxy, troxy_ref).row;
    troxy_ref_row.label = "Troxy reference (all ordered)";
    rows.push_back(troxy_ref_row);

    // Troxy fast reads without the adaptive monitor.
    MicroParams troxy_plain = base;
    troxy_plain.adaptive_monitor = false;
    MicroResult troxy_result = run_micro(SystemKind::ETroxy, troxy_plain);
    troxy_result.row.label = "Troxy fast-read cache";
    rows.push_back(troxy_result.row);

    // Optimized Troxy: miss-rate monitor may switch to total-order mode.
    MicroParams troxy_adaptive = base;
    troxy_adaptive.adaptive_monitor = true;
    MicroResult adaptive_result =
        run_micro(SystemKind::ETroxy, troxy_adaptive);
    adaptive_result.row.label = "Troxy optimized (adaptive)";
    rows.push_back(adaptive_result.row);

    print_table("99% reads / 1% writes", rows, /*ratio_vs_first=*/true);

    std::printf("\nconflict rates:\n");
    std::printf("  BL read optimization : %5.1f%% of optimistic reads "
                "re-ordered\n",
                100.0 * bl_result.conflict_rate());
    std::printf("  Troxy fast reads     : %5.1f%% of fast-read attempts "
                "missed/conflicted\n",
                100.0 * troxy_result.conflict_rate());
    std::printf("  Troxy optimized      : %5.1f%% (mode switches: %llu)\n",
                100.0 * adaptive_result.conflict_rate(),
                static_cast<unsigned long long>(
                    adaptive_result.troxy.mode_switches));
    return 0;
}

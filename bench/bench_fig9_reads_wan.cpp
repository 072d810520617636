// Figure 9 (§VI-C2): read-only workload with WAN clients.
//
// The abstract's headline: for read-heavy workloads over a wide-area
// network Troxy improves throughput by ~130%. Mechanism: the BL read
// optimization pulls 2f+1 full-size replies across the clients' WAN
// downlink per read, while a Troxy fast read sends exactly one — and the
// Troxies only exchange reply *hashes* among themselves (§VI-C2).
//
// Paper shape: etroxy −33% at 256 B replies, ≥ +15% above 1 KB, growing
// with reply size.
#include <cstdio>

#include "bench_support/experiments.hpp"
#include "crypto/fastmode.hpp"

int main() {
    troxy::crypto::set_fast_crypto(true);
    using namespace troxy::bench;

    std::printf("Figure 9: read-only requests, WAN clients\n");
    std::printf("(10 B requests, replies of varying size, 100±20 ms\n");
    std::printf(" client links)\n");

    for (const std::size_t reply : {256u, 1024u, 4096u, 8192u}) {
        MicroParams params;
        params.read_workload = true;
        params.write_fraction = 0.0;
        params.reply_size = reply;
        params.baseline_optimistic_reads = true;
        params.wan = true;
        params.clients = 100;
        params.pipeline = 320;
        params.warmup = troxy::sim::milliseconds(1000);
        params.window = troxy::sim::seconds(2);

        std::vector<Row> rows;
        for (const SystemKind system :
             {SystemKind::Baseline, SystemKind::ETroxy}) {
            rows.push_back(run_micro(system, params).row);
        }
        {
            // Batched read pipeline on top of the WAN win: server-side
            // ecall amortization is orthogonal to the downlink savings.
            MicroParams batched = params;
            batched.fastread_batch_max = 16;
            batched.voter_batch_max = 16;
            batched.batch_reply_auth = true;
            batched.coalesce_wire = true;
            MicroResult result = run_micro(SystemKind::ETroxy, batched);
            result.row.label = "etroxy r=16";
            rows.push_back(result.row);
        }
        print_table("reply size " + std::to_string(reply) + " B (WAN)",
                    rows);
    }
    return 0;
}

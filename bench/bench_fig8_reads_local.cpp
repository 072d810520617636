// Figure 8 (§VI-C2): read-only workload, local network.
//
// Requests are 10 B, replies 256 B / 1 KB / 4 KB / 8 KB. BL uses the
// PBFT-like read optimization (non-ordered execution at all replicas, the
// client accepts f+1 identical replies); Troxy serves reads from its
// managed fast-read cache (local hit + f matching remote cache hashes).
//
// Paper shape: at 256 B replies the server-side voter costs etroxy up to
// 115% vs BL; as replies grow the cheap hash-only cache coordination and
// the single full-size reply win — etroxy overtakes around 4 KB and is
// ~30% ahead at 8 KB.
#include <cstdio>

#include "bench_support/experiments.hpp"
#include "crypto/fastmode.hpp"

int main() {
    troxy::crypto::set_fast_crypto(true);
    using namespace troxy::bench;

    std::printf("Figure 8: read-only requests, local network\n");
    std::printf("(10 B requests, replies of varying size; BL = PBFT-like\n");
    std::printf(" read optimization, Troxy = fast-read cache)\n");

    for (const std::size_t reply : {256u, 1024u, 4096u, 8192u}) {
        MicroParams params;
        params.read_workload = true;
        params.write_fraction = 0.0;
        params.reply_size = reply;
        params.baseline_optimistic_reads = true;
        params.clients = 64;
        params.pipeline = 8;

        std::vector<Row> rows;
        std::vector<MicroResult> results;
        for (const SystemKind system :
             {SystemKind::Baseline, SystemKind::ETroxy}) {
            results.push_back(run_micro(system, params));
            rows.push_back(results.back().row);
        }
        {
            // Batched read pipeline: cache-query bursts, batched response
            // application, batched reply certification, coalesced records.
            MicroParams batched = params;
            batched.fastread_batch_max = 16;
            batched.voter_batch_max = 16;
            batched.batch_reply_auth = true;
            batched.coalesce_wire = true;
            MicroResult result = run_micro(SystemKind::ETroxy, batched);
            result.row.label = "etroxy r=16";
            results.push_back(std::move(result));
            rows.push_back(results.back().row);
        }
        print_table("reply size " + std::to_string(reply) + " B", rows);
        const MicroResult& troxy_result = results.back();
        std::printf("  troxy fast reads: %llu hits, %llu ordered, "
                    "%llu conflicts\n",
                    static_cast<unsigned long long>(
                        troxy_result.troxy.fast_read_hits),
                    static_cast<unsigned long long>(
                        troxy_result.troxy.ordered_requests),
                    static_cast<unsigned long long>(
                        troxy_result.troxy.fast_read_conflicts));
    }
    return 0;
}

// Ablation: how much of etroxy's overhead is the enclave boundary?
//
// Sweeps the modelled SGX transition cost from free to 4x the calibrated
// value at the paper's most transition-sensitive point (256 B writes,
// local network). At cost 0 etroxy collapses onto ctroxy-minus-JNI; at
// the calibrated value it shows the paper's ~43% loss.
#include <cstdio>

#include "bench_support/experiments.hpp"
#include "crypto/fastmode.hpp"

int main() {
    troxy::crypto::set_fast_crypto(true);
    using namespace troxy::bench;

    std::printf("Ablation: enclave transition cost sweep\n");
    std::printf("(256 B writes, local network; baseline BL for scale)\n");

    MicroParams params;
    params.read_workload = false;
    params.request_size = 256;
    params.clients = 64;
    params.pipeline = 8;

    std::vector<Row> rows;
    rows.push_back(run_micro(SystemKind::Baseline, params).row);

    const double calibrated =
        troxy::sim::EnclaveCosts::sgx_v1().ecall_transition_ns;
    for (const double factor : {0.0, 0.5, 1.0, 2.0, 4.0}) {
        MicroParams swept = params;
        swept.enclave_costs = troxy::sim::EnclaveCosts::sgx_v1();
        swept.enclave_costs.ecall_transition_ns = calibrated * factor;
        swept.enclave_costs.ocall_transition_ns = calibrated * factor;
        MicroResult result = run_micro(SystemKind::ETroxy, swept);
        result.row.label = "etroxy, transition x" + std::to_string(factor)
                               .substr(0, 3);
        std::printf("  [%s] %llu ecall transitions\n",
                    result.row.label.c_str(),
                    static_cast<unsigned long long>(
                        result.troxy.enclave_transitions));
        rows.push_back(result.row);
    }
    print_table("transition-cost sweep", rows);

    // The orthogonal lever: instead of making each transition cheaper,
    // make fewer of them. Batched voting + wire coalescing at the
    // calibrated transition cost — the transition count itself drops.
    {
        std::vector<Row> vote_rows;
        for (const std::size_t voter : {std::size_t{1}, std::size_t{16}}) {
            MicroParams swept = params;
            swept.voter_batch_max = voter;
            swept.coalesce_wire = voter > 1;
            MicroResult result = run_micro(SystemKind::ETroxy, swept);
            result.row.label =
                "etroxy, voter batch " + std::to_string(voter);
            const auto& t = result.troxy;
            std::printf(
                "  [%s] %llu ecall transitions (%llu reply batches, "
                "%llu batched replies)\n",
                result.row.label.c_str(),
                static_cast<unsigned long long>(t.enclave_transitions),
                static_cast<unsigned long long>(t.reply_batches),
                static_cast<unsigned long long>(t.batched_replies));
            vote_rows.push_back(result.row);
        }
        print_table("batched voter (calibrated transition cost)",
                    vote_rows);
    }

    // The same lever on the read path: a fast read costs ~3 transitions
    // (handle_request, the remote handle_cache_queries, the contact's
    // handle_cache_responses). Read-path batching collapses these to
    // per-burst — the transition count drops from per-request to
    // per-burst while throughput rises.
    {
        std::vector<Row> read_rows;
        for (const std::size_t read_batch :
             {std::size_t{1}, std::size_t{16}}) {
            MicroParams swept = params;
            swept.read_workload = true;
            swept.reply_size = 1024;
            swept.fastread_batch_max = read_batch;
            swept.voter_batch_max = read_batch;
            swept.batch_reply_auth = read_batch > 1;
            swept.coalesce_wire = read_batch > 1;
            MicroResult result = run_micro(SystemKind::ETroxy, swept);
            result.row.label =
                "etroxy, read batch " + std::to_string(read_batch);
            const auto& t = result.troxy;
            const double per_request =
                result.row.throughput > 0.0
                    ? static_cast<double>(t.enclave_transitions) /
                          (t.fast_read_hits + t.ordered_requests + 1.0)
                    : 0.0;
            std::printf(
                "  [%s] %llu ecall transitions (%.2f per served request; "
                "%llu query batches / %llu batched queries)\n",
                result.row.label.c_str(),
                static_cast<unsigned long long>(t.enclave_transitions),
                per_request,
                static_cast<unsigned long long>(t.cache_query_batches),
                static_cast<unsigned long long>(t.batched_cache_queries));
            read_rows.push_back(result.row);
        }
        print_table("batched fast reads (calibrated transition cost)",
                    read_rows);
    }
    return 0;
}

// Voting sweep: end-to-end Troxy throughput as a function of the voter
// batch size (replies per handle_replies ecall) crossed with the ordering
// batch size.
//
// Fig. 6-style workload (256 B writes, 10 B acks, local network, closed
// loop at saturation) swept over voter_batch × batch_size_max over
// {1, 4, 16, 64} for ctroxy and etroxy. A voter batch enters the enclave
// through ONE ecall transition and amortizes the per-source certificate
// MAC base across the batch; wire coalescing (enabled together with the
// voter batch) seals each flush burst into one AEAD record per
// destination. voter_batch = 1 runs the paper's flow — one
// handle_replies ecall per reply, one record per message, no
// coalescing — and anchors the speedup column.
//
// Each row also reports the observable mechanism counters: total Troxy
// ecall transitions, the handle_replies batch split, and simulated wire
// records — at voter batch N the transition count drops roughly N× on
// the reply path while throughput rises.
//
// Flags: --smoke     reduced configuration for CI (ctroxy only, fewer
//                    clients, shorter window, sweep {1, 16} x {1, 16})
//        --out PATH  JSON output path (default BENCH_voting.json)
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_support/experiments.hpp"
#include "crypto/fastmode.hpp"

namespace {

using namespace troxy::bench;
namespace sim = troxy::sim;

struct Sample {
    std::string system;
    std::size_t voter_batch;
    std::size_t order_batch;
    MicroResult result;
};

}  // namespace

int main(int argc, char** argv) {
    troxy::crypto::set_fast_crypto(true);

    bool smoke = false;
    std::string out_path = "BENCH_voting.json";
    int clients = 0;
    int pipeline = 0;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0) {
            smoke = true;
        } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
            out_path = argv[++i];
        } else if (std::strcmp(argv[i], "--clients") == 0 && i + 1 < argc) {
            clients = std::atoi(argv[++i]);
        } else if (std::strcmp(argv[i], "--pipeline") == 0 && i + 1 < argc) {
            pipeline = std::atoi(argv[++i]);
        } else {
            std::fprintf(stderr,
                         "usage: %s [--smoke] [--out PATH] [--clients N] "
                         "[--pipeline N]\n",
                         argv[0]);
            return 2;
        }
    }

    const std::vector<std::size_t> batches =
        smoke ? std::vector<std::size_t>{1, 16}
              : std::vector<std::size_t>{1, 4, 16, 64};
    const std::vector<SystemKind> systems =
        smoke ? std::vector<SystemKind>{SystemKind::CTroxy}
              : std::vector<SystemKind>{SystemKind::CTroxy,
                                        SystemKind::ETroxy};

    std::printf("Voting sweep: ordered 256 B writes, local network%s\n",
                smoke ? " (smoke configuration)" : "");
    std::printf("(voter batch = replies per handle_replies ecall; wire\n");
    std::printf(" coalescing seals each flush burst into one record)\n");

    std::vector<Sample> samples;
    for (const SystemKind system : systems) {
        for (const std::size_t order : batches) {
            std::vector<Row> rows;
            double base_throughput = 0.0;
            for (const std::size_t voter : batches) {
                MicroParams params;
                params.read_workload = false;
                params.request_size = 256;
                // Saturation needs enough outstanding requests to keep
                // both the ordering and the voter batches full; thin
                // load underfills batches and understates the speedup.
                params.clients = clients > 0 ? clients : 128;
                params.pipeline = pipeline > 0 ? pipeline : 8;
                if (smoke) params.window = sim::milliseconds(400);
                params.batch_size_max = order;
                params.batch_delay =
                    order > 1 ? sim::microseconds(500) : sim::Duration{0};
                // voter_batch 1 is the seed flow: per-reply ecalls, one
                // record per message, nothing coalesced.
                params.voter_batch_max = voter;
                params.coalesce_wire = voter > 1;
                params.coalesce_client_sends = voter > 1;

                MicroResult result = run_micro(system, params);
                result.row.label = system_name(system) + " v=" +
                                   std::to_string(voter) + " b=" +
                                   std::to_string(order);
                if (voter == 1) base_throughput = result.row.throughput;
                std::printf(
                    "  [%s] %.0f req/s (%.2fx vs v=1)  "
                    "transitions=%llu batches=%llu/%llu wire=%llu\n",
                    result.row.label.c_str(), result.row.throughput,
                    base_throughput > 0.0
                        ? result.row.throughput / base_throughput
                        : 0.0,
                    static_cast<unsigned long long>(
                        result.enclave_transitions),
                    static_cast<unsigned long long>(result.reply_batches),
                    static_cast<unsigned long long>(result.batched_replies),
                    static_cast<unsigned long long>(result.wire_messages));
                rows.push_back(result.row);
                samples.push_back(Sample{system_name(system), voter, order,
                                         std::move(result)});
            }
            print_table("system " + system_name(system) + ", ordering b=" +
                            std::to_string(order),
                        rows);
        }
    }

    // Headline acceptance number: ctroxy end-to-end throughput at voter
    // batch 16 over voter batch 1, at the largest common ordering batch.
    double headline = 0.0;
    {
        const std::size_t order = batches.back();
        double v1 = 0.0;
        double v16 = 0.0;
        for (const Sample& s : samples) {
            if (s.system != "ctroxy" || s.order_batch != order) continue;
            if (s.voter_batch == 1) v1 = s.result.row.throughput;
            if (s.voter_batch == 16) v16 = s.result.row.throughput;
        }
        if (v1 > 0.0) headline = v16 / v1;
        std::printf("ctroxy voter-batch-16 speedup at b=%zu: %.2fx\n",
                    order, headline);
    }

    std::FILE* json = std::fopen(out_path.c_str(), "w");
    if (json == nullptr) {
        std::fprintf(stderr, "cannot open %s for writing\n",
                     out_path.c_str());
        return 1;
    }
    std::fprintf(json, "{\n  \"benchmark\": \"voting_sweep\",\n");
    std::fprintf(json,
                 "  \"workload\": \"ordered 256B writes, local network, "
                 "closed loop\",\n");
    std::fprintf(json, "  \"smoke\": %s,\n", smoke ? "true" : "false");
    std::fprintf(json, "  \"ctroxy_voter16_speedup\": %.3f,\n", headline);
    std::fprintf(json, "  \"results\": [\n");
    for (std::size_t i = 0; i < samples.size(); ++i) {
        const Sample& s = samples[i];
        double base = 0.0;
        for (const Sample& t : samples) {
            if (t.system == s.system && t.order_batch == s.order_batch &&
                t.voter_batch == 1) {
                base = t.result.row.throughput;
            }
        }
        std::fprintf(
            json,
            "    {\"system\": \"%s\", \"voter_batch\": %zu, "
            "\"batch_size_max\": %zu, \"throughput_per_sec\": %.1f, "
            "\"mean_ms\": %.3f, \"p50_ms\": %.3f, \"p99_ms\": %.3f, "
            "\"speedup_vs_voter1\": %.3f, "
            "\"enclave_transitions\": %llu, \"reply_batches\": %llu, "
            "\"batched_replies\": %llu, \"wire_messages\": %llu, "
            "\"wire_bytes\": %llu}%s\n",
            s.system.c_str(), s.voter_batch, s.order_batch,
            s.result.row.throughput, s.result.row.mean_ms,
            s.result.row.p50_ms, s.result.row.p99_ms,
            base > 0.0 ? s.result.row.throughput / base : 0.0,
            static_cast<unsigned long long>(s.result.enclave_transitions),
            static_cast<unsigned long long>(s.result.reply_batches),
            static_cast<unsigned long long>(s.result.batched_replies),
            static_cast<unsigned long long>(s.result.wire_messages),
            static_cast<unsigned long long>(s.result.wire_bytes),
            i + 1 < samples.size() ? "," : "");
    }
    std::fprintf(json, "  ]\n}\n");
    std::fclose(json);
    std::printf("wrote %s\n", out_path.c_str());
    return 0;
}

// Fast-read sweep: end-to-end Troxy read throughput as a function of the
// fast-read batch size (cache queries per CacheQueryBatch burst / remote
// ecall) crossed with the ordering batch size.
//
// Fig. 8-style workload (10 B read requests, 1 KiB replies, local
// network, closed loop at saturation, read-only so the fast-read cache
// stays hot after the first ordered miss per key). The read-batch knob v
// drives the whole read-path amortization stack at once: the contact
// buffers fast-read starts and ships one CacheQueryBatch per remote
// (answered in ONE handle_cache_queries transition), response bursts are
// applied in ONE handle_cache_responses transition, ordered fallbacks
// ride the batched voter, executed batches are certified in ONE
// authenticate_replies transition, and flush bursts coalesce into one
// wire record per destination. read_batch = 1 runs the exact seed flow —
// one wire message and one ecall transition per query/response/reply —
// and anchors the speedup column.
//
// Each row also reports the mechanism counters: total Troxy ecall
// transitions, the cache-query/response batch splits, the
// authenticate_replies split, fast-read hits/conflicts and simulated
// wire records.
//
// Flags: --smoke     reduced configuration for CI (etroxy only, fewer
//                    clients, shorter window, sweep {1, 16} x {1, 16})
//        --out PATH  JSON output path (default BENCH_fastread.json)
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
    std::size_t read_batch;
    std::size_t order_batch;
    MicroResult result;
};

}  // namespace

int main(int argc, char** argv) {
    troxy::crypto::set_fast_crypto(true);

    bool smoke = false;
    std::string out_path = "BENCH_fastread.json";
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
        smoke ? std::vector<SystemKind>{SystemKind::ETroxy}
              : std::vector<SystemKind>{SystemKind::CTroxy,
                                        SystemKind::ETroxy};

    std::printf("Fast-read sweep: 10 B reads / 1 KiB replies, local "
                "network%s\n",
                smoke ? " (smoke configuration)" : "");
    std::printf("(read batch = cache queries per CacheQueryBatch burst / "
                "remote ecall;\n");
    std::printf(" the same knob batches response application, reply "
                "certification\n");
    std::printf(" and wire records)\n");

    std::vector<Sample> samples;
    for (const SystemKind system : systems) {
        for (const std::size_t order : batches) {
            std::vector<Row> rows;
            double base_throughput = 0.0;
            for (const std::size_t read_batch : batches) {
                MicroParams params;
                params.read_workload = true;
                params.reply_size = 1024;
                params.write_fraction = 0.0;
                // Saturation needs enough outstanding reads to fill the
                // query bursts; thin load underfills the batches and
                // understates the speedup.
                params.clients = clients > 0 ? clients : 128;
                params.pipeline = pipeline > 0 ? pipeline : 8;
                if (smoke) params.window = sim::milliseconds(400);
                params.batch_size_max = order;
                // A short hold: ordered traffic is rare in a read
                // workload (cache fills and fallbacks), and a long cut
                // delay only inflates their latency — which gates the
                // strict in-order release of the fast reads behind them.
                params.batch_delay =
                    order > 1 ? sim::microseconds(100) : sim::Duration{0};
                // read_batch 1 is the seed flow: one wire message and one
                // ecall per query/response/reply, nothing coalesced.
                params.fastread_batch_max = read_batch;
                params.voter_batch_max = read_batch;
                params.batch_reply_auth = read_batch > 1;
                params.coalesce_wire = read_batch > 1;

                MicroResult result = run_micro(system, params);
                result.row.label = system_name(system) + " r=" +
                                   std::to_string(read_batch) + " b=" +
                                   std::to_string(order);
                if (read_batch == 1) base_throughput = result.row.throughput;
                const auto& t = result.troxy;
                std::printf(
                    "  [%s] %.0f req/s (%.2fx vs r=1)  transitions=%llu "
                    "qbatches=%llu/%llu rbatches=%llu/%llu hits=%llu "
                    "wire=%llu\n",
                    result.row.label.c_str(), result.row.throughput,
                    base_throughput > 0.0
                        ? result.row.throughput / base_throughput
                        : 0.0,
                    static_cast<unsigned long long>(t.enclave_transitions),
                    static_cast<unsigned long long>(t.cache_query_batches),
                    static_cast<unsigned long long>(t.batched_cache_queries),
                    static_cast<unsigned long long>(t.cache_response_batches),
                    static_cast<unsigned long long>(t.batched_cache_responses),
                    static_cast<unsigned long long>(t.fast_read_hits),
                    static_cast<unsigned long long>(result.wire_messages));
                rows.push_back(result.row);
                samples.push_back(Sample{system_name(system), read_batch,
                                         order, std::move(result)});
            }
            print_table("system " + system_name(system) + ", ordering b=" +
                            std::to_string(order),
                        rows);
        }
    }

    // Headline acceptance number: etroxy end-to-end read throughput at
    // read batch 16 over read batch 1, at the seed ordering batch (1) so
    // only the read-batch knob differs from the seed row. Etroxy is the
    // headline system because enclave transitions — what the batching
    // amortizes — cost the most there.
    double headline = 0.0;
    {
        const std::size_t order = batches.front();
        double r1 = 0.0;
        double r16 = 0.0;
        for (const Sample& s : samples) {
            if (s.system != "etroxy" || s.order_batch != order) continue;
            if (s.read_batch == 1) r1 = s.result.row.throughput;
            if (s.read_batch == 16) r16 = s.result.row.throughput;
        }
        if (r1 > 0.0) headline = r16 / r1;
        std::printf("etroxy read-batch-16 speedup at b=%zu: %.2fx\n", order,
                    headline);
    }

    std::FILE* json = std::fopen(out_path.c_str(), "w");
    if (json == nullptr) {
        std::fprintf(stderr, "cannot open %s for writing\n",
                     out_path.c_str());
        return 1;
    }
    std::fprintf(json, "{\n  \"benchmark\": \"fastread_sweep\",\n");
    std::fprintf(json,
                 "  \"workload\": \"10B reads / 1KiB replies, local "
                 "network, closed loop\",\n");
    std::fprintf(json, "  \"smoke\": %s,\n", smoke ? "true" : "false");
    std::fprintf(json, "  \"fastread_speedup\": %.3f,\n", headline);
    std::fprintf(json, "  \"results\": [\n");
    for (std::size_t i = 0; i < samples.size(); ++i) {
        const Sample& s = samples[i];
        double base = 0.0;
        for (const Sample& t : samples) {
            if (t.system == s.system && t.order_batch == s.order_batch &&
                t.read_batch == 1) {
                base = t.result.row.throughput;
            }
        }
        const auto& troxy = s.result.troxy;
        std::fprintf(
            json,
            "    {\"system\": \"%s\", \"read_batch\": %zu, "
            "\"batch_size_max\": %zu, \"throughput_per_sec\": %.1f, "
            "\"mean_ms\": %.3f, \"p50_ms\": %.3f, \"p99_ms\": %.3f, "
            "\"speedup_vs_read1\": %.3f, "
            "\"enclave_transitions\": %llu, "
            "\"fast_read_hits\": %llu, \"fast_read_conflicts\": %llu, "
            "\"cache_query_batches\": %llu, \"batched_cache_queries\": "
            "%llu, \"cache_response_batches\": %llu, "
            "\"batched_cache_responses\": %llu, \"reply_auth_batches\": "
            "%llu, \"batch_authenticated_replies\": %llu, "
            "\"wire_messages\": %llu, \"wire_bytes\": %llu}%s\n",
            s.system.c_str(), s.read_batch, s.order_batch,
            s.result.row.throughput, s.result.row.mean_ms,
            s.result.row.p50_ms, s.result.row.p99_ms,
            base > 0.0 ? s.result.row.throughput / base : 0.0,
            static_cast<unsigned long long>(troxy.enclave_transitions),
            static_cast<unsigned long long>(troxy.fast_read_hits),
            static_cast<unsigned long long>(troxy.fast_read_conflicts),
            static_cast<unsigned long long>(troxy.cache_query_batches),
            static_cast<unsigned long long>(troxy.batched_cache_queries),
            static_cast<unsigned long long>(troxy.cache_response_batches),
            static_cast<unsigned long long>(troxy.batched_cache_responses),
            static_cast<unsigned long long>(troxy.reply_auth_batches),
            static_cast<unsigned long long>(troxy.batch_authenticated_replies),
            static_cast<unsigned long long>(s.result.wire_messages),
            static_cast<unsigned long long>(s.result.wire_bytes),
            i + 1 < samples.size() ? "," : "");
    }
    std::fprintf(json, "  ]\n}\n");
    std::fclose(json);
    std::printf("wrote %s\n", out_path.c_str());
    return 0;
}

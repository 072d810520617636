// Wire-path benchmark: the kernel-bypass transport profile and its
// scatter-gather staging.
//
// Two parts:
//
//   1. Transport sweep — a ctroxy TroxyCluster under a closed-loop write
//      workload, payload size x transport profile {kernel (sendmsg entry
//      + full staging copy), bypass (doorbell entry + credit window),
//      bypass+zc (bypass with scatter_gather: a coalesced burst stages
//      only its framing, the messages are referenced in place)}.
//      Reports throughput/latency and credit stalls per cell.
//
//   2. Crossover — from the profiles alone: the smallest payload at which
//      the per-byte staging that scatter-gather saves on a coalesced
//      burst of 16 exceeds the per-record saving of a doorbell over a
//      syscall.
//
// Flags: --smoke     reduced payload set and shorter windows for CI
//        --out PATH  JSON output path (default BENCH_wire.json)
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "apps/kv_service.hpp"
#include "bench_support/cluster.hpp"
#include "bench_support/stats.hpp"
#include "bench_support/workload.hpp"
#include "crypto/fastmode.hpp"
#include "sim/pool.hpp"

namespace {

using namespace troxy;
using namespace troxy::bench;
namespace sim = troxy::sim;

struct WireCell {
    std::size_t payload = 0;
    std::string profile;
    double throughput = 0.0;
    double p50_ms = 0.0;
    double p99_ms = 0.0;
    sim::WireStats wire;
    sim::BufferPool::Stats pool;
};

WireCell run_wire_cell(std::size_t payload, const std::string& profile_name,
                       const sim::TransportProfile& transport, bool smoke) {
    TroxyCluster::Params params;
    params.base.seed = 42;
    // Kernel-bypass hardware context: 40 GbE-class NICs, so the sweep
    // compares transport CPU models instead of saturating the paper's
    // 4x1 Gbps links at the first large payload.
    params.base.replica_machine_bandwidth = 40e9;
    params.base.client_machine_bandwidth = 40e9;
    params.base.batch_size_max = 16;
    params.base.batch_delay = sim::microseconds(200);
    params.base.coalesce_wire = true;
    params.base.transport = transport;
    params.host.coalesce_wire = true;
    params.host.voter_batch_max = 16;
    params.host.batch_reply_auth = true;
    params.ctroxy = true;
    params.service = []() { return std::make_unique<apps::KvService>(); };
    params.classifier = [](ByteView request) {
        return apps::KvService().classify(request);
    };
    TroxyCluster cluster(params);

    const sim::SimTime warmup =
        smoke ? sim::milliseconds(200) : sim::milliseconds(300);
    const sim::Duration window =
        smoke ? sim::milliseconds(400) : sim::seconds(1);
    Recorder recorder(warmup, window);

    const std::string value(payload, 'v');
    Workload workload(
        cluster.simulator(), recorder,
        [value](Rng& rng) {
            GeneratedRequest request;
            request.payload = apps::KvService::make_put(
                "k" + std::to_string(rng.next_below(16)), value);
            return request;
        },
        params.base.seed);

    const int clients = smoke ? 16 : 48;
    const int pipeline = smoke ? 4 : 8;
    for (int i = 0; i < clients; ++i) {
        workload.drive_legacy(cluster.add_client(), pipeline);
    }
    cluster.simulator().run_until(recorder.window_end() + sim::seconds(1));

    WireCell cell;
    cell.payload = payload;
    cell.profile = profile_name;
    cell.throughput = recorder.throughput_per_sec();
    cell.p50_ms = recorder.percentile_latency_ms(50);
    cell.p99_ms = recorder.percentile_latency_ms(99);
    cell.wire = cluster.network().wire_stats();
    cell.pool = cluster.network().pool().stats();
    return cell;
}

}  // namespace

int main(int argc, char** argv) {
    troxy::crypto::set_fast_crypto(true);

    bool smoke = false;
    std::string out_path = "BENCH_wire.json";
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0) {
            smoke = true;
        } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
            out_path = argv[++i];
        } else {
            std::fprintf(stderr, "usage: %s [--smoke] [--out PATH]\n",
                         argv[0]);
            return 2;
        }
    }

    // Part 1: end-to-end transport sweep.
    struct Profile {
        std::string name;
        sim::TransportProfile transport;
    };
    sim::TransportProfile scatter_gather = sim::TransportProfile::bypass();
    scatter_gather.scatter_gather = true;
    const std::vector<Profile> profiles = {
        {"kernel", sim::TransportProfile::kernel_nic()},
        {"bypass", sim::TransportProfile::bypass()},
        {"bypass+zc", scatter_gather},
    };
    const std::vector<std::size_t> payloads =
        smoke ? std::vector<std::size_t>{256, 4096}
              : std::vector<std::size_t>{64, 256, 1024, 4096, 16384};

    std::printf("transport sweep: ctroxy, closed-loop puts, batch 16, "
                "coalesced wire%s\n",
                smoke ? " (smoke configuration)" : "");
    std::vector<WireCell> cells;
    for (const std::size_t payload : payloads) {
        for (const Profile& profile : profiles) {
            WireCell cell = run_wire_cell(payload, profile.name,
                                          profile.transport, smoke);
            std::printf(
                "  [payload %5zu %-9s] %7.0f req/s, p50 %.2f ms, "
                "p99 %.2f ms, stalls %llu\n",
                cell.payload, cell.profile.c_str(), cell.throughput,
                cell.p50_ms, cell.p99_ms,
                static_cast<unsigned long long>(cell.wire.credit_stalls));
            cells.push_back(std::move(cell));
        }
    }

    // Part 2: the crossover, from the profile model alone. A coalesced
    // burst of 16 wrapped messages (channel byte + payload) is one
    // Bundle frame; scatter-gather stages only its framing (3-byte head,
    // 4-byte length prefix per message) and saves the per-byte staging
    // of everything else, a saving that grows with the payload. The
    // doorbell's saving over a syscall is a constant per record.
    const sim::TransportProfile kernel_profile =
        sim::TransportProfile::kernel_nic();
    const sim::TransportProfile bypass_profile =
        sim::TransportProfile::bypass();
    const double doorbell_saving_ns =
        kernel_profile.tx_base_ns - bypass_profile.tx_base_ns;
    const std::size_t burst = 16;
    const std::size_t framing_bytes = 3 + 4 * burst;
    long crossover = -1;
    std::printf("staging saved per coalesced burst of %zu:\n", burst);
    for (const std::size_t payload : payloads) {
        const std::size_t frame_bytes = framing_bytes + burst * (1 + payload);
        const double zc_saving_ns =
            bypass_profile.tx_per_byte_ns *
            static_cast<double>(frame_bytes - framing_bytes);
        std::printf("  [payload %5zu] frame %6zu B: scatter-gather saves "
                    "%.0f ns vs %.0f ns doorbell saving\n",
                    payload, frame_bytes, zc_saving_ns, doorbell_saving_ns);
        if (crossover < 0 && zc_saving_ns > doorbell_saving_ns) {
            crossover = static_cast<long>(payload);
        }
    }
    if (crossover >= 0) {
        std::printf("crossover: from payload %ld B the scatter-gather "
                    "saving exceeds the doorbell saving\n",
                    crossover);
    } else {
        std::printf("crossover: not reached in this sweep\n");
    }

    // End-to-end speedups: bypass and bypass+zc vs the kernel profile.
    auto cell_of = [&](std::size_t payload,
                       const std::string& name) -> const WireCell* {
        for (const WireCell& c : cells) {
            if (c.payload == payload && c.profile == name) return &c;
        }
        return nullptr;
    };
    double bypass_speedup_min = 1e9;
    double zc_vs_kernel_min = 1e9;
    for (const std::size_t payload : payloads) {
        const WireCell* kernel = cell_of(payload, "kernel");
        const WireCell* bypass = cell_of(payload, "bypass");
        const WireCell* zc = cell_of(payload, "bypass+zc");
        if (kernel == nullptr || bypass == nullptr || zc == nullptr) {
            continue;
        }
        const double bypass_speedup = bypass->throughput / kernel->throughput;
        const double zc_speedup = zc->throughput / kernel->throughput;
        bypass_speedup_min = std::min(bypass_speedup_min, bypass_speedup);
        zc_vs_kernel_min = std::min(zc_vs_kernel_min, zc_speedup);
        std::printf("  payload %5zu: bypass %.3fx, bypass+zc %.3fx vs "
                    "kernel (zc vs copying bypass %.3fx)\n",
                    payload, bypass_speedup, zc_speedup,
                    zc->throughput / bypass->throughput);
    }

    std::FILE* json = std::fopen(out_path.c_str(), "w");
    if (json == nullptr) {
        std::fprintf(stderr, "cannot open %s for writing\n",
                     out_path.c_str());
        return 1;
    }
    std::fprintf(json, "{\n  \"benchmark\": \"wire_path\",\n");
    std::fprintf(json,
                 "  \"workload\": \"closed-loop kv puts over a ctroxy "
                 "cluster, batch 16, coalesced wire\",\n");
    std::fprintf(json, "  \"smoke\": %s,\n", smoke ? "true" : "false");
    std::fprintf(json, "  \"results\": [\n");
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const WireCell& c = cells[i];
        std::fprintf(
            json,
            "    {\"payload\": %zu, \"profile\": \"%s\", "
            "\"throughput_per_sec\": %.1f, \"p50_ms\": %.3f, "
            "\"p99_ms\": %.3f, \"credit_stalls\": %llu, "
            "\"pool_hits\": %llu, \"pool_misses\": %llu}%s\n",
            c.payload, c.profile.c_str(), c.throughput, c.p50_ms, c.p99_ms,
            static_cast<unsigned long long>(c.wire.credit_stalls),
            static_cast<unsigned long long>(c.pool.hits),
            static_cast<unsigned long long>(c.pool.misses),
            i + 1 < cells.size() ? "," : "");
    }
    std::fprintf(json,
                 "  ],\n  \"summary\": {\"crossover_payload\": %ld, "
                 "\"bypass_speedup_min\": %.3f, "
                 "\"zc_vs_kernel_speedup_min\": %.3f}\n}\n",
                 crossover, bypass_speedup_min, zc_vs_kernel_min);
    std::fclose(json);
    std::printf("wrote %s\n", out_path.c_str());
    return 0;
}

// Production-fleet recovery benchmark: Merkle-incremental state transfer
// versus monolithic snapshots, transfer resume under loss, and the
// rolling-restart chaos scenario with proactive enclave recovery.
//
// Four phases against a Troxy cluster over the echo service:
//
//   full         — a rejoiner with an empty chunk store streams the whole
//                  checkpoint (the monolithic baseline; ratio ~ 1).
//   incremental  — the same rejoiner comes back with its durable store
//                  intact after a small-delta window: responders skip the
//                  advertised chunks, so only the dirtied ones travel.
//                  The headline `incremental_ratio` (bytes shipped /
//                  monolithic bytes) is gated < 0.25 in CI.
//   resume       — a loss window swallows part of the chunk stream; the
//                  250 ms state-transfer retry re-requests with the banked
//                  chunk hashes, so the transfer resumes, not restarts.
//   rolling      — run_chaos with rolling_restart: every replica host is
//                  crash/restarted in sequence and every enclave
//                  proactively recovered under an open client loop, with
//                  linearizability, liveness and a fast-read hit-rate
//                  floor all checked.
//
// Flags: --smoke     reduced configuration for CI (smaller state, shorter
//                    chaos run)
//        --out PATH  JSON output path (default BENCH_recovery.json)
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>

#include "apps/echo_service.hpp"
#include "bench_support/chaos.hpp"
#include "bench_support/cluster.hpp"
#include "crypto/fastmode.hpp"

namespace {

using namespace troxy::bench;
using troxy::Bytes;
using troxy::ByteView;
using troxy::apps::EchoService;
namespace sim = troxy::sim;
namespace core = troxy::troxy_core;

struct TransferSample {
    std::uint64_t bytes_sent = 0;    // chunk payload actually shipped
    std::uint64_t bytes_full = 0;    // monolithic-snapshot cost
    std::uint64_t chunks_sent = 0;
    std::uint64_t chunks_skipped = 0;
    std::uint64_t chunks_reused = 0;
    std::uint64_t resumed = 0;

    [[nodiscard]] double ratio() const {
        return bytes_full == 0
                   ? 0.0
                   : static_cast<double>(bytes_sent) /
                         static_cast<double>(bytes_full);
    }
};

TransferSample snapshot_stats(TroxyCluster& cluster) {
    TransferSample s;
    for (int i = 0; i < cluster.n(); ++i) {
        const auto& stats = cluster.host(i).replica().state_stats();
        s.bytes_sent += stats.bytes_sent;
        s.bytes_full += stats.bytes_full;
        s.chunks_sent += stats.chunks_sent;
        s.chunks_skipped += stats.chunks_skipped;
        s.chunks_reused += stats.chunks_reused;
        s.resumed += stats.transfers_resumed;
    }
    return s;
}

TransferSample diff(const TransferSample& before,
                    const TransferSample& after) {
    TransferSample d;
    d.bytes_sent = after.bytes_sent - before.bytes_sent;
    d.bytes_full = after.bytes_full - before.bytes_full;
    d.chunks_sent = after.chunks_sent - before.chunks_sent;
    d.chunks_skipped = after.chunks_skipped - before.chunks_skipped;
    d.chunks_reused = after.chunks_reused - before.chunks_reused;
    d.resumed = after.resumed - before.resumed;
    return d;
}

TroxyCluster::Params transfer_params(std::uint64_t seed, int chunks_per_msg) {
    TroxyCluster::Params params;
    params.base.seed = seed;
    params.base.checkpoint_interval = 8;
    params.base.state_chunk_size = 128;
    params.base.state_chunks_per_message =
        static_cast<std::size_t>(chunks_per_msg);
    params.service = []() { return std::make_unique<EchoService>(); };
    params.classifier = [](ByteView request) {
        return EchoService().classify(request);
    };
    params.host.vote_timeout = sim::milliseconds(300);
    params.client.connection_timeout = sim::milliseconds(500);
    return params;
}

/// Issues `count` sequential writes cycling over keys [0, keys), then
/// reports completion through `done`.
void drive_writes(core::LegacyClient& client, int count, int keys,
                  std::function<void()> done) {
    auto remaining = std::make_shared<int>(count);
    auto issue = std::make_shared<std::function<void()>>();
    // Weak self-capture: a strong one is a shared_ptr cycle (leak); the
    // async callbacks below keep the chain alive with strong copies.
    *issue = [&client, remaining, keys, weak = std::weak_ptr(issue),
              done = std::move(done)]() {
        if (*remaining == 0) {
            if (done) done();
            return;
        }
        const auto issue = weak.lock();
        if (!issue) return;
        const auto key = static_cast<std::uint64_t>(*remaining % keys);
        --*remaining;
        client.send(EchoService::make_write(key, 64),
                    [issue](Bytes) { (*issue)(); });
    };
    client.start([issue]() { (*issue)(); });
}

/// Runs one rejoin cycle: crash replica 2, run `while_down` writes over
/// `delta_keys` keys, restart it, drain with tail writes, and return the
/// transfer accounting attributable to this cycle.
TransferSample rejoin_cycle(TroxyCluster& cluster, core::LegacyClient& client,
                            sim::SimTime& clock, int while_down,
                            int delta_keys, bool clear_store) {
    cluster.crash_host(2);
    if (clear_store) cluster.host(2).replica().clear_chunk_store();

    bool delta_done = false;
    auto issue = std::make_shared<std::function<void(int)>>();
    *issue = [&, delta_keys](int left) {
        if (left == 0) {
            delta_done = true;
            return;
        }
        client.send(
            EchoService::make_write(
                static_cast<std::uint64_t>(left % delta_keys), 64),
            [&, left](Bytes) { (*issue)(left - 1); });
    };
    (*issue)(while_down);
    clock += sim::seconds(5);
    cluster.simulator().run_until(clock);
    if (!delta_done) std::fprintf(stderr, "warning: delta did not drain\n");

    const TransferSample before = snapshot_stats(cluster);
    cluster.restart_host(2);

    bool tail_done = false;
    auto tail = std::make_shared<std::function<void(int)>>();
    *tail = [&, delta_keys](int left) {
        if (left == 0) {
            tail_done = true;
            return;
        }
        client.send(
            EchoService::make_write(
                static_cast<std::uint64_t>(left % delta_keys), 64),
            [&, left](Bytes) { (*tail)(left - 1); });
    };
    (*tail)(24);
    clock += sim::seconds(15);
    cluster.simulator().run_until(clock);
    if (!tail_done) std::fprintf(stderr, "warning: tail did not drain\n");
    return diff(before, snapshot_stats(cluster));
}

}  // namespace

int main(int argc, char** argv) {
    troxy::crypto::set_fast_crypto(true);

    bool smoke = false;
    std::string out_path = "BENCH_recovery.json";
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

    // Enough keys that a checkpoint spans many 128-byte chunks; the delta
    // window dirties only a handful of them.
    const int keys = smoke ? 512 : 2048;
    const int populate = smoke ? 600 : 2400;
    const int delta_writes = 24;
    const int delta_keys = 8;

    std::printf("Recovery benchmark: Merkle-incremental state transfer%s\n",
                smoke ? " (smoke configuration)" : "");

    // ---------------------------------------------- full vs incremental
    TransferSample full;
    TransferSample incremental;
    {
        TroxyCluster cluster(transfer_params(42, 64));
        auto& client = cluster.add_client(0);
        bool populated = false;
        drive_writes(client, populate, keys, [&]() { populated = true; });
        sim::SimTime clock = sim::seconds(smoke ? 20 : 60);
        cluster.simulator().run_until(clock);
        if (!populated) {
            std::fprintf(stderr, "populate phase did not finish\n");
            return 1;
        }

        // Full baseline: the rejoiner lost its durable store, so the
        // checkpoint streams whole.
        full = rejoin_cycle(cluster, client, clock, delta_writes, delta_keys,
                            /*clear_store=*/true);
        std::printf(
            "  full:        %llu bytes shipped / %llu monolithic "
            "(ratio %.3f, %llu chunks)\n",
            static_cast<unsigned long long>(full.bytes_sent),
            static_cast<unsigned long long>(full.bytes_full), full.ratio(),
            static_cast<unsigned long long>(full.chunks_sent));

        // Incremental: same crash, but the store survives — only the
        // chunks dirtied by the small delta travel.
        incremental = rejoin_cycle(cluster, client, clock, delta_writes,
                                   delta_keys, /*clear_store=*/false);
        std::printf(
            "  incremental: %llu bytes shipped / %llu monolithic "
            "(ratio %.3f, %llu sent, %llu skipped, %llu reused)\n",
            static_cast<unsigned long long>(incremental.bytes_sent),
            static_cast<unsigned long long>(incremental.bytes_full),
            incremental.ratio(),
            static_cast<unsigned long long>(incremental.chunks_sent),
            static_cast<unsigned long long>(incremental.chunks_skipped),
            static_cast<unsigned long long>(incremental.chunks_reused));
    }

    // ------------------------------------------------ resume under loss
    TransferSample resumed;
    {
        TroxyCluster cluster(transfer_params(43, 1));
        auto& client = cluster.add_client(0);
        bool populated = false;
        drive_writes(client, smoke ? 300 : 600, keys / 2,
                     [&]() { populated = true; });
        sim::SimTime clock = sim::seconds(smoke ? 15 : 30);
        cluster.simulator().run_until(clock);
        if (!populated) {
            std::fprintf(stderr, "resume populate did not finish\n");
            return 1;
        }

        cluster.crash_host(2);
        cluster.host(2).replica().clear_chunk_store();
        clock += sim::seconds(2);
        cluster.simulator().run_until(clock);

        const sim::NodeId rejoiner_node = cluster.config().replicas[2];
        for (int i = 0; i < 2; ++i) {
            cluster.network().set_loss_bidirectional(
                cluster.config().replicas[static_cast<std::size_t>(i)],
                rejoiner_node, 0.8);
        }
        const TransferSample before = snapshot_stats(cluster);
        cluster.restart_host(2);
        cluster.simulator().after(sim::seconds(2), [&]() {
            for (int i = 0; i < 2; ++i) {
                cluster.network().set_loss_bidirectional(
                    cluster.config().replicas[static_cast<std::size_t>(i)],
                    rejoiner_node, 0.0);
            }
        });
        bool tail_done = false;
        auto tail = std::make_shared<std::function<void(int)>>();
        *tail = [&](int left) {
            if (left == 0) {
                tail_done = true;
                return;
            }
            client.send(EchoService::make_write(1, 64),
                        [&, left](Bytes) { (*tail)(left - 1); });
        };
        (*tail)(24);
        clock += sim::seconds(20);
        cluster.simulator().run_until(clock);
        if (!tail_done) std::fprintf(stderr, "warning: resume tail stuck\n");
        resumed = diff(before, snapshot_stats(cluster));
        std::printf(
            "  resume:      %llu transfers resumed after the loss window "
            "(%llu chunks skipped on re-request)\n",
            static_cast<unsigned long long>(resumed.resumed),
            static_cast<unsigned long long>(resumed.chunks_skipped));
    }

    // ------------------------------------------------- rolling chaos
    ChaosOptions chaos;
    chaos.seed = 44;
    chaos.clients = 3;
    chaos.requests_per_client = smoke ? 40 : 100;
    chaos.write_fraction = 0.3;  // read-heavy, like the paper's fast path
    chaos.rolling_restart = true;
    // Long enough between recoveries for the wiped caches to re-warm and
    // the fast path to re-enable; every enclave still recovers at least
    // twice inside the horizon.
    chaos.enclave_recovery_period = sim::seconds(10);
    chaos.fault_start = sim::seconds(1);
    chaos.heal_by = smoke ? sim::seconds(7) : sim::seconds(13);
    chaos.horizon = smoke ? sim::seconds(30) : sim::seconds(60);
    chaos.state_chunk_size = 64;
    chaos.fastread_hitrate_floor = 0.02;
    const ChaosReport report = run_chaos(chaos);
    std::printf(
        "  rolling:     %llu/%llu completed, %llu violations, "
        "%llu restarts, %llu enclave recoveries, hit rate %.2f\n",
        static_cast<unsigned long long>(report.completed),
        static_cast<unsigned long long>(report.issued),
        static_cast<unsigned long long>(report.violations),
        static_cast<unsigned long long>(report.restarts),
        static_cast<unsigned long long>(report.enclave_recoveries),
        report.fast_read_hit_rate);
    if (!report.ok()) {
        std::fprintf(stderr, "rolling chaos failed:\n%s\n",
                     report.plan_trace.c_str());
        for (const std::string& error : report.errors) {
            std::fprintf(stderr, "  %s\n", error.c_str());
        }
    }

    std::printf("headline incremental_ratio: %.3f (full baseline %.3f)\n",
                incremental.ratio(), full.ratio());

    std::FILE* json = std::fopen(out_path.c_str(), "w");
    if (json == nullptr) {
        std::fprintf(stderr, "cannot open %s for writing\n",
                     out_path.c_str());
        return 1;
    }
    std::fprintf(json, "{\n  \"benchmark\": \"recovery\",\n");
    std::fprintf(json,
                 "  \"workload\": \"echo writes, Merkle-incremental rejoin "
                 "+ rolling-restart chaos with enclave recovery\",\n");
    std::fprintf(json, "  \"smoke\": %s,\n", smoke ? "true" : "false");
    std::fprintf(json, "  \"incremental_ratio\": %.4f,\n",
                 incremental.ratio());
    std::fprintf(json, "  \"full_ratio\": %.4f,\n", full.ratio());
    std::fprintf(
        json,
        "  \"full\": {\"bytes_sent\": %llu, \"bytes_full\": %llu, "
        "\"chunks_sent\": %llu, \"chunks_skipped\": %llu},\n",
        static_cast<unsigned long long>(full.bytes_sent),
        static_cast<unsigned long long>(full.bytes_full),
        static_cast<unsigned long long>(full.chunks_sent),
        static_cast<unsigned long long>(full.chunks_skipped));
    std::fprintf(
        json,
        "  \"incremental\": {\"bytes_sent\": %llu, \"bytes_full\": %llu, "
        "\"chunks_sent\": %llu, \"chunks_skipped\": %llu, "
        "\"chunks_reused\": %llu},\n",
        static_cast<unsigned long long>(incremental.bytes_sent),
        static_cast<unsigned long long>(incremental.bytes_full),
        static_cast<unsigned long long>(incremental.chunks_sent),
        static_cast<unsigned long long>(incremental.chunks_skipped),
        static_cast<unsigned long long>(incremental.chunks_reused));
    std::fprintf(json, "  \"transfers_resumed\": %llu,\n",
                 static_cast<unsigned long long>(resumed.resumed));
    std::fprintf(
        json,
        "  \"rolling\": {\"ok\": %s, \"issued\": %llu, \"completed\": %llu, "
        "\"violations\": %llu, \"restarts\": %llu, "
        "\"enclave_recoveries\": %llu, \"fast_read_hit_rate\": %.4f, "
        "\"state_transfers_resumed\": %llu}\n",
        report.ok() ? "true" : "false",
        static_cast<unsigned long long>(report.issued),
        static_cast<unsigned long long>(report.completed),
        static_cast<unsigned long long>(report.violations),
        static_cast<unsigned long long>(report.restarts),
        static_cast<unsigned long long>(report.enclave_recoveries),
        report.fast_read_hit_rate,
        static_cast<unsigned long long>(report.st_transfers_resumed));
    std::fprintf(json, "}\n");
    std::fclose(json);
    std::printf("wrote %s\n", out_path.c_str());
    return report.ok() ? 0 : 1;
}

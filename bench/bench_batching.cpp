// Batching sweep: ordered-write throughput/latency at saturation as a
// function of the ordering batch size.
//
// Fig. 6-style workload (256 B writes, 10 B acks, local network, closed
// loop at saturation) swept over batch_size_max ∈ {1, 4, 16, 64}. A batch
// amortizes one Prepare/Commit round — and, crucially, one trusted-counter
// certification per phase — over all member requests, so the leader's
// per-request ordering cost drops roughly linearly until the unamortized
// work (per-request verification, execution, replies) dominates.
//
// batch_size_max = 1 runs the pre-batching message flow and anchors the
// speedup column. Results are also written as JSON (default
// BENCH_batching.json) to seed the repo's performance trajectory.
//
// Flags: --smoke     reduced configuration for CI (fewer clients, shorter
//                    window, sweep {1, 16} only)
//        --out PATH  JSON output path (default BENCH_batching.json)
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "apps/echo_service.hpp"
#include "bench_support/experiments.hpp"
#include "crypto/fastmode.hpp"
#include "hybster/config.hpp"
#include "hybster/messages.hpp"
#include "hybster/replica.hpp"
#include "net/envelope.hpp"

namespace {

using namespace troxy::bench;
namespace sim = troxy::sim;

struct Sample {
    std::string system;
    std::size_t batch;
    Row row;
};

/// Ordering-pipeline measurement: a bare Hybster group driven at its
/// ordering interface, with the per-request client work (MAC check, reply
/// MAC) charged via hooks but without the client channel stack. This
/// isolates the subsystem batching optimizes — the end-to-end systems
/// below add voter/channel costs that batching cannot amortize.
Row run_core(std::size_t batch, sim::Duration delay, int clients,
             int pipeline, sim::Duration window) {
    using namespace troxy;
    namespace hy = troxy::hybster;

    sim::Simulator simulator(123);
    sim::Network network(simulator);
    network.set_default_link(sim::LinkSpec::lan());
    net::Fabric fabric(simulator, network);
    const sim::CostProfile profile = sim::CostProfile::java();

    hy::Config config;
    config.f = 1;
    config.batch_size_max = batch;
    config.batch_delay = delay;
    for (int i = 0; i < 3; ++i) {
        config.replicas.push_back(static_cast<sim::NodeId>(i + 1));
    }

    Recorder recorder(sim::milliseconds(300), window);

    struct Pending {
        int replies = 0;
        sim::SimTime start = 0;
    };
    std::map<std::uint64_t, Pending> pending;
    std::vector<std::unique_ptr<sim::Node>> nodes;
    std::vector<std::unique_ptr<hy::Replica>> replicas;
    std::uint64_t next_number = 0;
    std::function<void()> submit_one;

    const Bytes group_key = to_bytes("bench-batching-group-key");
    for (int i = 0; i < 3; ++i) {
        nodes.push_back(std::make_unique<sim::Node>(
            simulator, config.replicas[static_cast<std::size_t>(i)],
            "r" + std::to_string(i), 8));
        auto trinx = std::make_shared<enclave::TrinX>(
            static_cast<std::uint32_t>(i), group_key);

        hy::Replica::Hooks hooks;
        // One client-MAC verification per request (the signed view is
        // 17 B of header plus the payload — see Request::signed_view).
        hooks.verify_request = [profile](enclave::CostedCrypto& crypto,
                                         const hy::Request& request) {
            crypto.charge(profile.mac(17 + request.payload().size()));
            return true;
        };
        hooks.deliver_replies = [&, profile](enclave::CostedCrypto& crypto,
                                             net::Outbox&,
                                             std::span<hy::ExecutedReply>
                                                 batch) {
            for (const hy::ExecutedReply& member : batch) {
                // Reply MAC toward the client (certified-view size).
                crypto.charge(profile.mac(37 + crypto::kSha256DigestSize +
                                          member.reply.result.size()));
                const auto it =
                    pending.find(member.reply.request_id.number);
                if (it == pending.end()) continue;
                if (++it->second.replies < config.quorum()) continue;
                recorder.record(simulator.now(),
                                simulator.now() - it->second.start);
                pending.erase(it);
                simulator.after(sim::microseconds(1), submit_one);
            }
        };
        replicas.push_back(std::make_unique<hy::Replica>(
            fabric, *nodes.back(), config, static_cast<std::uint32_t>(i),
            std::make_unique<apps::EchoService>(), std::move(trinx),
            profile, std::move(hooks)));
        auto* replica = replicas.back().get();
        fabric.attach(config.replicas[static_cast<std::size_t>(i)],
                      [replica](sim::NodeId from, Bytes message) {
                          auto unwrapped = net::unwrap(message);
                          if (!unwrapped) return;
                          replica->on_message(from, unwrapped->second);
                      });
    }

    const std::uint64_t key_space = 16;
    submit_one = [&]() {
        const std::uint64_t number = ++next_number;
        hy::Request request;
        request.id = {static_cast<sim::NodeId>(
                          1000 + number % static_cast<std::uint64_t>(
                                              clients)),
                      number};
        request.assign(
            apps::EchoService::make_write(number % key_space, 256));
        pending[number].start = simulator.now();
        replicas[0]->submit({std::move(request)});
    };

    // Closed loop: clients × pipeline requests in flight, ramped up across
    // the warmup so measurement starts from steady state.
    const int in_flight = clients * pipeline;
    const sim::Duration stagger =
        sim::milliseconds(300) / (2 * static_cast<unsigned>(in_flight) + 2);
    for (int i = 0; i < in_flight; ++i) {
        simulator.after(stagger * static_cast<unsigned>(i), submit_one);
    }
    simulator.run_until(recorder.window_end() + sim::seconds(2));

    Row row;
    row.throughput = recorder.throughput_per_sec();
    row.mean_ms = recorder.mean_latency_ms();
    row.p50_ms = recorder.percentile_latency_ms(50);
    row.p99_ms = recorder.percentile_latency_ms(99);
    return row;
}

}  // namespace

int main(int argc, char** argv) {
    troxy::crypto::set_fast_crypto(true);
    using namespace troxy::bench;

    bool smoke = false;
    std::string out_path = "BENCH_batching.json";
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
    const std::vector<SystemKind> systems = {
        SystemKind::Baseline, SystemKind::CTroxy, SystemKind::ETroxy};

    std::printf("Batching sweep: ordered 256 B writes, local network%s\n",
                smoke ? " (smoke configuration)" : "");
    std::printf("(one Prepare/Commit round and one trusted-counter\n");
    std::printf(" certification per phase per batch)\n");

    std::vector<Sample> samples;
    auto emit = [&](const std::string& system, std::size_t batch,
                    Row row, std::vector<Row>& rows,
                    double& base_throughput) {
        if (batch == 1) base_throughput = row.throughput;
        row.label = system + " b=" + std::to_string(batch);
        if (base_throughput > 0.0) {
            std::printf("  [%s] %.0f req/s (%.2fx vs b=1)\n",
                        row.label.c_str(), row.throughput,
                        row.throughput / base_throughput);
        }
        rows.push_back(row);
        samples.push_back(Sample{system, batch, row});
    };
    // The delay boundary only matters when load is too thin to fill
    // batches; at saturation the size boundary cuts. batch 1 keeps
    // delay 0 = the exact pre-batching flow.
    const auto delay_for = [](std::size_t batch) {
        return batch > 1 ? sim::microseconds(500) : sim::Duration{0};
    };

    // Headline: the ordering pipeline itself at saturation.
    {
        std::vector<Row> rows;
        double base_throughput = 0.0;
        for (const std::size_t batch : batches) {
            Row row = run_core(
                batch, delay_for(batch),
                clients > 0 ? clients : (smoke ? 24 : 64),
                pipeline > 0 ? pipeline : 8,
                smoke ? sim::milliseconds(400) : sim::seconds(1));
            emit("core", batch, row, rows, base_throughput);
        }
        print_table("hybster ordering pipeline (core)", rows);
    }

    // End-to-end systems for context: the Troxy voter and the client
    // channel stack add per-request work batching cannot amortize. The
    // smoke configuration skips them — at reduced load their batched runs
    // sit far from saturation and the numbers mean nothing.
    for (const SystemKind system : smoke ? std::vector<SystemKind>{}
                                         : systems) {
        std::vector<Row> rows;
        double base_throughput = 0.0;
        for (const std::size_t batch : batches) {
            MicroParams params;
            params.read_workload = false;
            params.request_size = 256;
            // Saturation needs enough outstanding requests to keep large
            // batches full (well beyond fig6's 48×4 operating point).
            params.clients = clients > 0 ? clients : (smoke ? 16 : 128);
            params.pipeline = pipeline > 0 ? pipeline : (smoke ? 4 : 8);
            if (smoke) params.window = sim::milliseconds(400);
            params.batch_size_max = batch;
            params.batch_delay = delay_for(batch);
            emit(system_name(system), batch, run_micro(system, params).row,
                 rows, base_throughput);
        }
        print_table("system " + system_name(system), rows);
    }

    // Troxy systems with the batched voter and wire coalescing riding
    // along: the voter batch matches the ordering batch, so the reply
    // path (ecall transitions, certificate MAC bases, wire records) is
    // amortized at the same granularity as the ordering pipeline. See
    // bench_voting for the full voter x ordering cross sweep.
    for (const SystemKind system :
         smoke ? std::vector<SystemKind>{}
               : std::vector<SystemKind>{SystemKind::CTroxy,
                                         SystemKind::ETroxy}) {
        std::vector<Row> rows;
        double base_throughput = 0.0;
        for (const std::size_t batch : batches) {
            MicroParams params;
            params.read_workload = false;
            params.request_size = 256;
            params.clients = clients > 0 ? clients : 128;
            params.pipeline = pipeline > 0 ? pipeline : 8;
            params.batch_size_max = batch;
            params.batch_delay = delay_for(batch);
            params.voter_batch_max = batch;
            params.coalesce_wire = batch > 1;
            emit(system_name(system) + "+vote", batch,
                 run_micro(system, params).row, rows, base_throughput);
        }
        print_table("system " + system_name(system) + " + batched voter",
                    rows);
    }

    std::FILE* json = std::fopen(out_path.c_str(), "w");
    if (json == nullptr) {
        std::fprintf(stderr, "cannot open %s for writing\n",
                     out_path.c_str());
        return 1;
    }
    std::fprintf(json, "{\n  \"benchmark\": \"batching_sweep\",\n");
    std::fprintf(json,
                 "  \"workload\": \"ordered 256B writes, local network, "
                 "closed loop\",\n");
    std::fprintf(json, "  \"smoke\": %s,\n  \"results\": [\n",
                 smoke ? "true" : "false");
    for (std::size_t i = 0; i < samples.size(); ++i) {
        const Sample& s = samples[i];
        double base = 0.0;
        for (const Sample& t : samples) {
            if (t.system == s.system && t.batch == 1) {
                base = t.row.throughput;
            }
        }
        std::fprintf(
            json,
            "    {\"system\": \"%s\", \"batch_size_max\": %zu, "
            "\"throughput_per_sec\": %.1f, \"mean_ms\": %.3f, "
            "\"p50_ms\": %.3f, \"p99_ms\": %.3f, "
            "\"speedup_vs_batch1\": %.3f}%s\n",
            s.system.c_str(), s.batch, s.row.throughput,
            s.row.mean_ms, s.row.p50_ms, s.row.p99_ms,
            base > 0.0 ? s.row.throughput / base : 0.0,
            i + 1 < samples.size() ? "," : "");
    }
    std::fprintf(json, "  ]\n}\n");
    std::fclose(json);
    std::printf("wrote %s\n", out_path.c_str());
    return 0;
}

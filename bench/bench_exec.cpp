// Execution-lane sweep: ordered kv-write throughput as a function of the
// modeled lane count, the ordering batch size and the workload's
// write-conflict ratio.
//
// A committed batch's modeled CPU time is the makespan of the greedy
// conflict-aware lane schedule (hybster::plan_execution): members sharing
// a state key stay in sequence order on one lane, disjoint keys run on
// parallel lanes. Conflict-free batches therefore approach a lanes-fold
// reduction of the execution stage, while a fully conflicting workload
// (every put hitting one hot key) degenerates to a single chain and gains
// nothing — exactly the spread this sweep shows.
//
// The stock KvService charge (800 ns + size/10) models a trivial
// in-memory map where ordering dominates and lanes have little to bite
// on; the sweep instead wraps it in a compute-heavy kv profile (15 us
// per put, the regime that motivates parallel execution — think
// content-addressed stores or per-key validation logic). Replies and
// checkpoints stay byte-identical across lane counts; only modeled time
// changes.
//
// lanes = 1 runs the serial seed flow and anchors the speedup column.
// Results are also written as JSON (default BENCH_exec.json); the
// headline "exec_speedup" field is the 4-lane vs 1-lane throughput ratio
// on the conflict-free workload at ordering batch 16, gated in CI.
//
// Flags: --smoke     reduced configuration for CI (fewer clients, shorter
//                    window, lanes {1, 4} x batch {16} x conflict {0, 100})
//        --out PATH  JSON output path (default BENCH_exec.json)
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "apps/kv_service.hpp"
#include "bench_support/experiments.hpp"
#include "crypto/fastmode.hpp"
#include "hybster/config.hpp"
#include "hybster/messages.hpp"
#include "hybster/replica.hpp"
#include "net/envelope.hpp"

namespace {

using namespace troxy::bench;
namespace sim = troxy::sim;

/// KvService with a compute-heavy execution-cost model (classification,
/// execution and state handling stay the stock kv semantics, so the
/// conflict classes are the real kv state keys).
class HeavyKvService final : public troxy::hybster::Service {
  public:
    [[nodiscard]] troxy::hybster::RequestInfo classify(
        troxy::ByteView request) const override {
        return kv_.classify(request);
    }
    troxy::Bytes execute(troxy::ByteView request) override {
        return kv_.execute(request);
    }
    [[nodiscard]] troxy::Bytes checkpoint() const override {
        return kv_.checkpoint();
    }
    void restore(troxy::ByteView snapshot) override { kv_.restore(snapshot); }
    [[nodiscard]] sim::Duration execution_cost(
        troxy::ByteView request) const override {
        return sim::microseconds(15) + sim::nanoseconds(request.size() / 10);
    }

  private:
    troxy::apps::KvService kv_;
};

struct Sample {
    std::size_t lanes;
    std::size_t batch;
    int conflict_pct;
    Row row;
    troxy::hybster::Replica::ExecStats exec;
};

/// Deterministic, well-mixed per-request conflict decision: `pct` percent
/// of the puts hit one hot key, the rest cycle through a key pool larger
/// than any batch (so they are conflict-free within a batch but keep the
/// store bounded).
bool is_hot(std::uint64_t number, int pct) {
    std::uint64_t h = number * 0x9E3779B97F4A7C15ull;
    h ^= h >> 33;
    return static_cast<int>(h % 100) < pct;
}

/// Same bare ordering-pipeline harness as bench_batching's run_core —
/// a 3-replica Hybster group driven at its ordering interface with the
/// per-request client work (MAC check, reply MAC) charged via hooks —
/// parameterized over execution lanes and the conflict ratio.
Sample run_lanes(std::size_t lanes, std::size_t batch, int conflict_pct,
                 int clients, int pipeline, sim::Duration window) {
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
    config.batch_delay = batch > 1 ? sim::microseconds(500) : sim::Duration{0};
    config.execution_lanes = lanes;
    // The cold-key pool makes full-state checkpoints expensive; a long
    // interval keeps the periodic snapshot charge from dominating the
    // latency tail of what is an execution-stage measurement.
    config.checkpoint_interval = 1024;
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

    const Bytes group_key = to_bytes("bench-exec-group-key");
    for (int i = 0; i < 3; ++i) {
        nodes.push_back(std::make_unique<sim::Node>(
            simulator, config.replicas[static_cast<std::size_t>(i)],
            "r" + std::to_string(i), 8));
        auto trinx = std::make_shared<enclave::TrinX>(
            static_cast<std::uint32_t>(i), group_key);

        hy::Replica::Hooks hooks;
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
                crypto.charge(profile.mac(37 + crypto::kSha256DigestSize +
                                          member.reply.result.size()));
                const auto it =
                    pending.find(member.reply.request_id.number);
                if (it == pending.end()) continue;
                if (++it->second.replies < config.reply_quorum()) continue;
                recorder.record(simulator.now(),
                                simulator.now() - it->second.start);
                pending.erase(it);
                simulator.after(sim::microseconds(1), submit_one);
            }
        };
        replicas.push_back(std::make_unique<hy::Replica>(
            fabric, *nodes.back(), config, static_cast<std::uint32_t>(i),
            std::make_unique<HeavyKvService>(), std::move(trinx), profile,
            std::move(hooks)));
        auto* replica = replicas.back().get();
        fabric.attach(config.replicas[static_cast<std::size_t>(i)],
                      [replica](sim::NodeId from, Bytes message) {
                          auto unwrapped = net::unwrap_view(message);
                          if (!unwrapped) return;
                          replica->on_message(from, unwrapped->second);
                      });
    }

    // Cold keys cycle through a pool larger than any batch: conflict-free
    // within a batch, bounded kv store across the run.
    const std::uint64_t cold_pool = 4096;
    submit_one = [&]() {
        const std::uint64_t number = ++next_number;
        hy::Request request;
        request.id = {static_cast<sim::NodeId>(
                          1000 + number % static_cast<std::uint64_t>(
                                              clients)),
                      number};
        const std::string key =
            is_hot(number, conflict_pct)
                ? std::string("hot")
                : "k" + std::to_string(number % cold_pool);
        request.assign(
            apps::KvService::make_put(key, std::string(64, 'v')));
        pending[number].start = simulator.now();
        replicas[0]->submit({std::move(request)});
    };

    const int in_flight = clients * pipeline;
    const sim::Duration stagger =
        sim::milliseconds(300) / (2 * static_cast<unsigned>(in_flight) + 2);
    for (int i = 0; i < in_flight; ++i) {
        simulator.after(stagger * static_cast<unsigned>(i), submit_one);
    }
    simulator.run_until(recorder.window_end() + sim::seconds(2));

    Sample sample;
    sample.lanes = lanes;
    sample.batch = batch;
    sample.conflict_pct = conflict_pct;
    sample.row.throughput = recorder.throughput_per_sec();
    sample.row.mean_ms = recorder.mean_latency_ms();
    sample.row.p50_ms = recorder.percentile_latency_ms(50);
    sample.row.p99_ms = recorder.percentile_latency_ms(99);
    // Deterministic execution: every replica commits the same batches, so
    // the scheduler counters agree; report replica 0's.
    sample.exec = replicas[0]->exec_stats();
    return sample;
}

}  // namespace

int main(int argc, char** argv) {
    troxy::crypto::set_fast_crypto(true);
    using namespace troxy::bench;

    bool smoke = false;
    std::string out_path = "BENCH_exec.json";
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

    const std::vector<std::size_t> lane_counts =
        smoke ? std::vector<std::size_t>{1, 4}
              : std::vector<std::size_t>{1, 2, 4, 8};
    const std::vector<std::size_t> batches =
        smoke ? std::vector<std::size_t>{16}
              : std::vector<std::size_t>{1, 16, 64};
    const std::vector<int> conflicts = smoke ? std::vector<int>{0, 100}
                                             : std::vector<int>{0, 50, 100};

    std::printf(
        "Execution-lane sweep: ordered kv puts (compute-heavy profile), "
        "local network%s\n",
        smoke ? " (smoke configuration)" : "");
    std::printf(
        "(batch cost = makespan of the conflict-aware lane schedule)\n");

    std::vector<Sample> samples;
    for (const std::size_t batch : batches) {
        for (const int conflict : conflicts) {
            std::vector<Row> rows;
            double base_throughput = 0.0;
            for (const std::size_t lanes : lane_counts) {
                Sample s = run_lanes(
                    lanes, batch, conflict,
                    clients > 0 ? clients : 64,
                    pipeline > 0 ? pipeline : 16,
                    smoke ? sim::milliseconds(400) : sim::seconds(1));
                if (lanes == 1) base_throughput = s.row.throughput;
                s.row.label = "lanes=" + std::to_string(lanes);
                if (base_throughput > 0.0) {
                    std::printf(
                        "  [b=%zu conflict=%d%% lanes=%zu] %.0f req/s "
                        "(%.2fx vs 1 lane, %llu stalls)\n",
                        batch, conflict, lanes, s.row.throughput,
                        s.row.throughput / base_throughput,
                        static_cast<unsigned long long>(
                            s.exec.conflict_stalls));
                }
                rows.push_back(s.row);
                samples.push_back(std::move(s));
            }
            print_table("batch " + std::to_string(batch) + ", conflict " +
                            std::to_string(conflict) + "%",
                        rows);
        }
    }

    // Headline for the CI gate: conflict-free kv writes at batch 16,
    // 4 lanes vs 1.
    double base = 0.0;
    double four = 0.0;
    for (const Sample& s : samples) {
        if (s.batch == 16 && s.conflict_pct == 0) {
            if (s.lanes == 1) base = s.row.throughput;
            if (s.lanes == 4) four = s.row.throughput;
        }
    }
    const double exec_speedup = base > 0.0 ? four / base : 0.0;
    std::printf("headline exec_speedup (4 lanes vs 1, b=16, conflict-free): "
                "%.2fx\n",
                exec_speedup);

    std::FILE* json = std::fopen(out_path.c_str(), "w");
    if (json == nullptr) {
        std::fprintf(stderr, "cannot open %s for writing\n",
                     out_path.c_str());
        return 1;
    }
    std::fprintf(json, "{\n  \"benchmark\": \"exec_lanes_sweep\",\n");
    std::fprintf(json,
                 "  \"workload\": \"ordered kv puts, compute-heavy profile "
                 "(15us/op), local network, closed loop\",\n");
    std::fprintf(json, "  \"smoke\": %s,\n", smoke ? "true" : "false");
    std::fprintf(json, "  \"exec_speedup\": %.3f,\n", exec_speedup);
    std::fprintf(json, "  \"results\": [\n");
    for (std::size_t i = 0; i < samples.size(); ++i) {
        const Sample& s = samples[i];
        double lane1 = 0.0;
        for (const Sample& t : samples) {
            if (t.batch == s.batch && t.conflict_pct == s.conflict_pct &&
                t.lanes == 1) {
                lane1 = t.row.throughput;
            }
        }
        const double batches_sched =
            s.exec.scheduled_batches > 0
                ? static_cast<double>(s.exec.scheduled_batches)
                : 0.0;
        std::fprintf(
            json,
            "    {\"lanes\": %zu, \"batch_size_max\": %zu, "
            "\"conflict_pct\": %d, \"throughput_per_sec\": %.1f, "
            "\"mean_ms\": %.3f, \"p50_ms\": %.3f, \"p99_ms\": %.3f, "
            "\"speedup_vs_1lane\": %.3f, \"conflict_stalls\": %llu, "
            "\"avg_lanes_used\": %.2f, \"parallelism\": %.3f}%s\n",
            s.lanes, s.batch, s.conflict_pct, s.row.throughput,
            s.row.mean_ms, s.row.p50_ms, s.row.p99_ms,
            lane1 > 0.0 ? s.row.throughput / lane1 : 0.0,
            static_cast<unsigned long long>(s.exec.conflict_stalls),
            batches_sched > 0.0
                ? static_cast<double>(s.exec.lanes_used_sum) / batches_sched
                : 0.0,
            s.exec.charged_cost > 0
                ? static_cast<double>(s.exec.serial_cost) /
                      static_cast<double>(s.exec.charged_cost)
                : 1.0,
            i + 1 < samples.size() ? "," : "");
    }
    std::fprintf(json, "  ]\n}\n");
    std::fclose(json);
    std::printf("wrote %s\n", out_path.c_str());
    return 0;
}

// Sharded-Troxy benchmark: partitioned replica groups behind one
// transparent front (BENCH_shard.json).
//
// Three parts:
//
//   1. Saturation sweep — closed-loop pure-write workload against a
//      TroxyCluster for S ∈ {1, 2, 4, 8}. The service carries a
//      fixed modeled execution cost, so ordered-write throughput is
//      execution-bound — exactly the resource a key-range partition
//      multiplies: each shard orders and executes only its slice of the
//      key space. S = 1 is the unsharded deployment (no front node);
//      S > 1 routes everything through the ShardFrontHost. CI gates the
//      S=4 aggregate ordered-write throughput at >= 3.0x S=1. One extra
//      cell runs S=4 with a multiwrite fraction whose partner key lands
//      on another shard, pricing the ordered two-shard commit lane.
//
//   2. Multiwrite sweep — S=4 with zero modeled execution cost:
//      cross_shard_fraction ∈ {0, 10, 50, 100}% x F ∈ {1, 2, 4} fronts
//      at 64 B requests (the cross-shard commit engine is the variable;
//      the shards bind before one front does), plus a serialized-lane
//      baseline (cross_pipeline_depth = 1) at 50% and a front-scaling
//      set at 4 KB requests where the front's per-byte AEAD passes
//      dominate and routed throughput tracks F. Reports windowed
//      cross-commit rate, commit latency percentiles and lock-table
//      counters; CI gates the pipelined engine's cross-commit rate
//      against the serialized lane and the F=2 routed throughput
//      against F=1 in the 4 KB set.
//
//   3. Open-loop population sweep — S ∈ {1, 2, 4, 8} x {1e4, 1e5, 1e6}
//      virtual clients (OpenLoopSuite: one aggregate-rate Poisson chain
//      over a bounded connection pool with session churn) at a fixed
//      offered rate, reporting tail latency and front routing counters
//      as the population grows.
//
// Flags: --smoke     S ∈ {1, 4}, reduced sweeps, short windows
//        --out PATH  JSON output path (default BENCH_shard.json)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "apps/echo_service.hpp"
#include "bench_support/cluster.hpp"
#include "bench_support/stats.hpp"
#include "bench_support/workload.hpp"
#include "crypto/fastmode.hpp"

namespace {

using namespace troxy;
using namespace troxy::bench;
namespace sim = troxy::sim;

double wall_seconds_since(std::chrono::steady_clock::time_point start) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
}

/// EchoService with a fixed modeled execution cost on top: a service
/// whose request handling, not the protocol, is the bottleneck — the
/// regime where partitioning the key space multiplies throughput.
class HeavyEchoService final : public hybster::Service {
  public:
    explicit HeavyEchoService(sim::Duration cost) : cost_(cost) {}

    [[nodiscard]] hybster::RequestInfo classify(
        ByteView request) const override {
        return inner_.classify(request);
    }
    Bytes execute(ByteView request) override {
        return inner_.execute(request);
    }
    [[nodiscard]] Bytes checkpoint() const override {
        return inner_.checkpoint();
    }
    void restore(ByteView snapshot) override { inner_.restore(snapshot); }
    [[nodiscard]] sim::Duration execution_cost(
        ByteView request) const override {
        return cost_ + inner_.execution_cost(request);
    }

  private:
    apps::EchoService inner_;
    sim::Duration cost_;
};

std::unique_ptr<TroxyCluster> make_cluster(
    int shards, int keys, sim::Duration exec_cost, int fronts = 1,
    std::size_t cross_pipeline_depth = 0) {
    TroxyCluster::Params params;
    params.base.seed = 42;
    params.base.shard_count = shards;
    params.base.front_count = fronts;
    params.front.cross_pipeline_depth = cross_pipeline_depth;
    params.base.batch_size_max = 16;
    params.base.batch_delay = sim::microseconds(200);
    params.base.coalesce_wire = true;
    params.host.coalesce_wire = true;
    params.host.voter_batch_max = 16;
    params.host.batch_reply_auth = true;
    params.ctroxy = true;
    if (exec_cost > 0) {
        params.service = [exec_cost]() {
            return std::make_unique<HeavyEchoService>(exec_cost);
        };
    } else {
        params.service = []() {
            return std::make_unique<apps::EchoService>();
        };
    }
    params.classifier = [](ByteView request) {
        return apps::EchoService().classify(request);
    };
    if (shards > 1) {
        std::vector<std::string> universe;
        universe.reserve(static_cast<std::size_t>(keys));
        for (int k = 0; k < keys; ++k) {
            universe.push_back("k" + std::to_string(k));
        }
        params.map = troxy_core::ShardMap::split_evenly(
            std::move(universe), shards);
    }
    return std::make_unique<TroxyCluster>(std::move(params));
}

struct FrontCounters {
    std::uint64_t requests = 0;
    std::uint64_t released = 0;
    std::uint64_t cross_shard_commits = 0;
    std::uint64_t upstream_failovers = 0;
    int router_fanout = 0;
    std::uint64_t cross_lock_waits = 0;
    std::uint64_t cross_inflight_peak = 0;  // max over fronts
    std::vector<std::uint64_t> shard_forwarded;
};

/// Tier-wide counters: sums over every front (peaks take the max).
FrontCounters front_counters(TroxyCluster& cluster) {
    FrontCounters out;
    for (int f = 0; f < cluster.front_count(); ++f) {
        const auto status = cluster.front(f).status();
        out.requests += status.requests;
        out.released += status.released;
        out.cross_shard_commits += status.cross_shard_commits;
        out.upstream_failovers += status.upstream_failovers;
        out.router_fanout = status.router_fanout;
        out.cross_lock_waits += status.cross_lock_waits;
        out.cross_inflight_peak = std::max(out.cross_inflight_peak,
                                           status.cross_inflight_peak);
        if (out.shard_forwarded.size() < status.shards.size()) {
            out.shard_forwarded.resize(status.shards.size(), 0);
        }
        for (std::size_t s = 0; s < status.shards.size(); ++s) {
            out.shard_forwarded[s] += status.shards[s].forwarded;
        }
    }
    return out;
}

void json_front(std::FILE* json, const FrontCounters& front);

/// Cross-commit latency percentile merged over every front's samples.
double tier_cross_percentile_ms(TroxyCluster& cluster, double p) {
    std::vector<sim::Duration> samples;
    for (int f = 0; f < cluster.front_count(); ++f) {
        const auto& front_samples = cluster.front(f).cross_latencies();
        samples.insert(samples.end(), front_samples.begin(),
                       front_samples.end());
    }
    if (samples.empty()) return 0.0;
    std::sort(samples.begin(), samples.end());
    const double rank = p * static_cast<double>(samples.size() - 1);
    const auto index = std::min(static_cast<std::size_t>(rank + 0.5),
                                samples.size() - 1);
    return sim::to_millis(samples[index]);
}

// --------------------------------------------------------- saturation

struct SatCell {
    int shards = 0;
    double cross_fraction = 0.0;
    double throughput = 0.0;
    double p50_ms = 0.0;
    double p99_ms = 0.0;
    std::uint64_t issued = 0;
    std::uint64_t completed = 0;
    double wall_s = 0.0;
    std::uint64_t sim_events = 0;
    FrontCounters front;
};

SatCell run_saturation(int shards, double cross_fraction, bool smoke,
                       int connections, int pipeline) {
    const int keys = 4096;
    // 400 us of modeled execution per write: the shard's replica cores
    // saturate near 20k ordered writes/s, well under the routing front's
    // ceiling, so the S-sweep measures how the partition multiplies the
    // execution budget.
    auto cluster = make_cluster(shards, keys, sim::microseconds(400));
    std::vector<troxy_core::LegacyClient*> conns;
    for (int i = 0; i < connections; ++i) {
        conns.push_back(&cluster->add_client());
    }

    const sim::Duration warmup =
        smoke ? sim::milliseconds(200) : sim::milliseconds(400);
    const sim::Duration window =
        smoke ? sim::milliseconds(800) : sim::milliseconds(1500);
    Recorder recorder(warmup, window);

    Workload workload(
        cluster->simulator(), recorder,
        [keys, cross_fraction](Rng& rng) {
            GeneratedRequest out;
            const std::uint64_t key =
                rng.next_below(static_cast<std::uint64_t>(keys));
            if (cross_fraction > 0.0 &&
                rng.next_double() < cross_fraction) {
                // Partner half the key space away: on another shard for
                // every even S, forcing the ordered two-shard commit.
                out.payload = apps::EchoService::make_multi_write(
                    key,
                    (key + static_cast<std::uint64_t>(keys) / 2) %
                        static_cast<std::uint64_t>(keys),
                    64);
            } else {
                out.payload = apps::EchoService::make_write(key, 64);
            }
            return out;
        },
        /*seed=*/42);
    for (auto* conn : conns) workload.drive_legacy(*conn, pipeline);

    const auto start = std::chrono::steady_clock::now();
    cluster->simulator().run_until(recorder.window_end() +
                                   sim::milliseconds(500));

    SatCell cell;
    cell.shards = shards;
    cell.cross_fraction = cross_fraction;
    cell.throughput = recorder.throughput_per_sec();
    cell.p50_ms = recorder.percentile_latency_ms(50);
    cell.p99_ms = recorder.percentile_latency_ms(99);
    cell.issued = workload.issued();
    cell.completed = recorder.completed();
    cell.wall_s = wall_seconds_since(start);
    cell.sim_events = cluster->simulator().executed_events();
    cell.front = front_counters(*cluster);
    return cell;
}

// ---------------------------------------------------- multiwrite sweep

struct MwCell {
    int shards = 0;
    int fronts = 0;
    double cross_fraction = 0.0;
    std::size_t depth = 0;  // 0 = unbounded pipelining, 1 = serialized
    std::size_t payload = 64;  // request bytes (front AEAD work scales)
    double throughput = 0.0;       // routed requests/s (all ops)
    double cross_rate = 0.0;       // cross-shard commits/s in the window
    double cross_p50_ms = 0.0;     // admission → owner-reply release
    double cross_p99_ms = 0.0;
    double p50_ms = 0.0;           // client-observed request latency
    double p99_ms = 0.0;
    std::uint64_t completed = 0;
    double wall_s = 0.0;
    FrontCounters front;
};

/// Multiwrite-heavy cell with zero modeled execution cost: the shards'
/// execution budget is out of the picture, so throughput measures the
/// front tier and the cross-shard commit engine — the two things this
/// sweep varies (F fronts, pipelined vs serialized lane).
MwCell run_multiwrite(int shards, int fronts, double cross_fraction,
                      std::size_t depth, bool smoke,
                      std::size_t payload = 64) {
    const int keys = 4096;
    const int connections = 64;
    const int pipeline = 64;
    auto cluster =
        make_cluster(shards, keys, /*exec_cost=*/0, fronts, depth);
    std::vector<troxy_core::LegacyClient*> conns;
    for (int i = 0; i < connections; ++i) {
        conns.push_back(&cluster->add_client());
    }

    const sim::Duration warmup =
        smoke ? sim::milliseconds(200) : sim::milliseconds(400);
    const sim::Duration window =
        smoke ? sim::milliseconds(800) : sim::milliseconds(1500);
    Recorder recorder(warmup, window);

    Workload workload(
        cluster->simulator(), recorder,
        [keys, cross_fraction, payload](Rng& rng) {
            GeneratedRequest out;
            const std::uint64_t key =
                rng.next_below(static_cast<std::uint64_t>(keys));
            if (cross_fraction > 0.0 &&
                rng.next_double() < cross_fraction) {
                out.payload = apps::EchoService::make_multi_write(
                    key,
                    (key + static_cast<std::uint64_t>(keys) / 2) %
                        static_cast<std::uint64_t>(keys),
                    payload);
            } else {
                out.payload = apps::EchoService::make_write(key, payload);
            }
            return out;
        },
        /*seed=*/42);
    for (auto* conn : conns) workload.drive_legacy(*conn, pipeline);

    // Windowed cross-commit rate: snapshot the tier's completed-commit
    // counter at the measurement window's edges.
    std::uint64_t cross_at_start = 0;
    std::uint64_t cross_at_end = 0;
    auto tier_cross = [&cluster]() {
        std::uint64_t sum = 0;
        for (int f = 0; f < cluster->front_count(); ++f) {
            sum += cluster->front(f).status().cross_shard_commits;
        }
        return sum;
    };
    cluster->simulator().after(
        warmup, [&]() { cross_at_start = tier_cross(); });
    cluster->simulator().after(
        warmup + window, [&]() { cross_at_end = tier_cross(); });

    const auto start = std::chrono::steady_clock::now();
    cluster->simulator().run_until(recorder.window_end() +
                                   sim::milliseconds(500));

    MwCell cell;
    cell.shards = shards;
    cell.fronts = fronts;
    cell.cross_fraction = cross_fraction;
    cell.depth = depth;
    cell.payload = payload;
    cell.throughput = recorder.throughput_per_sec();
    cell.cross_rate =
        static_cast<double>(cross_at_end - cross_at_start) /
        sim::to_seconds(window);
    cell.cross_p50_ms = tier_cross_percentile_ms(*cluster, 0.50);
    cell.cross_p99_ms = tier_cross_percentile_ms(*cluster, 0.99);
    cell.p50_ms = recorder.percentile_latency_ms(50);
    cell.p99_ms = recorder.percentile_latency_ms(99);
    cell.completed = recorder.completed();
    cell.wall_s = wall_seconds_since(start);
    cell.front = front_counters(*cluster);
    return cell;
}

void print_mw(const MwCell& cell) {
    std::printf(
        "  [F=%d %3.0f%% cross %4lluB%s] %8.0f req/s, %8.0f commits/s, "
        "commit p50 %6.2f ms p99 %6.2f ms, %llu lock waits, peak %llu in "
        "flight\n",
        cell.fronts, cell.cross_fraction * 100.0,
        static_cast<unsigned long long>(cell.payload),
        cell.depth == 1 ? " serialized" : "", cell.throughput,
        cell.cross_rate, cell.cross_p50_ms, cell.cross_p99_ms,
        static_cast<unsigned long long>(cell.front.cross_lock_waits),
        static_cast<unsigned long long>(cell.front.cross_inflight_peak));
}

void json_mw(std::FILE* json, const MwCell& c) {
    std::fprintf(
        json,
        "{\"shards\": %d, \"fronts\": %d, \"cross_fraction\": %.2f, "
        "\"cross_pipeline_depth\": %llu, \"payload\": %llu, "
        "\"throughput_per_sec\": %.1f, "
        "\"cross_commits_per_sec\": %.1f, \"cross_p50_ms\": %.3f, "
        "\"cross_p99_ms\": %.3f, \"p50_ms\": %.3f, \"p99_ms\": %.3f, "
        "\"completed\": %llu, \"wall_clock_s\": %.3f, ",
        c.shards, c.fronts, c.cross_fraction,
        static_cast<unsigned long long>(c.depth),
        static_cast<unsigned long long>(c.payload), c.throughput,
        c.cross_rate, c.cross_p50_ms, c.cross_p99_ms, c.p50_ms, c.p99_ms,
        static_cast<unsigned long long>(c.completed), c.wall_s);
    json_front(json, c.front);
    std::fprintf(json, "}");
}

// ---------------------------------------------------------- open loop

struct OpenCell {
    int shards = 0;
    std::uint64_t virtual_clients = 0;
    double offered_rate = 0.0;
    double throughput = 0.0;
    double p50_ms = 0.0;
    double p99_ms = 0.0;
    std::uint64_t issued = 0;
    std::uint64_t completed = 0;
    std::uint64_t churned = 0;
    double wall_s = 0.0;
    FrontCounters front;
};

OpenCell run_open_loop(int shards, std::uint64_t virtual_clients,
                       bool smoke) {
    const int keys = 65536;
    auto cluster = make_cluster(shards, keys, /*exec_cost=*/0);

    const int connections = 24;
    std::vector<troxy_core::LegacyClient*> conns;
    for (int i = 0; i < connections; ++i) {
        conns.push_back(&cluster->add_client());
    }

    const sim::Duration warmup =
        smoke ? sim::milliseconds(200) : sim::milliseconds(500);
    const sim::Duration window =
        smoke ? sim::milliseconds(600) : sim::seconds(2);
    Recorder recorder(warmup, window);

    OpenLoopOptions wl;
    wl.rate_per_sec = smoke ? 8000.0 : 20000.0;
    wl.virtual_clients = virtual_clients;
    wl.keys = static_cast<std::uint64_t>(keys);
    wl.zipf_s = 0.0;
    wl.read_fraction = 0.5;
    wl.churn_per_sec = 20.0;
    OpenLoopSuite suite(
        cluster->simulator(), recorder, wl,
        [](Rng&, const OpenLoopArrival& arrival) {
            if (arrival.is_read) {
                return apps::EchoService::make_read(arrival.key, 32, 128);
            }
            return apps::EchoService::make_write(arrival.key, 64);
        },
        /*seed=*/42);
    for (auto* conn : conns) suite.add_connection(*conn);
    suite.start();

    const auto start = std::chrono::steady_clock::now();
    cluster->simulator().run_until(recorder.window_end() +
                                   sim::milliseconds(500));

    OpenCell cell;
    cell.shards = shards;
    cell.virtual_clients = virtual_clients;
    cell.offered_rate = wl.rate_per_sec;
    cell.throughput = recorder.throughput_per_sec();
    cell.p50_ms = recorder.percentile_latency_ms(50);
    cell.p99_ms = recorder.percentile_latency_ms(99);
    cell.issued = suite.issued();
    cell.completed = suite.completed();
    cell.churned = suite.churned_sessions();
    cell.wall_s = wall_seconds_since(start);
    cell.front = front_counters(*cluster);
    return cell;
}

void print_front(const FrontCounters& front) {
    if (front.router_fanout == 0) return;
    std::printf("      front: %llu routed, %llu released, %llu cross, "
                "%llu failovers, fanout %d, per-shard [",
                static_cast<unsigned long long>(front.requests),
                static_cast<unsigned long long>(front.released),
                static_cast<unsigned long long>(front.cross_shard_commits),
                static_cast<unsigned long long>(front.upstream_failovers),
                front.router_fanout);
    for (std::size_t s = 0; s < front.shard_forwarded.size(); ++s) {
        std::printf("%s%llu", s > 0 ? " " : "",
                    static_cast<unsigned long long>(
                        front.shard_forwarded[s]));
    }
    std::printf("]\n");
}

void json_front(std::FILE* json, const FrontCounters& front) {
    std::fprintf(json,
                 "\"front_requests\": %llu, \"front_released\": %llu, "
                 "\"cross_shard_commits\": %llu, "
                 "\"upstream_failovers\": %llu, \"router_fanout\": %d, "
                 "\"cross_lock_waits\": %llu, "
                 "\"cross_inflight_peak\": %llu, "
                 "\"shard_forwarded\": [",
                 static_cast<unsigned long long>(front.requests),
                 static_cast<unsigned long long>(front.released),
                 static_cast<unsigned long long>(front.cross_shard_commits),
                 static_cast<unsigned long long>(front.upstream_failovers),
                 front.router_fanout,
                 static_cast<unsigned long long>(front.cross_lock_waits),
                 static_cast<unsigned long long>(front.cross_inflight_peak));
    for (std::size_t s = 0; s < front.shard_forwarded.size(); ++s) {
        std::fprintf(json, "%s%llu", s > 0 ? ", " : "",
                     static_cast<unsigned long long>(
                         front.shard_forwarded[s]));
    }
    std::fprintf(json, "]");
}

}  // namespace

int main(int argc, char** argv) {
    troxy::crypto::set_fast_crypto(true);

    bool smoke = false;
    std::string out_path = "BENCH_shard.json";
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

    // Part 1: saturation sweep.
    const std::vector<int> shard_counts =
        smoke ? std::vector<int>{1, 4} : std::vector<int>{1, 2, 4, 8};
    std::printf("saturation: closed-loop pure writes, 400 us/op modeled "
                "execution, 48 conns x 48 pipeline\n");
    std::vector<SatCell> saturation;
    for (const int shards : shard_counts) {
        SatCell cell = run_saturation(shards, 0.0, smoke, 48, 48);
        std::printf("  [S=%d] %8.0f writes/s, p50 %6.2f ms, p99 %6.2f ms "
                    "(%llu completed, %.1fs wall)\n",
                    cell.shards, cell.throughput, cell.p50_ms, cell.p99_ms,
                    static_cast<unsigned long long>(cell.completed),
                    cell.wall_s);
        print_front(cell.front);
        saturation.push_back(std::move(cell));
    }
    double s1_throughput = 0.0;
    for (const SatCell& cell : saturation) {
        if (cell.shards == 1) s1_throughput = cell.throughput;
    }
    auto speedup_of = [&](int shards) {
        for (const SatCell& cell : saturation) {
            if (cell.shards == shards && s1_throughput > 0.0) {
                return cell.throughput / s1_throughput;
            }
        }
        return 0.0;
    };
    std::printf("  speedups vs S=1:");
    for (const int shards : shard_counts) {
        if (shards == 1) continue;
        std::printf(" S=%d %.2fx", shards, speedup_of(shards));
    }
    std::printf("\n");

    // Cross-shard pricing: S=4 with 10% two-key multiwrites whose
    // partner lives two shards away. The lane is serialized, so this
    // cell runs a light population — it prices the ordered two-shard
    // commit's latency, not a deliberately overloaded queue.
    SatCell cross = run_saturation(4, 0.10, smoke, 8, 8);
    std::printf("  [S=4 +10%% cross-shard] %8.0f writes/s, p50 %6.2f ms, "
                "p99 %6.2f ms, %llu two-shard commits\n",
                cross.throughput, cross.p50_ms, cross.p99_ms,
                static_cast<unsigned long long>(
                    cross.front.cross_shard_commits));

    // Part 2: multiwrite sweep — the pipelined cross-shard commit engine
    // and the multi-front tier, with execution cost out of the picture.
    const std::vector<double> mw_fractions =
        smoke ? std::vector<double>{0.50}
              : std::vector<double>{0.0, 0.10, 0.50, 1.0};
    const std::vector<int> mw_fronts =
        smoke ? std::vector<int>{1, 2} : std::vector<int>{1, 2, 4};
    std::printf("multiwrite sweep: S=4, zero exec cost, 64 conns x 64 "
                "pipeline, pipelined lock-table engine\n");
    std::vector<MwCell> mw_cells;
    for (const double fraction : mw_fractions) {
        for (const int fronts : mw_fronts) {
            MwCell cell = run_multiwrite(4, fronts, fraction,
                                         /*depth=*/0, smoke);
            print_mw(cell);
            mw_cells.push_back(std::move(cell));
        }
    }
    // Serialized-lane baseline: the pre-pipelining single-commit flow
    // (depth 1) at the sweep's heaviest shared configuration.
    MwCell serialized = run_multiwrite(4, 1, 0.50, /*depth=*/1, smoke);
    print_mw(serialized);

    auto mw_cell_of = [&](int fronts, double fraction) -> const MwCell* {
        for (const MwCell& cell : mw_cells) {
            if (cell.fronts == fronts &&
                cell.cross_fraction == fraction) {
                return &cell;
            }
        }
        return nullptr;
    };
    const MwCell* pipelined_50_f1 = mw_cell_of(1, 0.50);
    const double pipelined_vs_serialized =
        (pipelined_50_f1 != nullptr && serialized.cross_rate > 0.0)
            ? pipelined_50_f1->cross_rate / serialized.cross_rate
            : 0.0;

    // Front-scaling cells: 4 KB requests make the front's per-byte AEAD
    // passes (downstream record open + one upstream seal per touched
    // shard) the dominant cost, so aggregate routed throughput tracks
    // the number of fronts until the shards bind — the regime the
    // multi-front tier exists for. 64 B requests are front-cheap: there
    // the S=4 shards saturate long before one front does (the F sweep
    // above shows flat throughput across F for exactly that reason).
    const std::vector<int> fs_fronts =
        smoke ? std::vector<int>{1, 2} : std::vector<int>{1, 2, 4};
    std::printf("front scaling: S=4, 50%% cross, 4 KB requests — front "
                "AEAD-bound\n");
    std::vector<MwCell> fs_cells;
    for (const int fronts : fs_fronts) {
        MwCell cell = run_multiwrite(4, fronts, 0.50, /*depth=*/0, smoke,
                                     /*payload=*/4096);
        print_mw(cell);
        fs_cells.push_back(std::move(cell));
    }
    auto fs_cell_of = [&](int fronts) -> const MwCell* {
        for (const MwCell& cell : fs_cells) {
            if (cell.fronts == fronts) return &cell;
        }
        return nullptr;
    };
    const MwCell* fs_f1 = fs_cell_of(1);
    const MwCell* fs_f2 = fs_cell_of(2);
    const double f2_vs_f1_routed =
        (fs_f1 != nullptr && fs_f2 != nullptr && fs_f1->throughput > 0.0)
            ? fs_f2->throughput / fs_f1->throughput
            : 0.0;
    std::printf("  pipelined vs serialized cross-commit rate: %.2fx; "
                "F=2 vs F=1 routed throughput (4 KB): %.2fx\n",
                pipelined_vs_serialized, f2_vs_f1_routed);

    // Part 3: open-loop population sweep.
    const std::vector<std::uint64_t> populations =
        smoke ? std::vector<std::uint64_t>{100000}
              : std::vector<std::uint64_t>{10000, 100000, 1000000};
    std::printf("open loop: %.0f req/s offered, 50%% reads, 24 sessions, "
                "churn 20/s\n",
                smoke ? 8000.0 : 20000.0);
    std::vector<OpenCell> open_cells;
    for (const int shards : shard_counts) {
        for (const std::uint64_t population : populations) {
            OpenCell cell = run_open_loop(shards, population, smoke);
            std::printf("  [S=%d %7llu clients] %8.0f req/s, p50 %6.2f ms, "
                        "p99 %6.2f ms, %llu churned (%.1fs wall)\n",
                        cell.shards,
                        static_cast<unsigned long long>(
                            cell.virtual_clients),
                        cell.throughput, cell.p50_ms, cell.p99_ms,
                        static_cast<unsigned long long>(cell.churned),
                        cell.wall_s);
            open_cells.push_back(std::move(cell));
        }
    }

    std::FILE* json = std::fopen(out_path.c_str(), "w");
    if (json == nullptr) {
        std::fprintf(stderr, "cannot open %s for writing\n",
                     out_path.c_str());
        return 1;
    }
    std::fprintf(json, "{\n  \"benchmark\": \"sharded_troxy\",\n");
    std::fprintf(json,
                 "  \"workload\": \"closed-loop pure writes over 4096 "
                 "keys, 400us/op modeled execution, 48 conns x 48 "
                 "pipeline; open-loop 50%% reads over 65536 keys\",\n");
    std::fprintf(json, "  \"smoke\": %s,\n", smoke ? "true" : "false");
    std::fprintf(json, "  \"saturation\": [\n");
    for (std::size_t i = 0; i < saturation.size(); ++i) {
        const SatCell& c = saturation[i];
        std::fprintf(
            json,
            "    {\"shards\": %d, \"cross_fraction\": %.2f, "
            "\"throughput_per_sec\": %.1f, \"p50_ms\": %.3f, "
            "\"p99_ms\": %.3f, \"issued\": %llu, \"completed\": %llu, "
            "\"wall_clock_s\": %.3f, \"sim_events\": %llu, ",
            c.shards, c.cross_fraction, c.throughput, c.p50_ms, c.p99_ms,
            static_cast<unsigned long long>(c.issued),
            static_cast<unsigned long long>(c.completed), c.wall_s,
            static_cast<unsigned long long>(c.sim_events));
        json_front(json, c.front);
        std::fprintf(json, "}%s\n",
                     i + 1 < saturation.size() ? "," : "");
    }
    std::fprintf(json, "  ],\n");
    std::fprintf(json, "  \"s4_vs_s1_speedup\": %.3f,\n", speedup_of(4));
    if (!smoke) {
        std::fprintf(json, "  \"s2_vs_s1_speedup\": %.3f,\n",
                     speedup_of(2));
        std::fprintf(json, "  \"s8_vs_s1_speedup\": %.3f,\n",
                     speedup_of(8));
    }
    std::fprintf(json,
                 "  \"cross_shard\": {\"shards\": %d, "
                 "\"cross_fraction\": %.2f, \"throughput_per_sec\": %.1f, "
                 "\"p50_ms\": %.3f, \"p99_ms\": %.3f, ",
                 cross.shards, cross.cross_fraction, cross.throughput,
                 cross.p50_ms, cross.p99_ms);
    json_front(json, cross.front);
    std::fprintf(json, "},\n");
    std::fprintf(json, "  \"multiwrite_sweep\": [\n");
    for (std::size_t i = 0; i < mw_cells.size(); ++i) {
        std::fprintf(json, "    ");
        json_mw(json, mw_cells[i]);
        std::fprintf(json, "%s\n", i + 1 < mw_cells.size() ? "," : "");
    }
    std::fprintf(json, "  ],\n");
    std::fprintf(json, "  \"cross_serialized\": ");
    json_mw(json, serialized);
    std::fprintf(json, ",\n");
    std::fprintf(json, "  \"front_scaling\": [\n");
    for (std::size_t i = 0; i < fs_cells.size(); ++i) {
        std::fprintf(json, "    ");
        json_mw(json, fs_cells[i]);
        std::fprintf(json, "%s\n", i + 1 < fs_cells.size() ? "," : "");
    }
    std::fprintf(json, "  ],\n");
    std::fprintf(json, "  \"cross_pipelined_vs_serialized\": %.3f,\n",
                 pipelined_vs_serialized);
    std::fprintf(json, "  \"f2_vs_f1_routed\": %.3f,\n", f2_vs_f1_routed);
    std::fprintf(json, "  \"open_loop\": [\n");
    for (std::size_t i = 0; i < open_cells.size(); ++i) {
        const OpenCell& c = open_cells[i];
        std::fprintf(
            json,
            "    {\"shards\": %d, \"virtual_clients\": %llu, "
            "\"offered_rate\": %.0f, \"throughput_per_sec\": %.1f, "
            "\"p50_ms\": %.3f, \"p99_ms\": %.3f, \"issued\": %llu, "
            "\"completed\": %llu, \"churned_sessions\": %llu, "
            "\"wall_clock_s\": %.3f, ",
            c.shards, static_cast<unsigned long long>(c.virtual_clients),
            c.offered_rate, c.throughput, c.p50_ms, c.p99_ms,
            static_cast<unsigned long long>(c.issued),
            static_cast<unsigned long long>(c.completed),
            static_cast<unsigned long long>(c.churned), c.wall_s);
        json_front(json, c.front);
        std::fprintf(json, "}%s\n",
                     i + 1 < open_cells.size() ? "," : "");
    }
    std::fprintf(json, "  ]\n}\n");
    std::fclose(json);
    std::printf("wrote %s\n", out_path.c_str());
    return 0;
}

// Tests for the measurement harness itself: recorders, workload drivers,
// cluster builders — the instruments must be trustworthy before any
// experiment built on them is.
#include <gtest/gtest.h>

#include <stdexcept>

#include "apps/echo_service.hpp"
#include "bench_support/cluster.hpp"
#include "bench_support/experiments.hpp"
#include "bench_support/stats.hpp"
#include "bench_support/workload.hpp"

namespace troxy::bench {
namespace {

using apps::EchoService;

TEST(Recorder, CountsOnlyInsideWindow) {
    Recorder recorder(sim::milliseconds(100), sim::milliseconds(200));
    recorder.record(sim::milliseconds(50), sim::milliseconds(1));   // early
    recorder.record(sim::milliseconds(150), sim::milliseconds(2));  // in
    recorder.record(sim::milliseconds(250), sim::milliseconds(3));  // in
    recorder.record(sim::milliseconds(300), sim::milliseconds(4));  // late
    EXPECT_EQ(recorder.completed(), 2u);
    EXPECT_DOUBLE_EQ(recorder.throughput_per_sec(), 2.0 / 0.2);
    EXPECT_DOUBLE_EQ(recorder.mean_latency_ms(), 2.5);
}

TEST(Recorder, Percentiles) {
    Recorder recorder(0, sim::seconds(1));
    for (int i = 1; i <= 100; ++i) {
        recorder.record(sim::milliseconds(10),
                        sim::milliseconds(static_cast<unsigned>(i)));
    }
    EXPECT_NEAR(recorder.percentile_latency_ms(50), 50.0, 1.5);
    EXPECT_NEAR(recorder.percentile_latency_ms(99), 99.0, 1.5);
    EXPECT_NEAR(recorder.percentile_latency_ms(0), 1.0, 0.5);
}

TEST(Recorder, EmptyIsZeroNotNan) {
    Recorder recorder(0, sim::seconds(1));
    EXPECT_EQ(recorder.completed(), 0u);
    EXPECT_DOUBLE_EQ(recorder.mean_latency_ms(), 0.0);
    EXPECT_DOUBLE_EQ(recorder.percentile_latency_ms(99), 0.0);
}

TEST(Workload, ClosedLoopMaintainsPipeline) {
    TroxyCluster::Params params;
    params.base.seed = 5;
    params.service = []() { return std::make_unique<EchoService>(); };
    params.classifier = [](ByteView request) {
        return EchoService().classify(request);
    };
    TroxyCluster cluster(std::move(params));

    Recorder recorder(sim::milliseconds(100), sim::milliseconds(500));
    Workload workload(
        cluster.simulator(), recorder,
        [](Rng& rng) {
            GeneratedRequest request;
            request.is_read = false;
            request.payload =
                EchoService::make_write(rng.next_below(4), 64);
            return request;
        },
        5);
    workload.drive_legacy(cluster.add_client(), 3);
    cluster.simulator().run_until(recorder.window_end() + sim::seconds(2));

    // A 3-deep closed loop completed far more than 3 requests.
    EXPECT_GT(recorder.completed(), 50u);
    EXPECT_GE(workload.issued(), recorder.completed());
}

TEST(Workload, OpenLoopApproximatesRate) {
    StandaloneCluster::Params params;
    params.base.seed = 6;
    params.service = []() { return std::make_unique<EchoService>(); };
    StandaloneCluster cluster(params);

    Recorder recorder(sim::milliseconds(200), sim::seconds(2));
    Workload workload(
        cluster.simulator(), recorder,
        [](Rng&) {
            GeneratedRequest request;
            request.is_read = true;
            request.payload = EchoService::make_read(1, 32, 64);
            return request;
        },
        6);
    workload.drive_legacy_open(cluster.add_client(), 200.0);
    cluster.simulator().run_until(recorder.window_end() + sim::seconds(1));
    EXPECT_NEAR(recorder.throughput_per_sec(), 200.0, 40.0);
}

TEST(Clusters, TroxyBuildsForDifferentF) {
    for (const int f : {1, 2}) {
        TroxyCluster::Params params;
        params.base.seed = 7;
        params.base.f = f;
        params.service = []() { return std::make_unique<EchoService>(); };
        params.classifier = [](ByteView request) {
            return EchoService().classify(request);
        };
        TroxyCluster cluster(std::move(params));
        EXPECT_EQ(cluster.n(), 2 * f + 1);
    }
}

TEST(Clusters, UnshardedTroxyRejectsExtraFronts) {
    // The shard checks cover every Troxy deployment: one replica group
    // has no front tier, so a second front is a configuration error.
    TroxyCluster::Params params;
    params.base.front_count = 2;
    params.service = []() { return std::make_unique<EchoService>(); };
    params.classifier = [](ByteView request) {
        return EchoService().classify(request);
    };
    EXPECT_THROW(TroxyCluster cluster(std::move(params)),
                 std::invalid_argument);
}

TEST(Clusters, TroxyHostsChargeTheDeploymentTransport) {
    // Replicas and Troxy hosts charge one transport profile. Under a
    // per-byte-only profile, a 1 ns per-record base adds about 1 ns per
    // record on a fresh client's path to its first reply (handshake
    // included), nothing more: the Troxy hosts stage their bytes whether
    // or not the base is zero.
    const auto first_reply_at = [](double tx_base_ns) {
        TroxyCluster::Params params;
        params.base.seed = 9;
        params.base.transport.tx_per_byte_ns = 50.0;
        params.base.transport.tx_base_ns = tx_base_ns;
        params.service = []() { return std::make_unique<EchoService>(); };
        params.classifier = [](ByteView request) {
            return EchoService().classify(request);
        };
        TroxyCluster cluster(std::move(params));
        troxy_core::LegacyClient& client = cluster.add_client();
        sim::Simulator& sim = cluster.simulator();
        sim::SimTime replied = 0;
        client.start([&]() {
            client.send(EchoService::make_write(1, 64),
                        [&](Bytes) { replied = sim.now(); });
        });
        sim.run_until(sim::seconds(2));
        EXPECT_GT(replied, 0);
        return replied;
    };
    const sim::SimTime without_base = first_reply_at(0.0);
    const sim::SimTime with_base = first_reply_at(1.0);
    EXPECT_GE(with_base, without_base);
    EXPECT_LE(with_base, without_base + 10);
}

TEST(Clusters, BuildersForwardEveryPipelineKnob) {
    // Every field differs from its default, so a dropped one fails. BL
    // takes the six knobs other than coalesce_wire and transport.
    hybster::PipelineOptions knobs;
    knobs.batch_size_max = 8;
    knobs.batch_delay = sim::microseconds(300);
    knobs.execution_lanes = 3;
    knobs.state_transfer_retry = sim::milliseconds(400);
    knobs.state_chunk_size = 1024;
    knobs.state_chunks_per_message = 16;
    BaselineCluster::Params baseline_params;
    static_cast<hybster::PipelineOptions&>(baseline_params.base) = knobs;
    baseline_params.service = []() {
        return std::make_unique<EchoService>();
    };
    const BaselineCluster baseline(std::move(baseline_params));
    EXPECT_EQ(
        static_cast<const hybster::PipelineOptions&>(baseline.config()),
        knobs);

    knobs.coalesce_wire = true;
    knobs.transport = sim::TransportProfile::bypass();
    TroxyCluster::Params params;
    static_cast<hybster::PipelineOptions&>(params.base) = knobs;
    params.base.shard_count = 2;
    params.map = troxy_core::ShardMap::split_evenly({"k0", "k1"}, 2);
    params.service = []() { return std::make_unique<EchoService>(); };
    params.classifier = [](ByteView request) {
        return EchoService().classify(request);
    };
    const TroxyCluster troxy(std::move(params));
    ASSERT_EQ(troxy.shards(), 2);
    for (int s = 0; s < troxy.shards(); ++s) {
        EXPECT_EQ(
            static_cast<const hybster::PipelineOptions&>(troxy.config(s)),
            knobs)
            << "shard " << s;
    }
}

TEST(Clusters, BaselineRejectsCoalescingAndTransport) {
    // BL hosts drop Bundle frames, so a coalescing BL group would stall
    // instead of failing; BL hosts and clients charge no transport.
    const auto build = [](bool coalesce, sim::TransportProfile transport) {
        BaselineCluster::Params params;
        params.base.coalesce_wire = coalesce;
        params.base.transport = transport;
        params.service = []() { return std::make_unique<EchoService>(); };
        BaselineCluster cluster(std::move(params));
    };
    EXPECT_THROW(build(true, sim::TransportProfile::none()),
                 std::invalid_argument);
    EXPECT_THROW(build(false, sim::TransportProfile::kernel_nic()),
                 std::invalid_argument);
    EXPECT_NO_THROW(build(false, sim::TransportProfile::none()));
}

TEST(Clusters, ProphecyUsesThreeFPlusOne) {
    ProphecyCluster::Params params;
    params.base.seed = 8;
    params.service = []() { return std::make_unique<EchoService>(); };
    params.classifier = [](ByteView request) {
        return EchoService().classify(request);
    };
    ProphecyCluster cluster(params);
    EXPECT_EQ(cluster.config().n(), 4);
}

TEST(Experiments, MicroRunProducesConsistentCounters) {
    MicroParams params;
    params.read_workload = true;
    params.reply_size = 128;
    params.clients = 4;
    params.pipeline = 2;
    params.warmup = sim::milliseconds(100);
    params.window = sim::milliseconds(400);

    const MicroResult result = run_micro(SystemKind::ETroxy, params);
    EXPECT_GT(result.row.throughput, 0.0);
    EXPECT_GT(result.fast_read_hits + result.ordered_requests, 0u);
    EXPECT_GE(result.conflict_rate(), 0.0);
    EXPECT_LE(result.conflict_rate(), 1.0);
}

TEST(Experiments, BaselineAndTroxyBothComplete) {
    MicroParams params;
    params.request_size = 256;
    params.clients = 4;
    params.pipeline = 2;
    params.warmup = sim::milliseconds(100);
    params.window = sim::milliseconds(400);

    for (const SystemKind kind :
         {SystemKind::Baseline, SystemKind::CTroxy, SystemKind::ETroxy}) {
        const MicroResult result = run_micro(kind, params);
        EXPECT_GT(result.row.throughput, 100.0) << system_name(kind);
        EXPECT_GT(result.row.mean_ms, 0.0) << system_name(kind);
    }
}

TEST(Experiments, BatchedMicroRunMatchesRecordedFigures) {
    // Parity pin for run_micro's knob forwarding, client-send coalescing
    // included: every batching stage and two lanes on a mixed load. The
    // figures were recorded before the knobs moved into shared bases.
    MicroParams params;
    params.read_workload = true;
    params.write_fraction = 0.3;
    params.reply_size = 128;
    params.clients = 6;
    params.pipeline = 4;
    params.warmup = sim::milliseconds(100);
    params.window = sim::milliseconds(200);
    params.batch_size_max = 16;
    params.batch_delay = sim::microseconds(200);
    params.voter_batch_max = 16;
    params.fastread_batch_max = 16;
    params.batch_reply_auth = true;
    params.coalesce_wire = true;
    params.execution_lanes = 2;

    const MicroResult result = run_micro(SystemKind::ETroxy, params);
    EXPECT_DOUBLE_EQ(result.row.throughput, 42220.0);
    EXPECT_DOUBLE_EQ(result.row.p50_ms, 0.576434);
    EXPECT_DOUBLE_EQ(result.row.p99_ms, 0.926903);
    EXPECT_EQ(result.enclave_transitions, 21530u);
    EXPECT_EQ(result.wire_messages, 29798u);
    EXPECT_EQ(result.wire_bytes, 12381653u);
}

TEST(Experiments, HttpRunsForEverySystem) {
    // Parity pin for every system's client-session endpoint: the figures
    // were recorded before the five endpoints moved onto one session
    // table. Standalone, BL and Prophecy have no other exact oracle.
    HttpParams params;
    params.clients = 4;
    params.total_rate_per_sec = 40;
    params.warmup = sim::milliseconds(200);
    params.window = sim::seconds(1);

    struct Recorded {
        HttpSystem system;
        double throughput, mean_ms, p50_ms, p99_ms;
    };
    for (const Recorded& recorded : {
             Recorded{HttpSystem::Standalone, 46.0, 0.23418686956521739,
                      0.221681, 0.381644},
             Recorded{HttpSystem::Baseline, 46.0, 0.34593273913043471,
                      0.316064, 0.575159},
             Recorded{HttpSystem::Prophecy, 46.0, 0.66528058695652148,
                      0.646128, 1.114745},
             Recorded{HttpSystem::Troxy, 46.0, 0.43375313043478275,
                      0.413888, 0.735381},
         }) {
        const Row row = run_http(recorded.system, params);
        const std::string name = http_system_name(recorded.system);
        EXPECT_DOUBLE_EQ(row.throughput, recorded.throughput) << name;
        EXPECT_DOUBLE_EQ(row.mean_ms, recorded.mean_ms) << name;
        EXPECT_DOUBLE_EQ(row.p50_ms, recorded.p50_ms) << name;
        EXPECT_DOUBLE_EQ(row.p99_ms, recorded.p99_ms) << name;
    }
}


// ---------------------------------------------------- open-loop generators

// Chi-squared goodness of fit: the sampler\'s empirical counts must match
// its own probability() across the whole rank space. 95th-percentile
// critical values for the chi-squared distribution sit near
// df + 2*sqrt(2*df); a comfortable margin above that still catches a
// broken normalizer or a biased branch (each of which shifts the
// statistic by orders of magnitude).
TEST(Zipfian, SamplesMatchDistributionChiSquared) {
    for (const double s : {0.0, 0.5, 0.99}) {
        const std::uint64_t n = 64;
        const std::uint64_t draws = 200000;
        ZipfianSampler sampler(n, s);
        std::vector<std::uint64_t> counts(n, 0);
        Rng rng(1234);
        for (std::uint64_t i = 0; i < draws; ++i) {
            const std::uint64_t rank = sampler.sample(rng);
            ASSERT_LT(rank, n);
            ++counts[rank];
        }
        double chi2 = 0.0;
        for (std::uint64_t k = 0; k < n; ++k) {
            const double expected =
                sampler.probability(k) * static_cast<double>(draws);
            ASSERT_GT(expected, 5.0) << "bin " << k << " too thin for chi2";
            const double d = static_cast<double>(counts[k]) - expected;
            chi2 += d * d / expected;
        }
        EXPECT_LT(chi2, 120.0) << "skew " << s << " (df=63)";
        if (s > 0.0) {
            // Skew sanity: rank 0 must dominate rank n-1 decisively.
            EXPECT_GT(counts[0], counts[n - 1] * 2);
        }
    }
}

TEST(Zipfian, ProbabilitiesSumToOne) {
    ZipfianSampler sampler(1000, 0.99);
    double total = 0.0;
    for (std::uint64_t k = 0; k < 1000; ++k) {
        total += sampler.probability(k);
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(OpenLoopSuite, AggregateRateIsAccurate) {
    TroxyCluster::Params params;
    params.base.seed = 11;
    params.ctroxy = true;
    params.service = []() { return std::make_unique<EchoService>(); };
    params.classifier = [](ByteView request) {
        return EchoService().classify(request);
    };
    TroxyCluster cluster(params);

    Recorder recorder(sim::milliseconds(200), sim::seconds(2));
    OpenLoopOptions options;
    options.rate_per_sec = 2000.0;
    options.virtual_clients = 100000;
    options.keys = 1024;
    options.zipf_s = 0.99;
    options.read_fraction = 0.5;
    OpenLoopSuite suite(
        cluster.simulator(), recorder, options,
        [](Rng&, const OpenLoopArrival& arrival) {
            return arrival.is_read
                       ? EchoService::make_read(arrival.key, 32, 64)
                       : EchoService::make_write(arrival.key, 64);
        },
        11);
    for (int i = 0; i < 8; ++i) suite.add_connection(cluster.add_client());
    suite.start();
    cluster.simulator().run_until(recorder.window_end() +
                                  sim::milliseconds(500));

    // Open loop: the ACHIEVED arrival rate must track the configured rate
    // within 2% regardless of service latency (that is what open loop
    // means) — measured over the full arrival span to make the Poisson
    // noise term negligible.
    ASSERT_GT(suite.issued(), 1000u);
    const double span_s =
        static_cast<double>(suite.last_arrival() - suite.first_arrival()) /
        1e9;
    const double achieved =
        static_cast<double>(suite.issued() - 1) / span_s;
    EXPECT_NEAR(achieved, options.rate_per_sec,
                options.rate_per_sec * 0.02);
    EXPECT_GT(suite.completed(), 0u);
}

TEST(OpenLoopSuite, ChurnReconnectsSessions) {
    TroxyCluster::Params params;
    params.base.seed = 12;
    params.ctroxy = true;
    params.service = []() { return std::make_unique<EchoService>(); };
    params.classifier = [](ByteView request) {
        return EchoService().classify(request);
    };
    TroxyCluster cluster(params);

    Recorder recorder(sim::milliseconds(100), sim::seconds(1));
    OpenLoopOptions options;
    options.rate_per_sec = 500.0;
    options.virtual_clients = 1000;
    options.keys = 16;
    options.churn_per_sec = 50.0;
    OpenLoopSuite suite(
        cluster.simulator(), recorder, options,
        [](Rng&, const OpenLoopArrival& arrival) {
            return EchoService::make_read(arrival.key, 32, 64);
        },
        12);
    std::vector<troxy_core::LegacyClient*> conns;
    for (int i = 0; i < 4; ++i) conns.push_back(&cluster.add_client());
    for (auto* conn : conns) suite.add_connection(*conn);
    suite.start();
    cluster.simulator().run_until(recorder.window_end() +
                                  sim::milliseconds(500));

    // Churn tears down and re-handshakes sessions while traffic flows:
    // sessions() counts completed handshakes, so reconnects show up as
    // extra handshakes beyond the initial connect.
    EXPECT_GT(suite.churned_sessions(), 20u);
    std::uint64_t handshakes = 0;
    for (auto* conn : conns) handshakes += conn->sessions();
    EXPECT_GT(handshakes, static_cast<std::uint64_t>(conns.size()));
    EXPECT_GT(suite.completed(), 100u);
}

}  // namespace
}  // namespace troxy::bench

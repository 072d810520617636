// Chaos sweep: seeds 1–200 in four configurations. Every failing seed is
// printed with its errors and fault plan. Each configuration's ledger
// lists the seeds that fail today: each one is a known defect (ROADMAP
// item 1), not a tolerance. A new failure fails the sweep, and so does a
// listed seed that now passes, so the ledger shrinks only on purpose.
#include <gtest/gtest.h>

#include <cstdio>
#include <set>

#include "bench_support/chaos.hpp"

namespace troxy {
namespace {

void sweep(const bench::ChaosOptions& base,
           const std::set<std::uint64_t>& ledger) {
    std::set<std::uint64_t> failing;
    for (std::uint64_t seed = 1; seed <= 200; ++seed) {
        bench::ChaosOptions options = base;
        options.seed = seed;
        const bench::ChaosReport report = bench::run_chaos(options);
        if (report.ok()) continue;
        failing.insert(seed);
        std::printf("seed %llu: completed %llu/%llu, violations %llu%s\n",
                    static_cast<unsigned long long>(seed),
                    static_cast<unsigned long long>(report.completed),
                    static_cast<unsigned long long>(report.issued),
                    static_cast<unsigned long long>(report.violations),
                    ledger.contains(seed) ? " (in the ledger)" : "");
        for (const std::string& error : report.errors) {
            std::printf("  %s\n", error.c_str());
        }
        std::printf("plan:\n%s", report.plan_trace.c_str());
    }
    EXPECT_EQ(failing, ledger);
}

TEST(ChaosSweep, Default) {
    sweep(bench::ChaosOptions{}, {58, 59, 123, 126, 128, 194});
}

TEST(ChaosSweep, Batched) {
    bench::ChaosOptions options;
    options.voter_batch_max = 8;
    options.coalesce_wire = true;
    options.think_time = sim::milliseconds(20);
    sweep(options, {5, 77, 80});
}

TEST(ChaosSweep, Sharded) {
    bench::ChaosOptions options;
    options.shards = 2;
    options.cross_shard_fraction = 0.3;
    sweep(options, {88, 200});
}

TEST(ChaosSweep, Rolling) {
    bench::ChaosOptions options;
    options.rolling_restart = true;
    sweep(options, {});
}

}  // namespace
}  // namespace troxy

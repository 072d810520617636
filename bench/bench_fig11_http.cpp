// Figure 11 (§VI-D): HTTP service latency.
//
// A replicated page store (GET/POST, 200 B POST bodies, 4–18 KB
// responses) measured with an open-loop JMeter-style workload: 100
// clients, 500 req/s total — deliberately below saturation, so the figure
// shows *latency*, not throughput. Four deployments:
//
//   Jetty      — unreplicated standalone server (the latency floor)
//   BL         — Hybster with the client-side library doing the voting
//   Prophecy   — PBFT (3f+1) behind a trusted middlebox with a sketch
//                cache (weak consistency)
//   Troxy      — Troxy-backed Hybster (strong consistency)
//
// Paper shape, local network: BL and Troxy within ~1.8 ms of Jetty;
// Prophecy ≈ 2× (two socket hops). WAN: BL's latency explodes (the voter
// sits behind the WAN and waits for f+1 replies), while Prophecy and
// Troxy track the standalone server (their voters sit next to the
// replicas).
//
// The bench exits non-zero when one of those relations breaks:
//   local: BL and Troxy each within +1.8 ms of Jetty's mean;
//   local: Prophecy has the highest mean;
//   WAN:   BL has the highest mean;
//   WAN:   Prophecy and Troxy each within 5 % of Jetty's mean.
#include <algorithm>
#include <cstdio>
#include <string>

#include "bench_support/experiments.hpp"
#include "crypto/fastmode.hpp"

namespace {

using troxy::bench::Row;

// Rows in run order: Jetty, BL, Prophecy, Troxy.
constexpr std::size_t kJetty = 0, kBl = 1, kProphecy = 2, kTroxy = 3;

bool highest_mean(const std::vector<Row>& rows, std::size_t index) {
    return std::all_of(rows.begin(), rows.end(), [&](const Row& row) {
        return &row == &rows[index] || row.mean_ms < rows[index].mean_ms;
    });
}

/// Prints and counts a broken relation.
int check(bool holds, const std::string& relation) {
    if (holds) return 0;
    std::printf("RELATION BROKEN: %s\n", relation.c_str());
    return 1;
}

int check_relations(const std::vector<Row>& rows, bool wan) {
    const double jetty = rows[kJetty].mean_ms;
    int broken = 0;
    if (!wan) {
        for (const std::size_t i : {kBl, kTroxy}) {
            broken += check(rows[i].mean_ms <= jetty + 1.8,
                            "local: " + rows[i].label +
                                " within +1.8 ms of Jetty");
        }
        broken += check(highest_mean(rows, kProphecy),
                        "local: Prophecy has the highest mean");
    } else {
        broken += check(highest_mean(rows, kBl),
                        "WAN: BL has the highest mean");
        for (const std::size_t i : {kProphecy, kTroxy}) {
            broken += check(rows[i].mean_ms <= jetty * 1.05 &&
                                rows[i].mean_ms >= jetty * 0.95,
                            "WAN: " + rows[i].label +
                                " within 5 % of Jetty");
        }
    }
    return broken;
}

}  // namespace

int main() {
    troxy::crypto::set_fast_crypto(true);
    using namespace troxy::bench;
    int broken = 0;

    std::printf("Figure 11: HTTP service mean latency\n");
    std::printf("(100 clients, 500 req/s open loop, GET/POST page store,\n");
    std::printf(" responses 4-18 KB)\n");

    for (const bool wan : {false, true}) {
        HttpParams params;
        params.wan = wan;
        if (wan) {
            params.warmup = troxy::sim::milliseconds(1000);
        }

        std::vector<Row> rows;
        for (const HttpSystem system :
             {HttpSystem::Standalone, HttpSystem::Baseline,
              HttpSystem::Prophecy, HttpSystem::Troxy}) {
            rows.push_back(run_http(system, params));
        }
        print_table(wan ? "WAN clients (100±20 ms)" : "local network", rows,
                    /*ratio_vs_first=*/false);
        broken += check_relations(rows, wan);
    }
    return broken == 0 ? 0 : 1;
}

// Ablation: fast-read cache design knobs.
//
// Two sweeps at a contended mixed workload (95% reads / 5% writes):
//   1. miss-rate threshold of the adaptive monitor — too low flips to
//      total-order mode prematurely, too high burns fast-read attempts
//      that mostly conflict;
//   2. write fraction — shows where the fast path stops paying off,
//      motivating the §IV-B automatic switch.
#include <cstdio>

#include "bench_support/experiments.hpp"
#include "crypto/fastmode.hpp"

int main() {
    troxy::crypto::set_fast_crypto(true);
    using namespace troxy::bench;

    MicroParams base;
    base.read_workload = true;
    base.reply_size = 1024;
    base.key_count = 4;
    base.clients = 64;
    base.pipeline = 8;

    {
        std::printf("Ablation 1: write-fraction sweep "
                    "(fast reads, adaptive off)\n");
        std::vector<Row> rows;
        for (const double writes : {0.0, 0.01, 0.05, 0.10, 0.25}) {
            MicroParams params = base;
            params.write_fraction = writes;
            params.adaptive_monitor = false;
            MicroResult result = run_micro(SystemKind::ETroxy, params);
            result.row.label =
                "writes " + std::to_string(static_cast<int>(writes * 100)) +
                "% (conflict " +
                std::to_string(
                    static_cast<int>(100 * result.conflict_rate())) +
                "%)";
            rows.push_back(result.row);
        }
        print_table("write fraction", rows);
    }

    {
        std::printf("\nAblation 2: miss-threshold sweep "
                    "(10%% writes, adaptive on)\n");
        std::vector<Row> rows;
        for (const double threshold : {0.1, 0.3, 0.5, 0.7, 0.9}) {
            MicroParams params = base;
            params.write_fraction = 0.10;
            params.adaptive_monitor = true;
            params.monitor_threshold = threshold;
            MicroResult result = run_micro(SystemKind::ETroxy, params);
            result.row.label =
                "threshold " +
                std::to_string(static_cast<int>(threshold * 100)) +
                "% (switches " +
                std::to_string(result.troxy.mode_switches) + ")";
            rows.push_back(result.row);
        }
        print_table("miss threshold", rows);
    }
    return 0;
}

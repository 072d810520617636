// Benchmark driver: runs one workload in this process for about
// --seconds of wall-clock time and prints every metric with its unit,
// followed by one JSON line. See README.md for workloads and metrics;
// run.py builds this binary and is the command to use.
//
// A run is a series of cells (fresh cluster each). The first kSimReps
// cells use distinct sub-seeds derived from --seed and give the simulated
// metrics (median over them, bit-identical for a seed). Further cells
// cycle through the same sub-seeds: each must replay its digest exactly,
// and all cells feed the host-cost figures.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <cmath>
#include <new>
#include <string>
#include <vector>

#include "bench.hpp"
#include "crypto/fastmode.hpp"

// ------------------------------------------------- allocation accounting
//
// Every heap allocation in the process goes through these overrides; the
// delta around a cell's run gives allocations per completed request.

std::atomic<std::uint64_t> perfbench::g_allocs{0};

void* operator new(std::size_t size) {
    perfbench::g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size)) return p;
    throw std::bad_alloc();
}

void* operator new(std::size_t size, std::align_val_t align) {
    perfbench::g_allocs.fetch_add(1, std::memory_order_relaxed);
    const auto a = static_cast<std::size_t>(align);
    if (void* p = std::aligned_alloc(a, (size + a - 1) & ~(a - 1))) return p;
    throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
    std::free(p);
}

namespace perfbench {

Tracer g_tracer;

namespace {

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string trace_out;
    bool knee = true;
};

/// Sub-seeds whose median gives the simulated metrics.
constexpr int kSimReps = 3;

/// A run never exceeds this much wall time in cells, whatever --seconds.
constexpr double kMaxCellSeconds = 120.0;

/// The p99 latency limit the knee search holds the system to.
constexpr double kSloMs = 10.0;

/// The knee search stops once its bracket is this narrow, relative to
/// the rate that met the limit.
constexpr double kKneeResolution = 0.01;

double median(std::vector<double> values) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t mid = values.size() / 2;
    return values.size() % 2 == 1 ? values[mid]
                                  : (values[mid - 1] + values[mid]) / 2.0;
}

double minimum(const std::vector<double>& values) {
    return values.empty() ? 0.0
                          : *std::min_element(values.begin(), values.end());
}

std::uint64_t sub_seed(std::uint64_t seed, int sub) {
    std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL +
                      static_cast<std::uint64_t>(sub) + 1;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return (z ^ (z >> 31)) >> 16;  // stay well inside seed arithmetic
}

std::string json_string(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20) out += c;
    }
    return out + "\"";
}

void print_metric(const Metric& m, const char* better) {
    std::printf("  %-40s %16.6f %-13s %-6s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), better, m.note.c_str());
}

void print_json_metrics(std::FILE* out, const std::vector<Metric>& list) {
    std::fprintf(out, "{");
    for (std::size_t i = 0; i < list.size(); ++i) {
        std::fprintf(out, "%s%s: {\"value\": %.17g, \"unit\": %s}",
                     i == 0 ? "" : ", ", json_string(list[i].name).c_str(),
                     list[i].value, json_string(list[i].unit).c_str());
    }
    std::fprintf(out, "}");
}

const char* better_of(const std::string& name) {
    static const char* const kHigher[] = {
        "sim_tput_rps", "sim_capacity_rps", "sim_knee_rps",
        "sim.pool_hit_ratio",
        "hybster.reqs_per_batch", "troxy.fastread_hit_ratio",
        "troxy.replies_per_vote_batch", "troxy.queries_per_cache_batch"};
    for (const char* h : kHigher) {
        if (name == h) return "higher";
    }
    return "lower";
}

/// Highest offered rate whose p99 (unanswered arrivals counted as
/// infinitely slow) meets the limit with a bounded backlog: ramp x1.5 from
/// the spec rate, then bisect the bracket to within kKneeResolution.
Metric find_knee(const WorkloadSpec& spec, std::uint64_t seed,
                 std::vector<std::string>& violations, int& probes) {
    auto passes = [&](double rate) {
        CellOptions options;
        options.rate = rate;
        options.probe = true;
        const CellResult probe = run_cell(spec, seed, options);
        ++probes;
        for (const auto& v : probe.violations) {
            violations.push_back("knee probe: " + v);
        }
        const bool ok = probe.probe_p99_ms <= kSloMs &&
                        static_cast<double>(probe.probe_backlog) <=
                            rate * kSloMs / 1000.0;
        std::printf("  knee probe %9.0f req/s: p99 %10.3f ms, backlog %6llu "
                    "-> %s\n",
                    rate, probe.probe_p99_ms,
                    static_cast<unsigned long long>(probe.probe_backlog),
                    ok ? "meets" : "breaches");
        return ok;
    };
    double lo = 0.0;
    double hi = 0.0;
    double rate = spec.rate;
    if (passes(rate)) {
        lo = rate;
        while (hi == 0.0 && rate < 2e6) {
            rate *= 1.5;
            (passes(rate) ? lo : hi) = rate;
        }
    } else {
        hi = rate;
        while (lo == 0.0 && rate > 1000.0) {
            rate /= 1.5;
            (passes(rate) ? lo : hi) = rate;
        }
    }
    while (lo > 0.0 && hi > 0.0 && (hi - lo) / lo > kKneeResolution) {
        const double mid = std::round((lo + hi) / 200.0) * 100.0;
        (passes(mid) ? lo : hi) = mid;
    }
    return {"sim_knee_rps", "req/s", lo,
            "p99 <= " + std::to_string(kSloMs).substr(0, 4) +
                " ms, bracket [" + std::to_string(lo).substr(0, 8) + ", " +
                std::to_string(hi).substr(0, 8) + "]"};
}

void write_trace(const Args& args) {
    std::FILE* out = std::fopen(args.trace_out.c_str(), "w");
    if (out == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", args.trace_out.c_str());
        return;
    }
    std::fprintf(out, "{\"workload\": %s, \"seed\": %llu, \"spans\": [\n",
                 json_string(args.workload).c_str(),
                 static_cast<unsigned long long>(args.seed));
    const std::uint64_t origin =
        g_tracer.spans.empty() ? 0 : g_tracer.spans.front().start_ns;
    for (std::size_t i = 0; i < g_tracer.spans.size(); ++i) {
        const Span& s = g_tracer.spans[i];
        std::fprintf(
            out,
            "  {\"name\": %s, \"rep\": %d, \"start_us\": %.3f, "
            "\"dur_us\": %.3f, \"self_us\": %.3f, \"sim_start_ms\": %.6f, "
            "\"sim_end_ms\": %.6f, \"events\": %llu}%s\n",
            json_string(s.name).c_str(), s.rep,
            static_cast<double>(s.start_ns - origin) / 1e3,
            static_cast<double>(s.end_ns - s.start_ns) / 1e3,
            static_cast<double>(s.end_ns - s.start_ns - s.child_ns) / 1e3,
            sim::to_millis(s.sim_start), sim::to_millis(s.sim_end),
            static_cast<unsigned long long>(s.events),
            i + 1 < g_tracer.spans.size() ? "," : "");
    }
    std::fprintf(out, "]}\n");
    std::fclose(out);
}

/// Per phase name: wall ms, self ms (minus the wrapped service,
/// classifier and generator calls) and events, summed over all cells.
void print_phase_table() {
    struct Row {
        std::string name;
        double wall_ms = 0.0;
        double self_ms = 0.0;
        std::uint64_t events = 0;
    };
    std::vector<Row> rows;
    for (const Span& s : g_tracer.spans) {
        auto it = std::find_if(rows.begin(), rows.end(),
                               [&](const Row& r) { return r.name == s.name; });
        if (it == rows.end()) {
            rows.push_back({s.name});
            it = rows.end() - 1;
        }
        it->wall_ms += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
        it->self_ms +=
            static_cast<double>(s.end_ns - s.start_ns - s.child_ns) / 1e6;
        it->events += s.events;
    }
    std::printf("trace phases (all cells):\n");
    std::printf("  %-20s %12s %12s %14s\n", "phase", "wall_ms", "self_ms",
                "sim_events");
    for (const Row& r : rows) {
        std::printf("  %-20s %12.3f %12.3f %14llu\n", r.name.c_str(),
                    r.wall_ms, r.self_ms,
                    static_cast<unsigned long long>(r.events));
    }
}

int usage(const char* argv0) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME [--seed N] [--seconds S] "
                 "[--trace] [--trace-out PATH] [--no-knee]\n"
                 "workloads:",
                 argv0);
    for (const auto& w : workloads()) std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
    return 2;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
    using namespace perfbench;
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const bool has_value = i + 1 < argc;
        if (a == "--workload" && has_value) {
            args.workload = argv[++i];
        } else if (a == "--seed" && has_value) {
            args.seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (a == "--seconds" && has_value) {
            args.seconds = std::strtod(argv[++i], nullptr);
        } else if (a == "--trace") {
            args.trace = true;
        } else if (a == "--trace-out" && has_value) {
            args.trace_out = argv[++i];
        } else if (a == "--no-knee") {
            args.knee = false;
        } else {
            return usage(argv[0]);
        }
    }
    const WorkloadSpec* spec = nullptr;
    for (const auto& w : workloads()) {
        if (args.workload == w.name) spec = &w;
    }
    if (spec == nullptr) return usage(argv[0]);

    troxy::crypto::set_fast_crypto(true);
    g_tracer.enabled = args.trace;

    std::vector<CellResult> sim_cells;
    std::vector<std::string> violations;
    std::vector<double> setup_s, host_us, allocs, ns_per_event, exec_ns,
        classify_ns, gen_ns;
    std::vector<std::string> anomaly_samples;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    int reps = 0;
    int replays = 0;
    const std::uint64_t start = wall_ns();
    auto elapsed = [start] {
        return static_cast<double>(wall_ns() - start) / 1e9;
    };
    while (reps <= kSimReps ||
           (elapsed() < args.seconds && elapsed() < kMaxCellSeconds)) {
        const int sub = reps % kSimReps;
        CellOptions options;
        options.rep = reps;
        CellResult cell = run_cell(*spec, sub_seed(args.seed, sub), options);
        for (const auto& v : cell.violations) {
            violations.push_back("rep " + std::to_string(reps) + ": " + v);
        }
        attempted += cell.issued;
        failed += cell.unfinished;
        const double done =
            static_cast<double>(std::max<std::uint64_t>(1, cell.completed));
        setup_s.push_back(cell.setup_s);
        host_us.push_back(cell.run_cpu_s * 1e6 / done);
        allocs.push_back(static_cast<double>(cell.run_allocs) / done);
        ns_per_event.push_back(
            cell.run_cpu_s * 1e9 /
            static_cast<double>(std::max<std::uint64_t>(1, cell.run_events)));
        exec_ns.push_back(cell.execute_ns / done);
        classify_ns.push_back(cell.classify_ns / done);
        gen_ns.push_back(
            cell.generate_ns /
            static_cast<double>(std::max<std::uint64_t>(1, cell.issued)));
        if (reps < kSimReps) {
            for (const auto& sample : cell.anomaly_samples) {
                anomaly_samples.push_back("sub-seed " + std::to_string(sub) +
                                          ": " + sample);
            }
            sim_cells.push_back(std::move(cell));
        } else {
            ++replays;
            if (cell.digest != sim_cells[static_cast<std::size_t>(sub)].digest) {
                violations.push_back(
                    "rep " + std::to_string(reps) + " did not replay sub-seed " +
                    std::to_string(sub) + " bit for bit");
            }
        }
        ++reps;
    }
    const double measured_s = elapsed();
    rusage usage_info{};
    getrusage(RUSAGE_SELF, &usage_info);
    const double rss_mb = static_cast<double>(usage_info.ru_maxrss) / 1024.0;

    // Simulated metrics: the median over the sub-seeds, metric by metric.
    auto median_of = [&](auto member) {
        std::vector<Metric> out = sim_cells.front().*member;
        for (std::size_t i = 0; i < out.size(); ++i) {
            std::vector<double> values;
            for (const CellResult& c : sim_cells) {
                values.push_back((c.*member)[i].value);
            }
            out[i].value = median(values);
        }
        return out;
    };
    std::vector<Metric> e2e = median_of(&CellResult::sim_e2e);
    std::vector<Metric> layer = median_of(&CellResult::sim_layer);
    // Anomalies are totals: one sub-seed that shows one must not vanish
    // in a median.
    for (std::size_t i = 0; i < layer.size(); ++i) {
        if (layer[i].name != "troxy.stale_reads") continue;
        layer[i].value = 0.0;
        for (const CellResult& c : sim_cells) {
            layer[i].value += c.sim_layer[i].value;
        }
        layer[i].note = "total over " + std::to_string(sim_cells.size()) +
                        " sub-seeds";
    }
    std::uint64_t digest = 0xcbf29ce484222325ULL;
    for (const CellResult& c : sim_cells) {
        digest = (digest ^ c.digest) * 0x100000001b3ULL;
    }

    // Capacity: a closed loop keeps the system saturated, so its window
    // throughput is what the system sustains. An open loop's window
    // throughput is the offered rate, so kv-read-mostly's capacity is its
    // knee; leader-crash, which never searches one, reports its window
    // throughput and so tracks the offered 10 k req/s.
    const Metric tput = e2e.front();
    Metric capacity{"sim_capacity_rps", "req/s", tput.value,
                    "window throughput: " + tput.note};
    int probes = 0;
    if (spec->kind == Kind::KvReadMostly && args.knee && !args.trace) {
        std::printf("knee search (sub-seed 0, 300 ms windows):\n");
        std::vector<std::string> knee_violations;
        e2e.push_back(find_knee(*spec, sub_seed(args.seed, 0),
                                knee_violations, probes));
        violations.insert(violations.end(), knee_violations.begin(),
                          knee_violations.end());
        capacity.value = e2e.back().value;
        capacity.note = "the knee";
    }
    // Without its knee, kv-read-mostly has no capacity figure to print.
    if (spec->kind != Kind::KvReadMostly || probes > 0) {
        e2e.push_back(capacity);
    }
    // Per-request host time is the fastest cell: other tenants of a shared
    // machine only ever add time, and every cell does the same work.
    const std::string median_note = "median of " + std::to_string(reps) +
                                    " cells";
    const std::string min_note = "fastest of " + std::to_string(reps) +
                                 " cells";
    e2e.push_back({"host_us_per_req", "us", minimum(host_us),
                   min_note + ", CPU time"});
    e2e.push_back({"host_allocs_per_req", "count", median(allocs),
                   median_note});
    e2e.push_back({"host_peak_rss_mb", "MB", rss_mb, "getrusage ru_maxrss"});
    e2e.push_back({"setup_s", "s", median(setup_s), median_note});
    layer.push_back({"sim.host_ns_per_event", "ns", minimum(ns_per_event),
                     min_note});
    layer.push_back({"apps.execute_host_ns_per_req", "ns", minimum(exec_ns),
                     min_note + ", traced runs only"});
    layer.push_back({"apps.classify_host_ns_per_req", "ns",
                     minimum(classify_ns), min_note + ", traced runs only"});
    layer.push_back({"bench.gen_host_ns_per_req", "ns", minimum(gen_ns),
                     min_note + ", traced runs only"});

    const bool correct = violations.empty();
    std::printf("workload %s, seed %llu%s: %d cells in %.2f s (%d simulated "
                "sub-seeds, %d replays verified), %d knee probes\n",
                spec->name, static_cast<unsigned long long>(args.seed),
                args.trace ? ", traced" : "", reps, measured_s, kSimReps,
                replays, probes);
    std::printf("end-to-end metrics:\n");
    for (const Metric& m : e2e) print_metric(m, better_of(m.name));
    std::printf("per-layer metrics:\n");
    for (const Metric& m : layer) print_metric(m, better_of(m.name));
    if (args.trace) print_phase_table();
    std::printf("simulated digest %016llx\n",
                static_cast<unsigned long long>(digest));
    std::printf("output checks: %s (%llu requests, %llu unanswered)\n",
                correct ? "pass" : "FAIL",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < violations.size() && i < 20; ++i) {
        std::printf("  violation: %s\n", violations[i].c_str());
    }
    for (const auto& sample : anomaly_samples) {
        std::printf("  known anomaly (counted, see README): %s\n",
                    sample.c_str());
    }
    if (args.trace && !args.trace_out.empty()) write_trace(args);

    std::printf("{\"workload\": %s, \"seed\": %llu, \"correct\": %s, "
                "\"attempted\": %llu, \"failed\": %llu, \"digest\": "
                "\"%016llx\", \"cells\": %d, \"violations\": [",
                json_string(spec->name).c_str(),
                static_cast<unsigned long long>(args.seed),
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(digest), reps);
    for (std::size_t i = 0; i < violations.size() && i < 20; ++i) {
        std::printf("%s%s", i == 0 ? "" : ", ",
                    json_string(violations[i]).c_str());
    }
    std::printf("], \"end_to_end\": ");
    print_json_metrics(stdout, e2e);
    std::printf(", \"per_layer\": ");
    print_json_metrics(stdout, layer);
    std::printf("}\n");
    return 0;
}

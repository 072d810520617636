// Shared declarations of the benchmark driver: workload specs, metrics,
// the per-cell runner and the tracer that records spans in the driver's
// own code around each call into the system.
#pragma once

#include <time.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/time.hpp"

namespace perfbench {

namespace sim = troxy::sim;

/// Heap allocations made by the process (global operator new override in
/// driver.cpp).
extern std::atomic<std::uint64_t> g_allocs;

inline std::uint64_t wall_ns() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/// CPU time of the process (one simulation thread): unlike wall time it
/// does not grow while another process holds the core.
inline std::uint64_t cpu_ns() {
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
           static_cast<std::uint64_t>(ts.tv_nsec);
}

// ------------------------------------------------------------- tracing

/// One phase of a cell, timed in wall-clock and simulated time. Child time
/// is what the wrapped service/classifier and the request generator spent
/// inside the phase, so self time = duration - child.
struct Span {
    std::string name;
    int rep = 0;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    std::uint64_t child_ns = 0;
    sim::SimTime sim_start = 0;
    sim::SimTime sim_end = 0;
    std::uint64_t events = 0;
};

struct CallTimer {
    std::uint64_t calls = 0;
    std::uint64_t ns = 0;
};

struct Tracer {
    bool enabled = false;
    std::vector<Span> spans;
    int open = -1;  // index of the span wrapped calls are charged to
    CallTimer execute;
    CallTimer classify;
    CallTimer generate;
};

extern Tracer g_tracer;

/// Runs `fn`; with tracing on, charges its wall time to `timer` and to the
/// open span.
template <class F>
auto timed(CallTimer& timer, F&& fn) {
    if (!g_tracer.enabled) return fn();
    const std::uint64_t start = wall_ns();
    auto result = fn();
    const std::uint64_t spent = wall_ns() - start;
    ++timer.calls;
    timer.ns += spent;
    if (g_tracer.open >= 0) {
        g_tracer.spans[static_cast<std::size_t>(g_tracer.open)].child_ns +=
            spent;
    }
    return result;
}

// ----------------------------------------------------------- workloads

enum class Kind { OrderedWrites, KvReadMostly, ShardedCross, LeaderCrash };

struct WorkloadSpec {
    const char* name;
    Kind kind;
    bool kv;         // KvService (else EchoService)
    bool open_loop;  // Poisson arrivals (else closed loop)
    bool batched;    // batch 16 pipeline (else the unbatched Fig. 6 flow)
    int shards;
    int fronts;
    int sessions;
    int pipeline;          // closed loop: requests outstanding per session
    double rate;           // open loop: offered req/s
    double read_fraction;  // open loop: share of GETs
    std::uint64_t kv_keys; // open loop: Zipf key space
    sim::Duration warmup;
    sim::Duration window;
};

[[nodiscard]] const std::vector<WorkloadSpec>& workloads();

struct Metric {
    std::string name;
    std::string unit;
    double value = 0.0;
    std::string note;  // sample count or ratio base, for the report
};

struct CellOptions {
    double rate = 0.0;  // overrides spec.rate when > 0 (knee probes)
    /// Knee probe: short window, no drain, no end-of-run state checks;
    /// arrivals still unanswered at the cutoff count as infinitely slow.
    bool probe = false;
    int rep = 0;  // for span labels
};

struct CellResult {
    std::vector<std::string> violations;
    std::uint64_t issued = 0;
    std::uint64_t completed = 0;
    std::uint64_t unfinished = 0;
    /// Simulated metrics and counters (bit-identical for a given seed).
    std::vector<Metric> sim_e2e;
    std::vector<Metric> sim_layer;
    std::uint64_t digest = 0;
    /// Known consistency anomalies (counted in the layer metrics).
    std::vector<std::string> anomaly_samples;
    // Knee probes.
    double probe_p99_ms = 0.0;
    std::uint64_t probe_backlog = 0;
    // Host cost.
    double setup_s = 0.0;
    double run_cpu_s = 0.0;
    std::uint64_t run_allocs = 0;
    std::uint64_t run_events = 0;
    double execute_ns = 0.0;
    double classify_ns = 0.0;
    double generate_ns = 0.0;
};

[[nodiscard]] CellResult run_cell(const WorkloadSpec& spec,
                                  std::uint64_t seed,
                                  const CellOptions& options);

}  // namespace perfbench

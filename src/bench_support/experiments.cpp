#include "bench_support/experiments.hpp"

#include <type_traits>

#include "apps/echo_service.hpp"
#include "http/http.hpp"
#include "http/page_service.hpp"

namespace troxy::bench {

using apps::EchoService;

std::string system_name(SystemKind kind) {
    switch (kind) {
        case SystemKind::Baseline: return "BL";
        case SystemKind::CTroxy: return "ctroxy";
        case SystemKind::ETroxy: return "etroxy";
    }
    return "?";
}

double MicroResult::conflict_rate() const {
    if (optimistic_attempts > 0) {  // baseline read optimization
        return static_cast<double>(read_conflicts) /
               static_cast<double>(optimistic_attempts);
    }
    // Per all reads that entered the fast-read logic: hits, conservative
    // misses (ordered without conflict), and actual conflicts.
    const std::uint64_t reads = troxy.fast_read_hits +
                                troxy.fast_read_misses +
                                troxy.fast_read_conflicts;
    if (reads == 0) return 0.0;
    return static_cast<double>(troxy.fast_read_conflicts) /
           static_cast<double>(reads);
}

namespace {

Generator make_generator(const MicroParams& params) {
    return [params](Rng& rng) {
        GeneratedRequest request;
        const std::uint64_t key = rng.next_below(
            static_cast<std::uint64_t>(params.key_count));
        const bool is_write =
            !params.read_workload ||
            rng.next_double() < params.write_fraction;
        if (is_write) {
            request.is_read = false;
            request.payload =
                EchoService::make_write(key, params.request_size);
        } else {
            request.is_read = true;
            request.payload = EchoService::make_read(
                key, params.read_workload ? 10 : params.request_size,
                params.reply_size);
        }
        return request;
    };
}

ClusterOptions base_options(const MicroParams& params) {
    ClusterOptions options;
    static_cast<hybster::PipelineOptions&>(options) = params;
    options.seed = params.seed;
    options.wan_clients = params.wan;
    options.lan_jitter = params.lan_jitter;
    return options;
}

Row make_row(std::string label, const Recorder& recorder) {
    Row row;
    row.label = std::move(label);
    row.throughput = recorder.throughput_per_sec();
    row.mean_ms = recorder.mean_latency_ms();
    row.p50_ms = recorder.percentile_latency_ms(50);
    row.p99_ms = recorder.percentile_latency_ms(99);
    return row;
}

/// Runs `params.clients` closed-loop clients of `cluster` through the
/// warmup and measurement window. The client ramp-up is staggered across
/// the warmup so measurement starts from steady state instead of a
/// connection/cold-cache stampede.
template <typename Cluster>
Row run_closed_loop(Cluster& cluster, const MicroParams& params,
                    std::string label) {
    Recorder recorder(params.warmup, params.window);
    Workload workload(cluster.simulator(), recorder, make_generator(params),
                      params.seed);
    const sim::Duration stagger =
        params.warmup / (2 * static_cast<unsigned>(params.clients) + 2);
    for (int i = 0; i < params.clients; ++i) {
        auto& client = cluster.add_client();
        cluster.simulator().after(
            stagger * static_cast<unsigned>(i),
            [&workload, &client, pipeline = params.pipeline]() {
                if constexpr (std::is_same_v<Cluster, BaselineCluster>) {
                    workload.drive_bft(client, pipeline);
                } else {
                    workload.drive_legacy(client, pipeline);
                }
            });
    }
    cluster.simulator().run_until(recorder.window_end() + sim::seconds(2));
    return make_row(std::move(label), recorder);
}

MicroResult run_baseline(const MicroParams& params) {
    BaselineCluster::Params cluster_params;
    cluster_params.base = base_options(params);
    cluster_params.service = []() {
        return std::make_unique<EchoService>();
    };
    cluster_params.optimistic_reads = params.baseline_optimistic_reads;
    BaselineCluster cluster(cluster_params);

    MicroResult result;
    result.row = run_closed_loop(cluster, params, "BL");
    for (auto* client : cluster.clients()) {
        result.optimistic_attempts += client->optimistic_attempts();
        result.read_conflicts += client->read_conflicts();
    }
    return result;
}

MicroResult run_troxy(SystemKind kind, const MicroParams& params) {
    TroxyCluster::Params cluster_params;
    cluster_params.base = base_options(params);
    cluster_params.service = []() {
        return std::make_unique<EchoService>();
    };
    cluster_params.classifier = [](ByteView request) {
        return EchoService().classify(request);
    };
    cluster_params.ctroxy = (kind == SystemKind::CTroxy);
    cluster_params.host.troxy.fast_reads = params.fast_reads;
    cluster_params.host.troxy.monitor.adaptive = params.adaptive_monitor;
    cluster_params.host.troxy.monitor.miss_threshold =
        params.monitor_threshold;
    cluster_params.host.troxy.enclave_costs = params.enclave_costs;
    static_cast<troxy_core::HostPipelineOptions&>(cluster_params.host) =
        params;
    cluster_params.host.coalesce_wire = params.coalesce_wire;
    cluster_params.client.coalesce_sends = params.coalesce_wire;
    // Remote cache queries cross the replica LAN, but under heavy load
    // their processing queues behind the enclave's thread budget; the
    // timeout is a liveness backstop, not a performance path, so it is
    // set well above worst-case queueing.
    cluster_params.host.fast_read_timeout =
        params.wan ? sim::milliseconds(500) : sim::milliseconds(100);
    TroxyCluster cluster(std::move(cluster_params));

    MicroResult result;
    result.row = run_closed_loop(cluster, params, system_name(kind));
    for (int r = 0; r < cluster.n(); ++r) {
        result.troxy.add_counters(cluster.host(r).status().troxy);
    }
    result.wire_messages = cluster.network().messages_sent();
    result.wire_bytes = cluster.network().bytes_sent();
    return result;
}

}  // namespace

MicroResult run_micro(SystemKind system, const MicroParams& params) {
    if (system == SystemKind::Baseline) return run_baseline(params);
    return run_troxy(system, params);
}

// --------------------------------------------------------------- HTTP

std::string http_system_name(HttpSystem system) {
    switch (system) {
        case HttpSystem::Standalone: return "Jetty (standalone)";
        case HttpSystem::Baseline: return "BL";
        case HttpSystem::Prophecy: return "Prophecy";
        case HttpSystem::Troxy: return "Troxy";
    }
    return "?";
}

namespace {

Generator http_generator(const HttpParams& params) {
    return [params](Rng& rng) {
        GeneratedRequest request;
        const int page = static_cast<int>(
            rng.next_below(static_cast<std::uint64_t>(params.page_count)));
        if (rng.next_double() < params.post_fraction) {
            request.is_read = false;
            // ~200 B POST payload (§VI-D).
            Bytes body(200, 0);
            for (std::size_t i = 0; i < body.size(); ++i) {
                body[i] = static_cast<std::uint8_t>('a' + (i + rng.next_below(26)) % 26);
            }
            request.payload = http::PageService::make_post(page, body);
        } else {
            request.is_read = true;
            request.payload = http::PageService::make_get(page);
        }
        return request;
    };
}

/// Runs the open-loop HTTP workload against one deployment.
template <typename Cluster>
Row run_http_on(HttpSystem system, const HttpParams& params) {
    typename Cluster::Params cluster_params;
    cluster_params.base.seed = params.seed;
    cluster_params.base.wan_clients = params.wan;
    cluster_params.service = [pages = params.page_count]() {
        return std::make_unique<http::PageService>(pages);
    };
    if constexpr (requires { cluster_params.classifier; }) {
        cluster_params.classifier = http::PageService::classifier();
    }
    if constexpr (std::is_same_v<Cluster, BaselineCluster>) {
        // Same read optimization as in the microbenchmarks: GETs are
        // executed optimistically and the client-side voter needs all
        // 2f+1 replies to match — under WAN jitter the client waits for
        // the slowest reply (§V-B), which is what separates BL from the
        // server-side voters here.
        cluster_params.optimistic_reads = true;
    }
    Cluster cluster(std::move(cluster_params));

    Recorder recorder(params.warmup, params.window);
    Workload workload(cluster.simulator(), recorder, http_generator(params),
                      params.seed);
    const double per_client_rate =
        params.total_rate_per_sec / params.clients;
    for (int i = 0; i < params.clients; ++i) {
        if constexpr (std::is_same_v<Cluster, BaselineCluster>) {
            workload.drive_bft_open(cluster.add_client(), per_client_rate);
        } else {
            workload.drive_legacy_open(cluster.add_client(),
                                       per_client_rate);
        }
    }
    cluster.simulator().run_until(recorder.window_end() + sim::seconds(2));
    return make_row(http_system_name(system), recorder);
}

}  // namespace

Row run_http(HttpSystem system, const HttpParams& params) {
    switch (system) {
        case HttpSystem::Standalone:
            return run_http_on<StandaloneCluster>(system, params);
        case HttpSystem::Baseline:
            return run_http_on<BaselineCluster>(system, params);
        case HttpSystem::Prophecy:
            return run_http_on<ProphecyCluster>(system, params);
        case HttpSystem::Troxy:
            return run_http_on<TroxyCluster>(system, params);
    }
    return Row{};
}

}  // namespace troxy::bench

#include "bench_support/experiments.hpp"

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
    const std::uint64_t reads =
        fast_read_hits + fast_read_misses + fast_read_conflicts;
    if (reads == 0) return 0.0;
    return static_cast<double>(fast_read_conflicts) /
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
    options.seed = params.seed;
    options.wan_clients = params.wan;
    options.lan_jitter = params.lan_jitter;
    options.batch_size_max = params.batch_size_max;
    options.batch_delay = params.batch_delay;
    options.coalesce_wire = params.coalesce_wire;
    options.execution_lanes = params.execution_lanes;
    return options;
}

MicroResult run_baseline(const MicroParams& params) {
    BaselineCluster::Params cluster_params;
    cluster_params.base = base_options(params);
    cluster_params.service = []() {
        return std::make_unique<EchoService>();
    };
    cluster_params.optimistic_reads = params.baseline_optimistic_reads;
    BaselineCluster cluster(cluster_params);

    Recorder recorder(params.warmup, params.window);
    Workload workload(cluster.simulator(), recorder, make_generator(params),
                      params.seed);
    // Stagger client ramp-up across the warmup so measurement starts from
    // steady state instead of a connection/cold-cache stampede.
    const sim::Duration stagger =
        params.warmup / (2 * static_cast<unsigned>(params.clients) + 2);
    for (int i = 0; i < params.clients; ++i) {
        auto& client = cluster.add_client();
        cluster.simulator().after(
            stagger * static_cast<unsigned>(i),
            [&workload, &client, pipeline = params.pipeline]() {
                workload.drive_bft(client, pipeline);
            });
    }
    cluster.simulator().run_until(recorder.window_end() + sim::seconds(2));

    MicroResult result;
    result.row.label = "BL";
    result.row.throughput = recorder.throughput_per_sec();
    result.row.mean_ms = recorder.mean_latency_ms();
    result.row.p50_ms = recorder.percentile_latency_ms(50);
    result.row.p99_ms = recorder.percentile_latency_ms(99);
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
    cluster_params.host.voter_batch_max = params.voter_batch_max;
    cluster_params.host.coalesce_wire = params.coalesce_wire;
    cluster_params.host.batch_reply_auth = params.batch_reply_auth;
    cluster_params.host.fastread_batch_max = params.fastread_batch_max;
    cluster_params.client.coalesce_sends = params.coalesce_client_sends;
    // Remote cache queries cross the replica LAN, but under heavy load
    // their processing queues behind the enclave's thread budget; the
    // timeout is a liveness backstop, not a performance path, so it is
    // set well above worst-case queueing.
    cluster_params.host.fast_read_timeout =
        params.wan ? sim::milliseconds(500) : sim::milliseconds(100);
    TroxyCluster cluster(std::move(cluster_params));

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
                workload.drive_legacy(client, pipeline);
            });
    }
    cluster.simulator().run_until(recorder.window_end() + sim::seconds(2));

    MicroResult result;
    result.row.label = system_name(kind);
    result.row.throughput = recorder.throughput_per_sec();
    result.row.mean_ms = recorder.mean_latency_ms();
    result.row.p50_ms = recorder.percentile_latency_ms(50);
    result.row.p99_ms = recorder.percentile_latency_ms(99);
    for (int r = 0; r < cluster.n(); ++r) {
        const auto host_status = cluster.host(r).status();
        const auto& status = host_status.troxy;
        result.fast_read_hits += status.fast_read_hits;
        result.fast_read_misses += status.fast_read_misses;
        result.fast_read_conflicts += status.fast_read_conflicts;
        result.ordered_requests += status.ordered_requests;
        result.mode_switches += status.mode_switches;
        result.enclave_transitions += status.enclave_transitions;
        result.reply_batches += status.reply_batches;
        result.batched_replies += status.batched_replies;
        result.reply_auth_batches += status.reply_auth_batches;
        result.batch_authenticated_replies +=
            status.batch_authenticated_replies;
        result.cache_query_batches += status.cache_query_batches;
        result.batched_cache_queries += status.batched_cache_queries;
        result.cache_response_batches += status.cache_response_batches;
        result.batched_cache_responses += status.batched_cache_responses;
        result.exec_scheduled_batches += host_status.exec.scheduled_batches;
        result.exec_scheduled_requests +=
            host_status.exec.scheduled_requests;
        result.exec_conflict_stalls += host_status.exec.conflict_stalls;
        result.exec_lanes_used_sum += host_status.exec.lanes_used_sum;
        result.exec_serial_ns +=
            static_cast<std::uint64_t>(host_status.exec.serial_cost);
        result.exec_charged_ns +=
            static_cast<std::uint64_t>(host_status.exec.charged_cost);
        result.cache_invalidations += status.cache_invalidations;
        result.invalidations_saved += status.invalidations_saved;
        result.fallback_prebatches += status.fallback_prebatches;
        result.prebatched_fallbacks += status.prebatched_fallbacks;
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

Row finish_row(HttpSystem system, const Recorder& recorder) {
    Row row;
    row.label = http_system_name(system);
    row.throughput = recorder.throughput_per_sec();
    row.mean_ms = recorder.mean_latency_ms();
    row.p50_ms = recorder.percentile_latency_ms(50);
    row.p99_ms = recorder.percentile_latency_ms(99);
    return row;
}

}  // namespace

Row run_http(HttpSystem system, const HttpParams& params) {
    ClusterOptions base;
    base.seed = params.seed;
    base.wan_clients = params.wan;

    const double per_client_rate =
        params.total_rate_per_sec / params.clients;
    const int pages = params.page_count;
    auto service = [pages]() {
        return std::make_unique<http::PageService>(pages);
    };

    Recorder recorder(params.warmup, params.window);

    switch (system) {
        case HttpSystem::Standalone: {
            StandaloneCluster::Params cluster_params;
            cluster_params.base = base;
            cluster_params.service = service;
            StandaloneCluster cluster(cluster_params);
            Workload workload(cluster.simulator(), recorder,
                              http_generator(params), params.seed);
            for (int i = 0; i < params.clients; ++i) {
                workload.drive_legacy_open(cluster.add_client(),
                                           per_client_rate);
            }
            cluster.simulator().run_until(recorder.window_end() +
                                          sim::seconds(2));
            return finish_row(system, recorder);
        }
        case HttpSystem::Baseline: {
            BaselineCluster::Params cluster_params;
            cluster_params.base = base;
            cluster_params.service = service;
            // Same read optimization as in the microbenchmarks: GETs are
            // executed optimistically and the client-side voter needs all
            // 2f+1 replies to match — under WAN jitter the client waits
            // for the slowest reply (§V-B), which is what separates BL
            // from the server-side voters here.
            cluster_params.optimistic_reads = true;
            BaselineCluster cluster(cluster_params);
            Workload workload(cluster.simulator(), recorder,
                              http_generator(params), params.seed);
            for (int i = 0; i < params.clients; ++i) {
                workload.drive_bft_open(cluster.add_client(),
                                        per_client_rate);
            }
            cluster.simulator().run_until(recorder.window_end() +
                                          sim::seconds(2));
            return finish_row(system, recorder);
        }
        case HttpSystem::Prophecy: {
            ProphecyCluster::Params cluster_params;
            cluster_params.base = base;
            cluster_params.service = service;
            cluster_params.classifier = http::PageService::classifier();
            ProphecyCluster cluster(cluster_params);
            Workload workload(cluster.simulator(), recorder,
                              http_generator(params), params.seed);
            for (int i = 0; i < params.clients; ++i) {
                workload.drive_legacy_open(cluster.add_client(),
                                           per_client_rate);
            }
            cluster.simulator().run_until(recorder.window_end() +
                                          sim::seconds(2));
            return finish_row(system, recorder);
        }
        case HttpSystem::Troxy: {
            TroxyCluster::Params cluster_params;
            cluster_params.base = base;
            cluster_params.service = service;
            cluster_params.classifier = http::PageService::classifier();
            TroxyCluster cluster(std::move(cluster_params));
            Workload workload(cluster.simulator(), recorder,
                              http_generator(params), params.seed);
            for (int i = 0; i < params.clients; ++i) {
                workload.drive_legacy_open(cluster.add_client(),
                                           per_client_rate);
            }
            cluster.simulator().run_until(recorder.window_end() +
                                          sim::seconds(2));
            return finish_row(system, recorder);
        }
    }
    return Row{};
}

}  // namespace troxy::bench

#include "bench_support/chaos.hpp"

#include <algorithm>
#include <functional>
#include <map>
#include <memory>

#include "apps/echo_service.hpp"
#include "bench_support/cluster.hpp"
#include "common/serialize.hpp"

namespace troxy::bench {

namespace {

using apps::EchoService;

/// Linearizability checking state for the echo service: a per-key
/// low-water mark of versions the clients have collectively observed as
/// committed. Any later reply must be at or above the mark that held when
/// its request was issued — a write must install a strictly newer
/// version, a read must return one at least as new.
struct Checker {
    std::map<std::uint64_t, std::uint64_t> committed;  // key → version
    std::map<std::uint64_t, std::uint64_t> writes_issued;
};

struct PendingOp {
    bool is_write = false;
    bool multi = false;        // two-key multiwrite (cross-shard path)
    std::uint64_t key = 0;
    std::uint64_t partner = 0; // second key of a multiwrite
    std::uint64_t floor = 0;   // committed[key] at invocation
};

struct ClientDriver {
    troxy_core::LegacyClient* client = nullptr;
    Rng rng{0};
    int remaining = 0;
    PendingOp pending;
};

}  // namespace

ChaosReport run_chaos(const ChaosOptions& options) {
    ChaosReport report;

    TroxyCluster::Params params;
    params.base.seed = options.seed;
    params.base.scheduler = options.scheduler;
    params.base.checkpoint_interval = options.checkpoint_interval;
    params.base.batch_size_max = options.batch_size_max;
    params.base.batch_delay = options.batch_delay;
    params.base.coalesce_wire = options.coalesce_wire;
    params.base.transport = options.transport;
    params.host.voter_batch_max = options.voter_batch_max;
    params.host.coalesce_wire = options.coalesce_wire;
    params.host.fastread_batch_max = options.fastread_batch_max;
    params.host.batch_reply_auth = options.batch_reply_auth;
    params.base.execution_lanes = options.execution_lanes;
    params.base.state_chunk_size = options.state_chunk_size;
    params.base.state_chunks_per_message = options.state_chunks_per_message;
    params.base.state_transfer_retry = options.state_transfer_retry;
    params.host.enclave_recovery_period = options.enclave_recovery_period;
    params.service = []() { return std::make_unique<EchoService>(); };
    params.classifier = [](ByteView request) {
        return EchoService().classify(request);
    };
    // Fast recovery timeouts so crash/partition windows of a few seconds
    // are survivable well inside the horizon.
    params.host.vote_timeout = sim::milliseconds(300);
    params.host.fast_read_timeout = sim::milliseconds(30);
    params.client.connection_timeout = sim::milliseconds(500);
    params.client.backoff_cap = sim::milliseconds(2000);

    // Sharded runs split the "k<i>" key universe evenly over the groups
    // and reach them through the front tier.
    params.base.shard_count = options.shards;
    params.base.front_count = options.fronts;
    params.front.upstream = params.client;
    params.front.cross_pipeline_depth = options.cross_pipeline_depth;
    std::vector<std::string> universe;
    for (int k = 0; k < std::max(options.keys, 1); ++k) {
        universe.push_back("k" + std::to_string(k));
    }
    params.map =
        troxy_core::ShardMap::split_evenly(std::move(universe), options.shards);
    TroxyCluster cluster(std::move(params));
    const int n = cluster.n();
    const int total_hosts = n * cluster.shards();

    // Fault schedule: explicit plan, a rolling restart, or a seeded
    // random one.
    sim::FaultPlan plan = options.plan;
    if (plan.empty() && options.rolling_restart) {
        // Rolling upgrade: every host crash/restarts once, one at a time,
        // evenly spread across the fault window. The downtime is clamped
        // below the per-host gap so at most one replica (≤ f, in any
        // shard) is ever down, keeping the run live throughout.
        const sim::Duration gap =
            (options.heal_by - options.fault_start) /
            static_cast<sim::Duration>(total_hosts);
        const sim::Duration down =
            std::min<sim::Duration>(options.rolling_downtime,
                                    gap > 1 ? gap - 1 : 1);
        for (int i = 0; i < total_hosts; ++i) {
            const sim::SimTime at =
                options.fault_start +
                gap * static_cast<sim::Duration>(i);
            plan.crash(at, i);
            plan.restart(at + down, i);
        }
    }
    if (plan.empty()) {
        Rng plan_rng = Rng(options.seed).fork(0x63686173);
        sim::FaultPlan::RandomOptions random;
        random.start = options.fault_start;
        random.heal_by = options.heal_by;
        random.hosts = total_hosts;
        random.max_concurrent_crashes = cluster.config().f;
        for (int s = 0; s < cluster.shards(); ++s) {
            const auto& replicas = cluster.config(s).replicas;
            random.nodes.insert(random.nodes.end(), replicas.begin(),
                                replicas.end());
        }
        random.crash_events = options.crash_events;
        random.partition_events = options.partition_events;
        random.link_flap_events = options.link_flap_events;
        random.loss_events = options.loss_events;
        random.max_loss = options.max_loss;
        plan = sim::FaultPlan::random(plan_rng, random);
    }
    report.plan_trace = plan.describe();
    plan.schedule(
        cluster.simulator(), cluster.network(),
        [&](int h) { cluster.crash_host(h / n, h % n); },
        [&](int h) { cluster.restart_host(h / n, h % n); });

    // Front-tier fault injection rides alongside the replica plan (an
    // unsharded deployment has no front).
    if (options.front_crash >= 0 &&
        options.front_crash < cluster.front_count()) {
        const int victim = options.front_crash;
        cluster.simulator().after(options.front_crash_at, [&, victim]() {
            cluster.crash_front(victim);
        });
        if (options.front_restart_at > options.front_crash_at) {
            cluster.simulator().after(options.front_restart_at,
                                      [&, victim]() {
                                          cluster.restart_front(victim);
                                      });
        }
    }

    // Closed-loop workload: each client keeps one request in flight.
    Checker checker;
    Rng workload_rng = Rng(options.seed).fork(0x776f726b);
    std::vector<std::unique_ptr<ClientDriver>> drivers;
    report.issued = static_cast<std::uint64_t>(options.clients) *
                    static_cast<std::uint64_t>(options.requests_per_client);

    std::function<void(ClientDriver*)> issue = [&](ClientDriver* driver) {
        if (driver->remaining == 0) return;
        --driver->remaining;

        PendingOp op;
        op.key = driver->rng.next_below(
            static_cast<std::uint64_t>(std::max(options.keys, 1)));
        op.is_write =
            driver->rng.next_double() < options.write_fraction;
        // The extra draw only happens when cross-shard traffic is
        // requested, so pre-shard seeds replay with an untouched stream.
        if (op.is_write && options.cross_shard_fraction > 0.0 &&
            driver->rng.next_double() < options.cross_shard_fraction) {
            op.multi = true;
            op.partner =
                (op.key +
                 static_cast<std::uint64_t>(std::max(options.keys, 2)) /
                     2) %
                static_cast<std::uint64_t>(std::max(options.keys, 2));
        }
        op.floor = checker.committed[op.key];
        driver->pending = op;
        if (op.is_write) ++checker.writes_issued[op.key];
        if (op.multi && op.partner != op.key) {
            ++checker.writes_issued[op.partner];
            ++report.multiwrites_issued;
        }

        Bytes request =
            op.multi ? EchoService::make_multi_write(op.key, op.partner, 64)
            : op.is_write
                ? EchoService::make_write(op.key, 64)
                : EchoService::make_read(op.key, 32, options.reply_size);
        driver->client->send(std::move(request), [&, driver](Bytes reply) {
            const PendingOp done = driver->pending;
            ++report.completed;

            if (done.is_write) {
                // Ack: u8(1) || u64(version) || padding to 10 bytes. A
                // multiwrite acks the primary key's version; the partner
                // key's commit is observed through later reads.
                bool valid = reply.size() == 10 && reply[0] == 1;
                std::uint64_t version = 0;
                if (valid) {
                    Reader r(ByteView(reply.data() + 1, 8));
                    version = r.u64();
                    valid = version > done.floor;
                }
                if (!valid) {
                    ++report.violations;
                    report.errors.push_back(
                        "write to key " + std::to_string(done.key) +
                        " acked version " + std::to_string(version) +
                        " but " + std::to_string(done.floor) +
                        " was already committed at invocation");
                } else {
                    auto& low = checker.committed[done.key];
                    low = std::max(low, version);
                }
            } else {
                // A read must reflect some version between the committed
                // floor at invocation and the newest version any
                // re-execution could have installed (each issued write can
                // run more than once under failover retries, hence the
                // generous upper bound).
                const std::uint64_t ceiling =
                    done.floor + 2 * checker.writes_issued[done.key] + 64;
                bool valid = false;
                for (std::uint64_t v = done.floor; v <= ceiling; ++v) {
                    if (reply == EchoService::expected_read_reply(
                                     done.key, v, options.reply_size)) {
                        valid = true;
                        auto& low = checker.committed[done.key];
                        low = std::max(low, v);
                        break;
                    }
                }
                if (!valid) {
                    ++report.violations;
                    report.errors.push_back(
                        "read of key " + std::to_string(done.key) +
                        " returned a stale or unknown version (floor " +
                        std::to_string(done.floor) + ")");
                }
            }
            const auto think = std::max<sim::Duration>(
                static_cast<sim::Duration>(driver->rng.next_exponential(
                    static_cast<double>(options.think_time))),
                1);
            cluster.simulator().after(think,
                                      [&issue, driver]() { issue(driver); });
        });
    };

    for (int c = 0; c < options.clients; ++c) {
        auto driver = std::make_unique<ClientDriver>();
        driver->rng = workload_rng.fork(static_cast<std::uint64_t>(c) + 1);
        driver->remaining = options.requests_per_client;
        driver->client = &cluster.add_client();
        drivers.push_back(std::move(driver));
    }
    for (auto& driver : drivers) {
        ClientDriver* raw = driver.get();
        raw->client->start([&issue, raw]() { issue(raw); });
    }

    cluster.simulator().run_until(options.horizon);

    // Convergence: after the drain window a quorum must agree on one
    // service state at the highest executed sequence number — per
    // replica group, since each shard orders its own log.
    const int shard_count = cluster.shards();
    const int quorum = cluster.config().quorum();
    for (int s = 0; s < shard_count; ++s) {
        hybster::SequenceNumber max_executed = 0;
        for (int i = 0; i < n; ++i) {
            max_executed = std::max(
                max_executed, cluster.host(s, i).replica().last_executed());
        }
        int at_tip = 0;
        Bytes tip_state;
        bool tip_diverged = false;
        for (int i = 0; i < n; ++i) {
            auto& replica = cluster.host(s, i).replica();
            if (replica.last_executed() != max_executed) continue;
            const Bytes state = replica.service().checkpoint();
            if (at_tip == 0) {
                tip_state = state;
            } else if (state != tip_state) {
                tip_diverged = true;
            }
            ++at_tip;
        }
        const std::string where =
            shard_count == 1 ? "" : " in shard " + std::to_string(s);
        if (at_tip < quorum) {
            ++report.violations;
            report.errors.push_back(
                "only " + std::to_string(at_tip) +
                " replicas reached sequence " +
                std::to_string(max_executed) + where + " (quorum is " +
                std::to_string(quorum) + ")");
        }
        if (tip_diverged) {
            ++report.violations;
            report.errors.push_back(
                "replicas at sequence " + std::to_string(max_executed) +
                where + " disagree on the service state");
        }
    }

    for (auto& driver : drivers) {
        report.failovers += driver->client->failovers();
    }
    for (int h = 0; h < total_hosts; ++h) {
        auto& host = cluster.host(h / n, h % n);
        report.view_changes =
            std::max(report.view_changes, host.replica().view_changes());
        report.state_transfers += host.replica().state_transfers();
        report.restarts += host.restarts();
        const auto status = host.status();
        report.enclave_recoveries += status.enclave_recoveries;
        report.fast_read_hits += status.troxy.fast_read_hits;
        report.fast_read_misses += status.troxy.fast_read_misses;
        report.fast_read_conflicts += status.troxy.fast_read_conflicts;
        report.st_bytes_sent += status.state.bytes_sent;
        report.st_bytes_full += status.state.bytes_full;
        report.st_chunks_sent += status.state.chunks_sent;
        report.st_chunks_skipped += status.state.chunks_skipped;
        report.st_chunks_reused += status.state.chunks_reused;
        report.st_transfers_resumed += status.state.transfers_resumed;
    }
    const std::uint64_t fast_reads = report.fast_read_hits +
                                     report.fast_read_misses +
                                     report.fast_read_conflicts;
    report.fast_read_hit_rate =
        fast_reads == 0 ? 0.0
                        : static_cast<double>(report.fast_read_hits) /
                              static_cast<double>(fast_reads);
    if (options.fastread_hitrate_floor > 0.0 &&
        report.fast_read_hit_rate < options.fastread_hitrate_floor) {
        ++report.violations;
        report.errors.push_back(
            "fast-read hit rate " +
            std::to_string(report.fast_read_hit_rate) +
            " fell below the floor " +
            std::to_string(options.fastread_hitrate_floor));
    }

    if (shard_count > 1) {
        // Aggregate over the front tier: counters sum (fronts are
        // independent), peaks take the max, latency percentiles merge
        // every front's raw samples.
        std::vector<troxy_core::ShardFrontHost::Status> front_statuses;
        std::vector<sim::Duration> merged_latencies;
        report.front_count = cluster.front_count();
        for (int f = 0; f < cluster.front_count(); ++f) {
            auto& front = cluster.front(f);
            front_statuses.push_back(front.status());
            const auto& status = front_statuses.back();
            report.cross_shard_commits += status.cross_shard_commits;
            report.front_requests += status.requests;
            report.front_released += status.released;
            report.front_failovers += status.upstream_failovers;
            report.router_fanout = status.router_fanout;
            report.front_restarts += front.restarts();
            report.cross_lock_waits += status.cross_lock_waits;
            report.cross_inflight_peak = std::max(
                report.cross_inflight_peak, status.cross_inflight_peak);
            merged_latencies.insert(merged_latencies.end(),
                                    front.cross_latencies().begin(),
                                    front.cross_latencies().end());
        }
        if (!merged_latencies.empty()) {
            std::sort(merged_latencies.begin(), merged_latencies.end());
            auto at = [&](double p) {
                const double rank =
                    p * static_cast<double>(merged_latencies.size() - 1);
                const auto index = std::min(
                    static_cast<std::size_t>(rank + 0.5),
                    merged_latencies.size() - 1);
                return sim::to_millis(merged_latencies[index]);
            };
            report.cross_p50_ms = at(0.50);
            report.cross_p99_ms = at(0.99);
        }
        for (int s = 0; s < shard_count; ++s) {
            ShardChaosReport shard;
            for (const auto& status : front_statuses) {
                const auto& front_shard =
                    status.shards[static_cast<std::size_t>(s)];
                shard.forwarded += front_shard.forwarded;
                shard.replies += front_shard.replies;
                shard.reads += front_shard.reads;
                shard.writes += front_shard.writes;
                shard.cross_participations +=
                    front_shard.cross_participations;
            }
            for (int i = 0; i < n; ++i) {
                auto& host = cluster.host(s, i);
                const auto status = host.status();
                shard.fast_read_hits += status.troxy.fast_read_hits;
                shard.fast_read_misses += status.troxy.fast_read_misses;
                shard.fast_read_conflicts +=
                    status.troxy.fast_read_conflicts;
                shard.view_changes = std::max(
                    shard.view_changes, host.replica().view_changes());
                shard.state_transfers += host.replica().state_transfers();
            }
            const std::uint64_t shard_reads = shard.fast_read_hits +
                                              shard.fast_read_misses +
                                              shard.fast_read_conflicts;
            shard.fast_read_hit_rate =
                shard_reads == 0
                    ? 0.0
                    : static_cast<double>(shard.fast_read_hits) /
                          static_cast<double>(shard_reads);
            report.shards.push_back(shard);
        }
    }

    report.messages_sent = cluster.network().messages_sent();
    report.bytes_sent = cluster.network().bytes_sent();
    report.drops = cluster.network().drops();
    report.pool = cluster.network().pool().stats();
    const std::uint64_t pool_lookups = report.pool.hits + report.pool.misses;
    report.pool_hit_rate =
        pool_lookups == 0 ? 0.0
                          : static_cast<double>(report.pool.hits) /
                                static_cast<double>(pool_lookups);
    report.wire = cluster.network().wire_stats();
    return report;
}

}  // namespace troxy::bench

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

/// How long each host stays down in a rolling restart (clamped below the
/// per-host gap so at most one host is ever down).
constexpr sim::Duration kRollingDowntime = sim::milliseconds(400);

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
    static_cast<hybster::PipelineOptions&>(params.base) = options;
    static_cast<troxy_core::HostPipelineOptions&>(params.host) = options;
    params.host.coalesce_wire = options.coalesce_wire;
    params.base.seed = options.seed;
    params.base.scheduler = options.scheduler;
    params.base.checkpoint_interval = options.checkpoint_interval;
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
            std::min<sim::Duration>(kRollingDowntime, gap > 1 ? gap - 1 : 1);
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
        for (int s = 0; s < cluster.shards(); ++s) {
            const auto& replicas = cluster.config(s).replicas;
            random.nodes.insert(random.nodes.end(), replicas.begin(),
                                replicas.end());
        }
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
        driver->client->send(
            std::move(request), [&, driver](const Bytes& reply) {
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
    troxy_core::TroxyEnclave::Status troxy;
    for (int h = 0; h < total_hosts; ++h) {
        auto& host = cluster.host(h / n, h % n);
        report.view_changes =
            std::max(report.view_changes, host.replica().view_changes());
        report.state_transfers += host.replica().state_transfers();
        report.restarts += host.restarts();
        const auto status = host.status();
        report.enclave_recoveries += status.enclave_recoveries;
        troxy.add_counters(status.troxy);
        report.st_transfers_resumed += status.state.transfers_resumed;
    }
    const std::uint64_t fast_reads = troxy.fast_read_hits +
                                     troxy.fast_read_misses +
                                     troxy.fast_read_conflicts;
    report.fast_read_hit_rate =
        fast_reads == 0 ? 0.0
                        : static_cast<double>(troxy.fast_read_hits) /
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
        // Counters sum over the front tier (fronts are independent).
        report.front_count = cluster.front_count();
        report.shards.resize(static_cast<std::size_t>(shard_count));
        for (int f = 0; f < cluster.front_count(); ++f) {
            auto& front = cluster.front(f);
            const auto status = front.status();
            report.cross_shard_commits += status.cross_shard_commits;
            report.router_fanout = status.router_fanout;
            report.front_restarts += front.restarts();
            for (int s = 0; s < shard_count; ++s) {
                report.shards[static_cast<std::size_t>(s)].forwarded +=
                    status.shards[static_cast<std::size_t>(s)].forwarded;
            }
        }
    }

    report.messages_sent = cluster.network().messages_sent();
    report.bytes_sent = cluster.network().bytes_sent();
    report.drops = cluster.network().drops();
    const sim::BufferPool::Stats pool = cluster.network().pool().stats();
    const std::uint64_t pool_lookups = pool.hits + pool.misses;
    report.pool_hit_rate =
        pool_lookups == 0 ? 0.0
                          : static_cast<double>(pool.hits) /
                                static_cast<double>(pool_lookups);
    return report;
}

}  // namespace troxy::bench

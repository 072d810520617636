// One benchmark cell: build a cluster, complete every handshake (setup),
// drive one workload through warmup, window and drain, then check the
// outputs and read the layers' public counters.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "apps/echo_service.hpp"
#include "apps/kv_service.hpp"
#include "bench.hpp"
#include "bench_support/cluster.hpp"
#include "bench_support/workload.hpp"
#include "checks.hpp"
#include "common/serialize.hpp"

namespace perfbench {

namespace {

using namespace troxy;
using troxy::bench::ShardedTroxyCluster;

constexpr std::uint64_t kEchoKeysOrdered = 1024;
constexpr std::uint64_t kEchoKeysSharded = 4096;
constexpr double kKvZipf = 0.99;
constexpr std::uint64_t kVirtualClients = 100000;
constexpr double kChurnPerSec = 20.0;
constexpr double kCrossFraction = 0.5;

/// The application service with its execute/classify calls timed by the
/// tracer; the benchmark supplies it so the timing needs no change to the
/// program.
template <class Inner>
class TimedService final : public hybster::Service {
  public:
    [[nodiscard]] hybster::RequestInfo classify(
        ByteView request) const override {
        return timed(g_tracer.classify,
                     [&] { return inner_.classify(request); });
    }
    Bytes execute(ByteView request) override {
        return timed(g_tracer.execute,
                     [&] { return inner_.execute(request); });
    }
    [[nodiscard]] Bytes checkpoint() const override {
        return inner_.checkpoint();
    }
    void restore(ByteView snapshot) override { inner_.restore(snapshot); }
    [[nodiscard]] sim::Duration execution_cost(
        ByteView request) const override {
        return inner_.execution_cost(request);
    }
    [[nodiscard]] const Inner& inner() const noexcept { return inner_; }

  private:
    Inner inner_;
};

template <class Inner>
troxy_core::Classifier timed_classifier() {
    return [](ByteView request) {
        static const Inner classifier;
        return timed(g_tracer.classify,
                     [&] { return classifier.classify(request); });
    };
}

/// Opens a span for a phase; closes it on destruction.
class Phase {
  public:
    Phase(const char* name, int rep, const sim::Simulator* simulator)
        : simulator_(simulator) {
        if (!g_tracer.enabled) return;
        Span span;
        span.name = name;
        span.rep = rep;
        span.start_ns = wall_ns();
        if (simulator_ != nullptr) {
            span.sim_start = simulator_->now();
            span.events = simulator_->executed_events();
        }
        g_tracer.spans.push_back(std::move(span));
        index_ = static_cast<int>(g_tracer.spans.size()) - 1;
        previous_ = g_tracer.open;
        g_tracer.open = index_;
    }
    ~Phase() {
        if (index_ < 0) return;
        Span& span = g_tracer.spans[static_cast<std::size_t>(index_)];
        span.end_ns = wall_ns();
        if (simulator_ != nullptr) {
            span.sim_end = simulator_->now();
            span.events = simulator_->executed_events() - span.events;
        }
        g_tracer.open = previous_;
    }
    Phase(const Phase&) = delete;
    Phase& operator=(const Phase&) = delete;

  private:
    const sim::Simulator* simulator_;
    int index_ = -1;
    int previous_ = -1;
};

/// Cumulative counters read after setup and again at the end of the run.
struct Snapshot {
    std::uint64_t events = 0;
    std::uint64_t heap_callbacks = 0;
    std::uint64_t messages = 0;
    std::uint64_t bytes = 0;
    std::uint64_t drops = 0;
    std::uint64_t pool_hits = 0;
    std::uint64_t pool_misses = 0;
    std::uint64_t transitions = 0;
    std::uint64_t busy_leader = 0;
    std::uint64_t busy_follower = 0;
    std::uint64_t busy_front = 0;
};

double percentile_ms(std::vector<sim::Duration>& samples, double p) {
    if (samples.empty()) return 0.0;
    std::sort(samples.begin(), samples.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(samples.size())));
    const std::size_t index = rank == 0 ? 0 : rank - 1;
    return sim::to_millis(samples[std::min(index, samples.size() - 1)]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::string count_note(const char* what, std::uint64_t n) {
    return "of " + std::to_string(n) + " " + what;
}

class Cell {
  public:
    Cell(const WorkloadSpec& spec, std::uint64_t seed,
         const CellOptions& options)
        : spec_(spec),
          options_(options),
          seed_(seed),
          rate_(options.rate > 0.0 ? options.rate : spec.rate),
          gen_rng_(seed ^ 0x67656e65ULL),
          arrival_rng_(seed ^ 0x6172726fULL),
          churn_rng_(seed ^ 0x63687572ULL),
          zipf_(std::max<std::uint64_t>(1, spec.kv_keys), kKvZipf) {
        put_records_.push_back(0);  // put ids are 1-based
    }

    CellResult run();

  private:
    sim::Simulator& sim() { return cluster_->simulator(); }
    [[nodiscard]] bool sharded() const { return spec_.shards > 1; }
    [[nodiscard]] std::uint64_t echo_keys() const {
        return sharded() ? kEchoKeysSharded : kEchoKeysOrdered;
    }

    void build();
    void handshake();
    void advance(const char* phase, sim::SimTime until);
    void drive();
    void drain();
    void rejoin();

    Bytes generate(std::uint32_t session, sim::SimTime issued_at,
                   bool is_read, std::uint64_t kv_rank);
    void issue(std::uint32_t session, sim::SimTime issued_at, bool is_read,
               std::uint64_t kv_rank);
    void issue_closed(std::uint32_t session);
    void schedule_arrival(sim::SimTime due);
    void arrive(sim::SimTime due);
    void churn(sim::SimTime due);
    void on_reply(std::uint64_t id, const Bytes& reply);
    void violate(std::string message);

    [[nodiscard]] Snapshot snapshot();
    void check_outputs();
    void collect(CellResult& out, const Snapshot& before,
                 const Snapshot& after);

    const WorkloadSpec& spec_;
    CellOptions options_;
    std::uint64_t seed_;
    double rate_;
    Rng gen_rng_;
    Rng arrival_rng_;
    Rng churn_rng_;
    troxy::bench::ZipfianSampler zipf_;
    troxy_core::ShardMap map_;

    std::unique_ptr<ShardedTroxyCluster> cluster_;
    std::vector<troxy_core::LegacyClient*> sessions_;

    sim::SimTime t0_ = 0;            // every handshake complete
    sim::SimTime window_start_ = 0;
    sim::SimTime window_end_ = 0;
    sim::SimTime stop_at_ = 0;       // no request issued from here on
    sim::SimTime crash_at_ = 0;
    double rejoin_ms_ = 0.0;

    std::vector<Record> records_;
    std::vector<std::uint64_t> put_records_;
    std::uint64_t completed_ = 0;
    std::uint64_t outstanding_ = 0;
    std::uint64_t backlog_at_window_end_ = 0;
    std::uint64_t arrivals_drawn_ = 0;
    std::uint64_t arrivals_fired_ = 0;
    std::uint64_t churned_ = 0;
    Anomalies anomalies_;
    std::vector<std::string> violations_;
};

void Cell::build() {
    ShardedTroxyCluster::Params params;
    params.base.seed = seed_;
    params.base.shard_count = spec_.shards;
    params.base.front_count = spec_.fronts;
    if (spec_.batched) {
        params.base.batch_size_max = 16;
        params.base.batch_delay = sim::microseconds(200);
        params.base.coalesce_wire = true;
        params.host.coalesce_wire = true;
        params.host.voter_batch_max = 16;
        params.host.fastread_batch_max = 16;
        params.host.batch_reply_auth = true;
    }
    // A liveness backstop for remote cache queries, as in the figure
    // benches' LAN runs.
    params.host.fast_read_timeout = sim::milliseconds(100);
    params.ctroxy = false;  // etroxy: the Troxy runs inside the enclave
    // A client gives up on a silent server after 1 s and tries the next
    // one on its list; only leader-crash ever gets there.
    params.client.connection_timeout = sim::seconds(1);
    if (spec_.kind == Kind::LeaderCrash) {
        // A Troxy re-submits an ordered request whose vote is still open
        // after this timeout. Around a view change that request may already
        // have executed, and the replicas keep only each client's last
        // reply, so it executes again and overwrites newer PUTs (README,
        // "lost writes"). Client failover already covers a silent contact,
        // so the retransmit is pushed past the end of the run.
        params.host.vote_timeout = sim::seconds(3600);
        // A session fails over at the first tick of its 1 s watchdog that
        // finds it idle for a full period. Jittered periods (and churn,
        // see drive) give every session a random tick phase, which made
        // p99 move by 10 % between seeds; without them the phases line up.
        params.client.backoff_jitter = 0.0;
    }
    if (spec_.kv) {
        params.service = [] {
            return std::make_unique<TimedService<apps::KvService>>();
        };
        params.classifier = timed_classifier<apps::KvService>();
    } else {
        params.service = [] {
            return std::make_unique<TimedService<apps::EchoService>>();
        };
        params.classifier = timed_classifier<apps::EchoService>();
    }
    if (sharded()) {
        std::vector<std::string> universe;
        for (std::uint64_t k = 0; k < kEchoKeysSharded; ++k) {
            universe.push_back(kv_key(k));
        }
        map_ = troxy_core::ShardMap::split_evenly(universe, spec_.shards);
        params.map = map_;
    }
    cluster_ = std::make_unique<ShardedTroxyCluster>(std::move(params));
    for (int i = 0; i < spec_.sessions; ++i) {
        sessions_.push_back(&cluster_->add_client());
    }
}

void Cell::handshake() {
    int ready = 0;
    for (auto* session : sessions_) {
        session->start([&ready] { ++ready; });
    }
    const sim::SimTime deadline = sim().now() + sim::seconds(5);
    while (ready < spec_.sessions && sim().now() < deadline) {
        sim().run_until(sim().now() + sim::milliseconds(1));
    }
    if (ready < spec_.sessions) {
        violate("handshakes did not complete within 5 s");
    }
    t0_ = sim().now();
}

void Cell::advance(const char* phase, sim::SimTime until) {
    Phase span(phase, options_.rep, &sim());
    sim().run_until(until);
}

Bytes Cell::generate(std::uint32_t session, sim::SimTime issued_at,
                     bool is_read, std::uint64_t kv_rank) {
    Record r;
    r.issued_at = issued_at;
    r.session = session;
    Bytes payload;
    if (spec_.kv) {
        r.key = kv_rank;
        if (is_read) {
            payload = apps::KvService::make_get(kv_key(kv_rank));
        } else {
            r.op = 1;
            r.aux = put_records_.size();
            put_records_.push_back(records_.size());
            payload = apps::KvService::make_put(kv_key(kv_rank),
                                                kv_value(kv_rank, r.aux));
        }
    } else if (!sharded()) {
        r.op = 1;
        r.key = gen_rng_.next_below(kEchoKeysOrdered);
        payload = apps::EchoService::make_write(r.key, 256);
    } else {
        r.key = gen_rng_.next_below(kEchoKeysSharded);
        if (gen_rng_.next_double() < kCrossFraction) {
            // Partner drawn until it lives on another shard, so every
            // multiwrite takes the cross-shard lane.
            const int home = map_.shard_of(kv_key(r.key));
            do {
                r.aux = gen_rng_.next_below(kEchoKeysSharded);
            } while (map_.shard_of(kv_key(r.aux)) == home);
            r.op = 2;
            payload = apps::EchoService::make_multi_write(r.key, r.aux, 64);
        } else {
            r.op = 1;
            payload = apps::EchoService::make_write(r.key, 64);
        }
    }
    records_.push_back(r);
    return payload;
}

void Cell::issue(std::uint32_t session, sim::SimTime issued_at, bool is_read,
                 std::uint64_t kv_rank) {
    const std::uint64_t id = records_.size();
    Bytes payload = timed(g_tracer.generate, [&] {
        return generate(session, issued_at, is_read, kv_rank);
    });
    ++outstanding_;
    sessions_[session]->send(std::move(payload), [this, id](Bytes reply) {
        on_reply(id, reply);
    });
}

void Cell::issue_closed(std::uint32_t session) {
    if (sim().now() >= stop_at_) return;
    issue(session, sim().now(), false, 0);
}

void Cell::arrive(sim::SimTime due) {
    // The next arrival is drawn from this one's due time, not from now, and
    // the simulator runs an event at its exact time, so the generator is
    // never late; what can go wrong is an arrival that never fires.
    ++arrivals_fired_;
    const std::uint64_t vclient = arrival_rng_.next_below(kVirtualClients);
    const auto session =
        static_cast<std::uint32_t>(vclient % sessions_.size());
    const std::uint64_t rank = zipf_.sample(arrival_rng_);
    const bool is_read = arrival_rng_.next_double() < spec_.read_fraction;
    issue(session, due, is_read, rank);
    const auto gap = static_cast<sim::Duration>(
        arrival_rng_.next_exponential(1.0 / rate_) * 1e9);
    const sim::SimTime next = due + gap;
    if (next < stop_at_) schedule_arrival(next);
}

void Cell::schedule_arrival(sim::SimTime due) {
    ++arrivals_drawn_;
    sim().at(due, [this, due] { arrive(due); });
}

void Cell::churn(sim::SimTime due) {
    // A departing user has nothing outstanding: the first idle session
    // from a random start re-handshakes. (Reconnecting a session with
    // requests in flight hands replies to the wrong requests, which the
    // output checks flag, so that case is not part of the load.)
    const std::size_t start = churn_rng_.next_below(sessions_.size());
    for (std::size_t i = 0; i < sessions_.size(); ++i) {
        auto* session = sessions_[(start + i) % sessions_.size()];
        if (session->outstanding() == 0 && session->connected()) {
            session->reconnect();
            ++churned_;
            break;
        }
    }
    const auto gap = static_cast<sim::Duration>(
        churn_rng_.next_exponential(1.0 / kChurnPerSec) * 1e9);
    const sim::SimTime next = due + gap;
    if (next < stop_at_) sim().at(next, [this, next] { churn(next); });
}

void Cell::on_reply(std::uint64_t id, const Bytes& reply) {
    Record& r = records_[id];
    if (r.done_at != kNotDone) {
        violate("request " + std::to_string(id) + " answered twice");
        return;
    }
    r.done_at = sim().now();
    ++completed_;
    --outstanding_;
    if (spec_.kv) {
        const auto value = parse_kv_value(reply, r.key);
        if (!value) {
            violate("malformed KV reply for key " + std::to_string(r.key) +
                    ": '" + std::string(reply.begin(), reply.end()) + "'");
        } else {
            r.result = *value;
        }
    } else {
        const auto version = parse_echo_ack(reply);
        if (!version) {
            violate("malformed echo ack for key " + std::to_string(r.key));
        } else {
            r.result = *version;
        }
    }
    if (!spec_.open_loop) issue_closed(r.session);
}

void Cell::violate(std::string message) {
    if (violations_.size() < 50) violations_.push_back(std::move(message));
}

void Cell::drive() {
    const sim::Duration warmup =
        options_.probe ? sim::milliseconds(100) : spec_.warmup;
    const sim::Duration window =
        options_.probe ? sim::milliseconds(300) : spec_.window;
    window_start_ = t0_ + warmup;
    window_end_ = window_start_ + window;
    stop_at_ = window_end_;
    if (spec_.open_loop) {
        schedule_arrival(t0_ + static_cast<sim::Duration>(
            arrival_rng_.next_exponential(1.0 / rate_) * 1e9));
        // A re-handshake re-arms the session's failover watchdog at a
        // random time, so leader-crash has no churn (see build).
        const auto churn_first = t0_ + static_cast<sim::Duration>(
            churn_rng_.next_exponential(1.0 / kChurnPerSec) * 1e9);
        if (spec_.kind == Kind::KvReadMostly && churn_first < stop_at_) {
            sim().at(churn_first, [this, churn_first] { churn(churn_first); });
        }
    } else {
        for (std::uint32_t s = 0; s < sessions_.size(); ++s) {
            for (int i = 0; i < spec_.pipeline; ++i) issue_closed(s);
        }
    }
    advance("warmup", window_start_);
    if (spec_.kind != Kind::LeaderCrash || options_.probe) {
        advance("window", window_end_);
        backlog_at_window_end_ = outstanding_;
        return;
    }

    // Replica 0 leads view 0 and is the contact of every third session.
    // It crashes a quarter of the way into the window, so about a tenth of
    // the window's arrivals see the disruption and the median stays with
    // the undisturbed majority. It restarts only after the drain (rejoin).
    crash_at_ = window_start_ + window / 4;
    advance("window", crash_at_);
    {
        Phase span("crash", options_.rep, &sim());
        cluster_->crash_host(0, 0);
    }
    {
        Phase span("view-change", options_.rep, &sim());
        while (sim().now() < window_end_ &&
               (cluster_->host(0, 1).replica().view() == 0 ||
                cluster_->host(0, 2).replica().view() == 0)) {
            sim().run_until(sim().now() + sim::microseconds(500));
        }
    }
    advance("window.degraded", window_end_);
    backlog_at_window_end_ = outstanding_;
}

/// Restarts the crashed replica once every request is answered; it
/// rejoins by state transfer. A restart under load lets the view that the
/// rejoin starts re-execute requests issued right at the restart
/// (README, "lost writes"), so no request is in flight when it happens.
void Cell::rejoin() {
    const sim::SimTime restart_at = sim().now();
    {
        Phase span("restart", options_.rep, &sim());
        cluster_->restart_host(0, 0);
    }
    Phase span("rejoin", options_.rep, &sim());
    const sim::SimTime deadline = restart_at + sim::seconds(5);
    while (cluster_->host(0, 0).replica().rejoining() &&
           sim().now() < deadline) {
        sim().run_until(sim().now() + sim::microseconds(500));
    }
    if (cluster_->host(0, 0).replica().rejoining()) {
        violate("replica 0 did not rejoin within 5 s of its restart");
    }
    rejoin_ms_ = sim::to_millis(sim().now() - restart_at);
}

void Cell::drain() {
    Phase span("drain", options_.rep, &sim());
    if (options_.probe) {
        sim().run_until(std::max(sim().now(), window_end_) +
                        sim::milliseconds(20));
        return;
    }
    const sim::SimTime deadline = sim().now() + sim::seconds(10);
    while (outstanding_ > 0 && sim().now() < deadline) {
        sim().run_until(sim().now() + sim::milliseconds(10));
    }
    // Followers finish executing what the quorum already answered.
    sim().run_until(sim().now() + sim::milliseconds(50));
    if (crash_at_ > 0) rejoin();
    // A replica that missed the log tail (on leader-crash, around a view
    // change) catches up only when the next view change starts, which an
    // idle timer triggers; wait for it before the checkpoints are compared.
    auto replicas_agree = [this] {
        for (int shard = 0; shard < cluster_->shards(); ++shard) {
            const auto executed =
                cluster_->host(shard, 0).replica().last_executed();
            for (int r = 1; r < cluster_->config(shard).n(); ++r) {
                if (cluster_->host(shard, r).replica().last_executed() !=
                    executed) {
                    return false;
                }
            }
        }
        return true;
    };
    const sim::SimTime catch_up_deadline = sim().now() + sim::seconds(5);
    while (!replicas_agree() && sim().now() < catch_up_deadline) {
        sim().run_until(sim().now() + sim::milliseconds(10));
    }
}

std::uint64_t minus(std::uint64_t after, std::uint64_t before) {
    return after > before ? after - before : 0;
}

Snapshot Cell::snapshot() {
    Snapshot s;
    s.events = sim().executed_events();
    s.heap_callbacks = sim().scheduler_stats().heap_callbacks;
    auto& network = cluster_->network();
    s.messages = network.messages_sent();
    s.bytes = network.bytes_sent();
    s.drops = network.drops().total();
    s.pool_hits = network.pool().stats().hits;
    s.pool_misses = network.pool().stats().misses;
    for (int shard = 0; shard < cluster_->shards(); ++shard) {
        const int n = cluster_->config(shard).n();
        for (int r = 0; r < n; ++r) {
            auto& host = cluster_->host(shard, r);
            s.transitions += host.status().troxy.enclave_transitions;
            (r == 0 ? s.busy_leader : s.busy_follower) +=
                host.node().busy_time();
        }
    }
    for (int f = 0; f < cluster_->front_count(); ++f) {
        s.busy_front += cluster_->front(f).node().busy_time();
    }
    return s;
}

void Cell::check_outputs() {
    if (arrivals_fired_ != arrivals_drawn_) {
        violate(std::to_string(arrivals_drawn_) +
                " open-loop arrivals drawn but " +
                std::to_string(arrivals_fired_) + " fired");
    }
    for (int shard = 0; shard < cluster_->shards(); ++shard) {
        const Bytes reference =
            cluster_->host(shard, 0).replica().service().checkpoint();
        for (int r = 1; r < cluster_->config(shard).n(); ++r) {
            if (cluster_->host(shard, r).replica().service().checkpoint() !=
                reference) {
                violate("shard " + std::to_string(shard) + " replica " +
                        std::to_string(r) +
                        " state differs from replica 0 after the drain");
            }
        }
    }
    const bool all_answered = outstanding_ == 0;
    // A session that failed over re-sends its unanswered requests under a
    // new session, so from then on a request may execute twice. Only a
    // crashed host may cause a failover.
    std::uint64_t failovers = 0;
    for (auto* session : sessions_) failovers += session->failovers();
    for (int f = 0; f < cluster_->front_count(); ++f) {
        failovers += cluster_->front(f).status().upstream_failovers;
    }
    const bool crashed = crash_at_ > 0;
    if (failovers > 0 && !crashed) {
        violate(std::to_string(failovers) +
                " session failovers although no host crashed");
    }
    const bool exactly_once = failovers == 0 || !crashed;
    if (spec_.kv) {
        std::map<std::uint64_t, std::uint64_t> final_state;
        const Bytes state =
            cluster_->host(0, 0).replica().service().checkpoint();
        Reader reader(state);
        const std::uint32_t count = reader.u32();
        for (std::uint32_t i = 0; i < count; ++i) {
            const std::string key = reader.str();
            const std::string value = reader.str();
            const bool digits =
                key.size() > 1 && key.size() < 20 && key[0] == 'k' &&
                key.find_first_not_of("0123456789", 1) == std::string::npos;
            const std::uint64_t rank = digits ? std::stoull(key.substr(1)) : 0;
            const auto put_id = parse_kv_value(to_bytes(value), rank);
            if (!digits || !put_id || kv_key(rank) != key) {
                violate("replica state holds a foreign entry " + key);
                continue;
            }
            final_state[rank] = *put_id;
        }
        check_kv(records_, put_records_, final_state, exactly_once,
                 spec_.kind == Kind::KvReadMostly, violations_, anomalies_);
    } else {
        auto final_version = [this](std::uint64_t key) {
            const int shard = sharded() ? map_.shard_of(kv_key(key)) : 0;
            const auto& service =
                dynamic_cast<const TimedService<apps::EchoService>&>(
                    cluster_->host(shard, 0).replica().service());
            return service.inner().version_of(key);
        };
        check_echo(records_, echo_keys(), final_version, all_answered,
                   exactly_once, violations_);
    }
}

void Cell::collect(CellResult& out, const Snapshot& before,
                   const Snapshot& after) {
    out.issued = records_.size();
    out.completed = completed_;
    out.unfinished = outstanding_;
    const double n = static_cast<double>(std::max<std::uint64_t>(1, completed_));

    // Latency samples: open loop times each arrival due in the window from
    // its scheduled send (unanswered ones count as infinitely slow);
    // closed loop times each completion inside the window.
    std::vector<sim::Duration> samples;
    std::uint64_t window_completions = 0;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::vector<sim::SimTime> after_crash;
    for (const Record& r : records_) {
        const bool done = r.done_at != kNotDone;
        if (done) (r.op == 0 ? reads : writes) += 1;
        const bool done_in_window =
            done && r.done_at >= window_start_ && r.done_at < window_end_;
        if (done_in_window) ++window_completions;
        if (spec_.open_loop) {
            if (r.issued_at >= window_start_ && r.issued_at < window_end_) {
                samples.push_back(done ? r.done_at - r.issued_at : kNotDone);
            }
        } else if (done_in_window) {
            samples.push_back(r.done_at - r.issued_at);
        }
        if (crash_at_ > 0 && done && r.done_at >= crash_at_ &&
            r.done_at <= window_end_) {
            after_crash.push_back(r.done_at);
        }
    }
    const std::string n_note = "n=" + std::to_string(samples.size());
    const double window_s = sim::to_seconds(window_end_ - window_start_);
    auto& e2e = out.sim_e2e;
    e2e.push_back({"sim_tput_rps", "req/s",
                   static_cast<double>(window_completions) / window_s,
                   std::to_string(window_completions) + " completions in " +
                       std::to_string(window_s) + " s"});
    e2e.push_back({"sim_p50_ms", "ms", percentile_ms(samples, 50), n_note});
    e2e.push_back({"sim_p99_ms", "ms", percentile_ms(samples, 99), n_note});
    out.probe_p99_ms = e2e.back().value;
    out.probe_backlog = backlog_at_window_end_;
    e2e.push_back({"failed_frac", "ratio",
                   ratio(static_cast<double>(outstanding_),
                         static_cast<double>(records_.size())),
                   count_note("requests issued", records_.size())});
    if (crash_at_ > 0) {
        std::sort(after_crash.begin(), after_crash.end());
        sim::SimTime last = crash_at_;
        sim::Duration gap = 0;
        for (const sim::SimTime t : after_crash) {
            gap = std::max(gap, t - last);
            last = t;
        }
        gap = std::max(gap, window_end_ - last);
        e2e.push_back({"unavail_ms", "ms", sim::to_millis(gap),
                       "longest gap without a completion after the crash"});
    }

    // Layer counters over the run (setup excluded).
    std::uint64_t ordered = 0, batches = 0, state_bytes = 0, hits = 0,
                  misses = 0, conflicts = 0, reply_batches = 0,
                  batched_replies = 0, query_batches = 0, batched_queries = 0,
                  invalidations = 0, cache_entries = 0, rejected = 0,
                  trusted_bytes = 0, view_changes = 0;
    for (int shard = 0; shard < cluster_->shards(); ++shard) {
        std::uint64_t shard_views = 0;
        for (int r = 0; r < cluster_->config(shard).n(); ++r) {
            auto& host = cluster_->host(shard, r);
            const auto status = host.status();
            const auto& t = status.troxy;
            ordered += t.ordered_requests;
            batches += status.exec.batches_cut;
            state_bytes += status.state.bytes_sent;
            hits += t.fast_read_hits;
            misses += t.fast_read_misses;
            conflicts += t.fast_read_conflicts;
            reply_batches += t.reply_batches;
            batched_replies += t.batched_replies;
            query_batches += t.cache_query_batches;
            batched_queries += t.batched_cache_queries;
            invalidations += t.cache_invalidations;
            cache_entries += t.cache_entries;
            rejected += t.rejected_replies;
            trusted_bytes += host.troxy().gate().allocated_bytes();
            shard_views = std::max(shard_views,
                                   host.replica().view_changes());
        }
        view_changes += shard_views;
    }
    if (rejected > 0) {
        violate(std::to_string(rejected) + " replica replies rejected");
    }
    std::uint64_t cross = 0, lock_waits = 0;
    std::vector<sim::Duration> cross_latencies;
    for (int f = 0; f < cluster_->front_count(); ++f) {
        const auto status = cluster_->front(f).status();
        cross += status.cross_shard_commits;
        lock_waits += status.cross_lock_waits;
        const auto& l = cluster_->front(f).cross_latencies();
        cross_latencies.insert(cross_latencies.end(), l.begin(), l.end());
    }
    std::uint64_t failovers = 0;
    for (auto* session : sessions_) failovers += session->failovers();

    const auto d = [](std::uint64_t a, std::uint64_t b) {
        return static_cast<double>(minus(a, b));
    };
    const double followers_per_group = cluster_->config(0).n() - 1;
    auto& layer = out.sim_layer;
    const std::string per_req = count_note("completed requests", completed_);
    layer.push_back({"sim.events_per_req", "events/req",
                     d(after.events, before.events) / n, per_req});
    layer.push_back({"sim.heap_callbacks_per_req", "count/req",
                     d(after.heap_callbacks, before.heap_callbacks) / n,
                     per_req});
    const double pool_hits = d(after.pool_hits, before.pool_hits);
    const double pool_total =
        pool_hits + d(after.pool_misses, before.pool_misses);
    layer.push_back({"sim.pool_hit_ratio", "ratio",
                     ratio(pool_hits, pool_total),
                     "of " + std::to_string(static_cast<std::uint64_t>(
                                 pool_total)) +
                         " buffer acquires"});
    layer.push_back({"sim.cpu_us_per_req.leader", "us/req",
                     d(after.busy_leader, before.busy_leader) / 1e3 / n,
                     per_req});
    layer.push_back({"sim.cpu_us_per_req.follower", "us/req",
                     d(after.busy_follower, before.busy_follower) / 1e3 / n /
                         followers_per_group,
                     per_req + ", per follower"});
    layer.push_back({"sim.cpu_us_per_req.front", "us/req",
                     d(after.busy_front, before.busy_front) / 1e3 / n,
                     per_req});
    layer.push_back({"net.msgs_per_req", "msgs/req",
                     d(after.messages, before.messages) / n, per_req});
    layer.push_back({"net.bytes_per_req", "B/req",
                     d(after.bytes, before.bytes) / n, per_req});
    layer.push_back({"net.drops", "count", d(after.drops, before.drops), ""});
    layer.push_back({"enclave.transitions_per_req", "count/req",
                     d(after.transitions, before.transitions) / n, per_req});
    layer.push_back({"enclave.trusted_kb", "KiB",
                     static_cast<double>(trusted_bytes) / 1024.0,
                     "all enclaves"});
    layer.push_back({"hybster.reqs_per_batch", "reqs/batch",
                     ratio(static_cast<double>(ordered),
                           static_cast<double>(batches)),
                     count_note("batches cut", batches)});
    layer.push_back({"hybster.view_changes", "count",
                     static_cast<double>(view_changes), ""});
    layer.push_back({"hybster.rejoin_ms", "ms", rejoin_ms_, ""});
    layer.push_back({"hybster.state_bytes_sent", "B",
                     static_cast<double>(state_bytes), ""});
    layer.push_back({"troxy.fastread_hit_ratio", "ratio",
                     ratio(static_cast<double>(hits),
                           static_cast<double>(hits + misses + conflicts)),
                     count_note("reads at a contact Troxy",
                                hits + misses + conflicts)});
    layer.push_back({"troxy.fastread_conflict_ratio", "ratio",
                     ratio(static_cast<double>(conflicts),
                           static_cast<double>(hits + conflicts)),
                     count_note("fast reads started", hits + conflicts)});
    layer.push_back({"troxy.replies_per_vote_batch", "replies/batch",
                     ratio(static_cast<double>(batched_replies),
                           static_cast<double>(reply_batches)),
                     count_note("voter batches", reply_batches)});
    layer.push_back({"troxy.queries_per_cache_batch", "queries/batch",
                     ratio(static_cast<double>(batched_queries),
                           static_cast<double>(query_batches)),
                     count_note("cache-query batches", query_batches)});
    layer.push_back({"troxy.invalidations_per_write", "count/write",
                     ratio(static_cast<double>(invalidations),
                           static_cast<double>(writes)),
                     count_note("writes answered", writes)});
    layer.push_back({"troxy.cache_entries", "count",
                     static_cast<double>(cache_entries), "all replicas"});
    layer.push_back({"troxy.front.cross_lock_waits_per_cross", "ratio",
                     ratio(static_cast<double>(lock_waits),
                           static_cast<double>(cross)),
                     count_note("cross-shard commits", cross)});
    const std::string cross_note =
        "n=" + std::to_string(cross_latencies.size());
    layer.push_back({"troxy.front.cross_p99_ms", "ms",
                     percentile_ms(cross_latencies, 99), cross_note});
    layer.push_back({"troxy.client_failovers", "count",
                     static_cast<double>(failovers), ""});
    layer.push_back({"troxy.rejected_replies", "count",
                     static_cast<double>(rejected), ""});
    layer.push_back({"troxy.stale_reads", "count",
                     static_cast<double>(anomalies_.stale_reads),
                     count_note("GETs answered", reads)});
    layer.push_back({"bench.sessions_churned", "count",
                     static_cast<double>(churned_), ""});

    // FNV-1a over every simulated value: equal digests mean the seed
    // replayed bit for bit.
    std::uint64_t h = 0xcbf29ce484222325ULL;
    auto mix = [&h](std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    };
    mix(out.issued);
    mix(out.completed);
    mix(minus(after.events, before.events));
    for (const auto* list : {&out.sim_e2e, &out.sim_layer}) {
        for (const Metric& m : *list) {
            std::uint64_t bits = 0;
            static_assert(sizeof bits == sizeof m.value);
            std::memcpy(&bits, &m.value, sizeof bits);
            mix(bits);
        }
    }
    out.digest = h;
    out.run_events = minus(after.events, before.events);
}

CellResult Cell::run() {
    CellResult out;
    const CallTimer exec0 = g_tracer.execute;
    const CallTimer class0 = g_tracer.classify;
    const CallTimer gen0 = g_tracer.generate;
    const std::uint64_t setup_start = wall_ns();
    {
        Phase span("construct", options_.rep, nullptr);
        build();
    }
    {
        Phase span("handshake", options_.rep, &sim());
        handshake();
    }
    out.setup_s = static_cast<double>(wall_ns() - setup_start) / 1e9;
    const Snapshot before = snapshot();

    const std::uint64_t allocs_start = g_allocs.load();
    const std::uint64_t run_cpu_start = cpu_ns();
    drive();
    drain();
    out.run_cpu_s = static_cast<double>(cpu_ns() - run_cpu_start) / 1e9;
    out.run_allocs = g_allocs.load() - allocs_start;

    const Snapshot after = snapshot();
    if (!options_.probe) check_outputs();
    collect(out, before, after);
    out.violations = violations_;
    out.anomaly_samples = anomalies_.samples;
    out.execute_ns = static_cast<double>(g_tracer.execute.ns - exec0.ns);
    out.classify_ns = static_cast<double>(g_tracer.classify.ns - class0.ns);
    out.generate_ns = static_cast<double>(g_tracer.generate.ns - gen0.ns);
    return out;
}

}  // namespace

const std::vector<WorkloadSpec>& workloads() {
    using sim::milliseconds;
    // Why each workload exists is written down in README.md.
    static const std::vector<WorkloadSpec> specs = {
        {"ordered-writes", Kind::OrderedWrites, false, false, false, 1, 1,
         48, 4, 0.0, 0.0, 0, milliseconds(100), milliseconds(250)},
        {"kv-read-mostly", Kind::KvReadMostly, true, true, true, 1, 1, 24, 0,
         60000.0, 0.9, 65536, milliseconds(200), milliseconds(500)},
        {"sharded-cross", Kind::ShardedCross, false, false, true, 4, 2, 32,
         16, 0.0, 0.0, 0, milliseconds(100), milliseconds(200)},
        // Every replica keeps each checkpoint's chunks, so a write-only load
        // over 65,536 keys grows memory by ~100 MB per simulated second;
        // 4,096 keys keep checkpoints and state transfer small.
        {"leader-crash", Kind::LeaderCrash, true, true, true, 1, 1, 24, 0,
         10000.0, 0.0, 4096, milliseconds(200), milliseconds(8000)},
    };
    return specs;
}

CellResult run_cell(const WorkloadSpec& spec, std::uint64_t seed,
                    const CellOptions& options) {
    Cell cell(spec, seed, options);
    return cell.run();
}

}  // namespace perfbench

#include "bench_support/workload.hpp"

#include <algorithm>
#include <cmath>
#include <memory>

#include "common/assert.hpp"

namespace troxy::bench {

Workload::Workload(sim::Simulator& simulator, Recorder& recorder,
                   Generator generator, std::uint64_t seed)
    : sim_(simulator),
      recorder_(recorder),
      generator_(std::move(generator)),
      rng_(seed ^ 0x776f726bULL) {}

void Workload::issue_legacy(troxy_core::LegacyClient& client) {
    if (sim_.now() >= recorder_.window_end()) return;  // measurement over
    GeneratedRequest request = generator_(rng_);
    const sim::SimTime started = sim_.now();
    ++issued_;
    client.send(std::move(request.payload),
                [this, &client, started](const Bytes& /*reply*/) {
                    recorder_.record(sim_.now(), sim_.now() - started);
                    issue_legacy(client);
                });
}

void Workload::drive_legacy(troxy_core::LegacyClient& client, int pipeline) {
    client.start([this, &client, pipeline]() {
        for (int i = 0; i < pipeline; ++i) issue_legacy(client);
    });
}

void Workload::issue_bft(hybster::Client& client) {
    if (sim_.now() >= recorder_.window_end()) return;
    GeneratedRequest request = generator_(rng_);
    const sim::SimTime started = sim_.now();
    ++issued_;
    client.invoke(std::move(request.payload), request.is_read,
                  [this, &client, started](Bytes /*reply*/) {
                      recorder_.record(sim_.now(), sim_.now() - started);
                      issue_bft(client);
                  });
}

void Workload::drive_bft(hybster::Client& client, int pipeline) {
    client.start([this, &client, pipeline]() {
        for (int i = 0; i < pipeline; ++i) issue_bft(client);
    });
}

void Workload::schedule_open(troxy_core::LegacyClient& client, double rate) {
    if (sim_.now() >= recorder_.window_end()) return;
    const double gap_s = rng_.next_exponential(1.0 / rate);
    sim_.after(static_cast<sim::Duration>(gap_s * 1e9), [this, &client,
                                                         rate]() {
        if (sim_.now() >= recorder_.window_end()) return;
        GeneratedRequest request = generator_(rng_);
        const sim::SimTime started = sim_.now();
        ++issued_;
        client.send(std::move(request.payload),
                    [this, started](const Bytes& /*reply*/) {
                        recorder_.record(sim_.now(), sim_.now() - started);
                    });
        schedule_open(client, rate);
    });
}

void Workload::drive_legacy_open(troxy_core::LegacyClient& client,
                                 double rate_per_sec) {
    client.start([this, &client, rate_per_sec]() {
        schedule_open(client, rate_per_sec);
    });
}

void Workload::schedule_bft_open(hybster::Client& client, double rate) {
    if (sim_.now() >= recorder_.window_end()) return;
    const double gap_s = rng_.next_exponential(1.0 / rate);
    sim_.after(static_cast<sim::Duration>(gap_s * 1e9), [this, &client,
                                                         rate]() {
        if (sim_.now() >= recorder_.window_end()) return;
        GeneratedRequest request = generator_(rng_);
        const sim::SimTime started = sim_.now();
        ++issued_;
        client.invoke(std::move(request.payload), request.is_read,
                      [this, started](Bytes /*reply*/) {
                          recorder_.record(sim_.now(), sim_.now() - started);
                      });
        schedule_bft_open(client, rate);
    });
}

void Workload::drive_bft_open(hybster::Client& client, double rate_per_sec) {
    client.start([this, &client, rate_per_sec]() {
        schedule_bft_open(client, rate_per_sec);
    });
}

// --------------------------------------------------------- ZipfianSampler

ZipfianSampler::ZipfianSampler(std::uint64_t n, double s)
    : n_(n > 0 ? n : 1), theta_(s > 0.0 ? s : 0.0) {
    TROXY_ASSERT(theta_ < 1.0, "Zipf inversion requires s < 1");
    if (theta_ <= 0.0) return;  // uniform: no tables needed
    // Exact CDF inversion. The YCSB/Gray et al. closed-form inversion is
    // O(1) per sample but only approximates the pmf for ranks >= 2 (a
    // chi-squared test against the true distribution rejects it), so the
    // sampler tabulates the exact cumulative weights instead: O(n) setup,
    // O(log n) per draw, and probability() is honest.
    cdf_.resize(n_);
    double total = 0.0;
    for (std::uint64_t i = 0; i < n_; ++i) {
        total += 1.0 / std::pow(static_cast<double>(i + 1), theta_);
        cdf_[i] = total;
    }
    zetan_ = total;
}

std::uint64_t ZipfianSampler::sample(Rng& rng) const noexcept {
    // Exactly one uniform draw per sample, on every branch, so a skewed
    // workload consumes the RNG stream identically to a uniform one.
    const double u = rng.next_double();
    if (theta_ <= 0.0) {
        auto rank = static_cast<std::uint64_t>(u * static_cast<double>(n_));
        return rank < n_ ? rank : n_ - 1;
    }
    const double target = u * zetan_;
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), target);
    const auto rank =
        static_cast<std::uint64_t>(std::distance(cdf_.begin(), it));
    return rank < n_ ? rank : n_ - 1;
}

double ZipfianSampler::probability(std::uint64_t rank) const noexcept {
    if (rank >= n_) return 0.0;
    if (theta_ <= 0.0) return 1.0 / static_cast<double>(n_);
    return 1.0 / std::pow(static_cast<double>(rank + 1), theta_) / zetan_;
}

// ---------------------------------------------------------- OpenLoopSuite

OpenLoopSuite::OpenLoopSuite(sim::Simulator& simulator, Recorder& recorder,
                             OpenLoopOptions options, OpenLoopBuilder builder,
                             std::uint64_t seed)
    : sim_(simulator),
      recorder_(recorder),
      options_(options),
      builder_(std::move(builder)),
      zipf_(options.keys, options.zipf_s),
      rng_(seed ^ 0x6f70656eULL),
      churn_rng_(seed ^ 0x63687572ULL) {}

void OpenLoopSuite::add_connection(troxy_core::LegacyClient& client) {
    connections_.push_back(&client);
}

void OpenLoopSuite::start() {
    TROXY_ASSERT(!connections_.empty(), "open loop needs a connection");
    // Handshake every physical session; the arrival chain starts once all
    // are up, so warmup measures steady-state traffic, not connect storms.
    auto remaining = std::make_shared<std::size_t>(connections_.size());
    for (troxy_core::LegacyClient* client : connections_) {
        client->start([this, remaining]() {
            if (--*remaining > 0) return;
            schedule_arrival();
            if (options_.churn_per_sec > 0.0) schedule_churn();
        });
    }
}

void OpenLoopSuite::schedule_arrival() {
    if (sim_.now() >= recorder_.window_end()) return;
    const double gap_s =
        rng_.next_exponential(1.0 / options_.rate_per_sec);
    sim_.after(static_cast<sim::Duration>(gap_s * 1e9), [this]() {
        if (sim_.now() >= recorder_.window_end()) return;
        // Sample the arrival's identity: who sent it, what it touches.
        // The virtual-client space can be orders of magnitude larger than
        // the physical connection set — identity is data in the request,
        // not a timer.
        OpenLoopArrival arrival;
        arrival.vclient = rng_.next_below(options_.virtual_clients);
        arrival.key = zipf_.sample(rng_);
        arrival.is_read = options_.read_fraction > 0.0 &&
                          rng_.next_double() < options_.read_fraction;
        troxy_core::LegacyClient& conn = *connections_[static_cast<std::size_t>(
            arrival.vclient % connections_.size())];
        const sim::SimTime started = sim_.now();
        if (issued_ == 0) first_arrival_ = started;
        last_arrival_ = started;
        ++issued_;
        conn.send(builder_(rng_, arrival),
                  [this, started](const Bytes& /*reply*/) {
                      ++completed_;
                      recorder_.record(sim_.now(), sim_.now() - started);
                  });
        schedule_arrival();
    });
}

void OpenLoopSuite::schedule_churn() {
    if (sim_.now() >= recorder_.window_end()) return;
    const double gap_s =
        churn_rng_.next_exponential(1.0 / options_.churn_per_sec);
    sim_.after(static_cast<sim::Duration>(gap_s * 1e9), [this]() {
        if (sim_.now() >= recorder_.window_end()) return;
        // One session departs, a new one arrives in its place: full
        // handshake, new session keys, cold Troxy connection state.
        const std::size_t victim = static_cast<std::size_t>(
            churn_rng_.next_below(connections_.size()));
        connections_[victim]->reconnect();
        ++churned_;
        schedule_churn();
    });
}

}  // namespace troxy::bench

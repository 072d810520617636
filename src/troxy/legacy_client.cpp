#include "troxy/legacy_client.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "common/serialize.hpp"
#include "net/client_framing.hpp"
#include "net/envelope.hpp"
#include "net/outbox.hpp"

namespace troxy::troxy_core {

LegacyClient::LegacyClient(net::Fabric& fabric, sim::Node& node,
                           std::vector<sim::NodeId> servers,
                           std::vector<crypto::X25519Key> pinned_keys,
                           const sim::CostProfile& profile, Options options)
    : fabric_(fabric),
      node_(node),
      servers_(std::move(servers)),
      pinned_keys_(std::move(pinned_keys)),
      profile_(profile),
      options_(options),
      backoff_rng_(fabric.simulator().rng().fork(0x626b6f66ULL ^ node.id())) {
    TROXY_ASSERT(!servers_.empty(), "client needs at least one server");
    TROXY_ASSERT(servers_.size() == pinned_keys_.size(),
                 "one pinned key per server");
}

void LegacyClient::start(std::function<void()> ready) {
    ready_ = std::move(ready);
    connect();
}

void LegacyClient::connect() {
    enclave::CostMeter meter;
    enclave::CostedCrypto crypto(profile_, meter);
    net::Outbox outbox(fabric_, node_);

    Writer seed;
    seed.u32(node_.id());
    seed.u64(++handshake_counter_);
    channel_.emplace(pinned_keys_[server_index_], seed.data());
    crypto.charge_dh();
    // Any coalescing buffer belonged to the dead channel; the requests
    // live on in outstanding_ and are re-sent after the handshake.
    send_buffer_.clear();

    outbox.send(servers_[server_index_],
                net::wrap(net::Channel::Client,
                          net::frame_client(net::ClientFrame::Hello,
                                            channel_->client_hello())));
    outbox.flush(meter);
    last_activity_ = fabric_.simulator().now();
    arm_watchdog();
}

void LegacyClient::reconnect() {
    // connect() replaces the channel (fresh handshake state), clears the
    // coalescing buffer and re-arms the watchdog; outstanding_ survives
    // and is replayed once the new session's ServerHello lands.
    connect();
}

void LegacyClient::failover() {
    ++failovers_;
    ++consecutive_failovers_;
    server_index_ = (server_index_ + 1) % servers_.size();

    // The channel died with its server; in-flight requests will be
    // retransmitted on the fresh connection (the service deduplicates at
    // the application level or tolerates re-execution, as with any
    // ordinary web service retry).
    std::deque<Outstanding> retry = std::move(outstanding_);
    outstanding_.clear();
    connect();

    // Re-issue once the new channel is up; queue them now — send() is
    // buffered until establishment.
    for (auto& item : retry) {
        outstanding_.push_back(std::move(item));
    }
}

void LegacyClient::arm_watchdog() {
    const std::uint64_t generation = ++watchdog_generation_;

    // Capped exponential backoff with seeded jitter: the watchdog period
    // grows with every failover that did not yield a reply.
    double period = static_cast<double>(options_.connection_timeout);
    for (std::uint64_t i = 0; i < consecutive_failovers_; ++i) {
        period *= 2.0;
        if (period >= static_cast<double>(options_.backoff_cap)) break;
    }
    period = std::min(period, static_cast<double>(options_.backoff_cap));
    if (options_.backoff_jitter > 0.0) {
        period *= 1.0 + (backoff_rng_.next_double() * 2.0 - 1.0) *
                            options_.backoff_jitter;
    }
    const auto delay = std::max<sim::Duration>(
        static_cast<sim::Duration>(period), 1);
    current_backoff_ = delay;

    fabric_.simulator().after(delay, [this, generation, delay]() {
        if (generation != watchdog_generation_) return;
        const sim::SimTime idle_since = last_activity_;
        const bool waiting = !outstanding_.empty() || !connected();
        if (waiting &&
            fabric_.simulator().now() - idle_since >= delay) {
            failover();
            return;
        }
        arm_watchdog();
    });
}

void LegacyClient::shutdown() {
    // The object survives (simulator timers hold raw pointers to it);
    // the session does not. The generation bump turns every armed
    // watchdog into a no-op, and outstanding_ dies with the process —
    // whoever owned those requests re-issues them after restart.
    channel_.reset();
    outstanding_.clear();
    send_buffer_.clear();
    ready_ = nullptr;
    ++watchdog_generation_;
    consecutive_failovers_ = 0;
}

void LegacyClient::send_ref(std::shared_ptr<const Bytes> app_request,
                            ReplyCallback callback) {
    outstanding_.push_back(
        Outstanding{{}, std::move(app_request), std::move(callback)});
    transmit_newest();
}

void LegacyClient::send(Bytes app_request, ReplyCallback callback) {
    outstanding_.push_back(
        Outstanding{std::move(app_request), nullptr, std::move(callback)});
    transmit_newest();
}

void LegacyClient::transmit_newest() {
    if (!connected()) return;  // flushed after handshake completes
    const ByteView app_request = outstanding_.back().view();
    if (options_.coalesce_sends) {
        // Buffer a copy of the burst; one end-of-instant flush seals
        // everything issued in this simulation step into a single record.
        send_buffer_.emplace_back(app_request.begin(), app_request.end());
        if (!send_flush_armed_) {
            send_flush_armed_ = true;
            fabric_.simulator().after(0, [this]() { flush_sends(); });
        }
        return;
    }
    enclave::CostMeter meter;
    enclave::CostedCrypto crypto(profile_, meter);
    net::Outbox outbox(fabric_, node_);
    crypto.charge(profile_.aead(app_request.size()));
    // Envelope, frame header and sealed record build in ONE buffer of
    // exactly the frame's size (the record plaintext is sealed where it
    // was written).
    outbox.send(servers_[server_index_],
                net::client_record_frame(*channel_, app_request));
    outbox.flush(meter);
}

void LegacyClient::flush_sends() {
    send_flush_armed_ = false;
    if (send_buffer_.empty()) return;
    if (!connected()) {
        // Reconnect in progress: outstanding_ owns the retransmissions.
        send_buffer_.clear();
        return;
    }

    std::vector<Bytes> burst = std::move(send_buffer_);
    send_buffer_.clear();

    enclave::CostMeter meter;
    enclave::CostedCrypto crypto(profile_, meter);
    net::Outbox outbox(fabric_, node_);

    std::size_t total = 0;
    std::vector<ByteView> views;
    views.reserve(burst.size());
    for (const Bytes& request : burst) {
        total += request.size();
        views.emplace_back(request);
    }
    // One AEAD pass and one wire record for the whole burst, gathered
    // into one buffer with the envelope and frame headers.
    crypto.charge(profile_.aead(total));
    outbox.send(servers_[server_index_],
                net::client_record_frame(*channel_, views));
    outbox.flush(meter);
}

void LegacyClient::on_message(sim::NodeId from, ByteView payload) {
    if (from != servers_[server_index_]) return;  // stale server
    auto frame = net::unframe_client(payload);
    if (!frame) return;

    enclave::CostMeter meter;
    enclave::CostedCrypto crypto(profile_, meter);
    crypto.charge_dispatch();
    last_activity_ = fabric_.simulator().now();

    switch (frame->first) {
        case net::ClientFrame::ServerHello: {
            crypto.charge_dh();
            if (!channel_ || !channel_->finish(frame->second)) break;

            // Flush everything queued while disconnected.
            net::Outbox outbox(fabric_, node_);
            for (const Outstanding& item : outstanding_) {
                crypto.charge(profile_.aead(item.view().size()));
                outbox.send(servers_[server_index_],
                            net::client_record_frame(
                                *channel_, item.view()));
            }
            if (ready_) {
                outbox.defer(std::exchange(ready_, nullptr));
            }
            outbox.flush(meter);
            return;
        }
        case net::ClientFrame::Record: {
            if (!connected()) break;
            crypto.charge(profile_.aead(frame->second.size()));
            auto replies = channel_->unprotect(frame->second);
            if (replies.empty()) break;  // buffered, replayed or tampered
            consecutive_failovers_ = 0;  // the cluster answered: reset

            // The replies borrow the channel's open buffer; each is copied
            // once, into the buffer its callback takes.
            std::vector<std::pair<ReplyCallback, Bytes>> completions;
            for (const ByteView reply : replies) {
                if (outstanding_.empty()) break;
                completions.emplace_back(
                    std::move(outstanding_.front().callback),
                    Bytes(reply.begin(), reply.end()));
                outstanding_.pop_front();
            }
            node_.exec(meter.take(),
                       [completions = std::move(completions)]() mutable {
                           for (auto& [callback, reply] : completions) {
                               if (callback) callback(std::move(reply));
                           }
                       });
            return;
        }
        case net::ClientFrame::Hello:
            break;
    }
    node_.charge(meter.take());
}

}  // namespace troxy::troxy_core

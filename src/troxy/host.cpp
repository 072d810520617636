#include "troxy/host.hpp"

#include <algorithm>

#include "common/group_by.hpp"
#include "common/log.hpp"
#include "net/client_framing.hpp"
#include "net/envelope.hpp"
#include "net/outbox.hpp"

namespace troxy::troxy_core {

namespace {

/// How long the host holds an incomplete reply batch before flushing it
/// into the enclave (bounds added vote latency).
constexpr sim::Duration kVoterBatchDelay = sim::microseconds(100);

/// Reply slots kept across flushes; a longer burst frees the excess.
constexpr std::size_t kMaxReplySlots = 256;

/// Teardown-to-attested window of a proactive enclave recovery: client
/// frames arriving while the enclave is down are buffered and replayed
/// once the recovered instance passed attestation.
constexpr sim::Duration kEnclaveRecoveryDowntime = sim::milliseconds(2);

}  // namespace

TroxyReplicaHost::TroxyReplicaHost(
    net::Fabric& fabric, sim::Node& node, hybster::Config config,
    std::uint32_t replica_id, hybster::ServicePtr service,
    std::shared_ptr<enclave::TrinX> trinx,
    crypto::X25519Keypair channel_identity, Classifier classifier,
    const sim::CostProfile& replica_profile,
    const sim::CostProfile& troxy_profile, Options options,
    std::uint64_t seed)
    : fabric_(fabric),
      node_(node),
      config_(config),
      troxy_profile_(troxy_profile),
      options_(options),
      replica_id_(replica_id),
      trinx_(trinx),
      channel_identity_(channel_identity),
      classifier_(std::move(classifier)),
      seed_(seed) {
    troxy_ = std::make_unique<TroxyEnclave>(
        node.id(), replica_id, config, trinx, channel_identity, classifier_,
        troxy_profile, options.troxy, seed, fabric.network().pool());

    hybster::Replica::Hooks hooks;
    // Requests in a Troxy deployment carry a single trusted-subsystem
    // certificate from the issuing Troxy (identified by its host replica).
    hooks.verify_request = [this, trinx](enclave::CostedCrypto& crypto,
                                         const hybster::Request& request) {
        if (request.auth().size() != 1) return false;
        const int issuer = config_.replica_of(request.id.client);
        if (issuer < 0) return false;
        return trinx->verify_independent(crypto,
                                         static_cast<std::uint32_t>(issuer),
                                         request.signed_view(
                                             verify_scratch_),
                                         request.auth()[0]);
    };
    // Replies are authenticated by the local Troxy (which uses the moment
    // to keep its fast-read cache coherent), then sent to the contact
    // replica hosting the issuing Troxy. With batch_reply_auth a whole
    // executed batch enters the enclave through ONE authenticate_replies
    // transition; otherwise each reply takes its own.
    hooks.deliver_replies = [this](enclave::CostedCrypto& crypto,
                                   net::Outbox& outbox,
                                   std::span<hybster::ExecutedReply> batch) {
        const std::size_t step = options_.batch_reply_auth ? batch.size() : 1;
        for (std::size_t i = 0; i < batch.size(); i += step) {
            troxy_->authenticate_replies(crypto.meter(),
                                         batch.subspan(i, step));
        }
        for (const hybster::ExecutedReply& member : batch) {
            outbox.send(member.request->id.client,
                        hybster::encode_frame(net::Channel::Hybster,
                                              member.reply, outbox.pool()));
        }
    };

    replica_ = std::make_unique<hybster::Replica>(
        fabric, node, config, replica_id, std::move(service),
        std::move(trinx), replica_profile, std::move(hooks));
}

void TroxyReplicaHost::crash() {
    hybster::FaultProfile profile;
    profile.crashed = true;
    faults_ = profile;
    replica_->set_faults(profile);
    // Volatile host bookkeeping dies with the process; pending timer
    // callbacks find their ids gone and become no-ops.
    votes_in_flight_.clear();
    fast_reads_in_flight_.clear();
    // Buffered replies die with the untrusted process; the vote timers'
    // retransmit path (re-armed post-restart) covers the gap.
    reply_count_ = 0;
    ++voter_flush_generation_;
    voter_timer_armed_ = false;
    // Buffered cache queries die too; the enclave's fast-read timeout
    // would have fallen the reads back, but the enclave state is wiped on
    // restart anyway.
    fastread_buffer_.clear();
    ++fastread_flush_generation_;
    fastread_timer_armed_ = false;
    // An in-flight enclave recovery dies with the host; the periodic
    // schedule (if any) re-triggers one after restart.
    enclave_recovering_ = false;
    ++recovery_generation_;
    drop_recovery_buffer();
}

void TroxyReplicaHost::restart(hybster::ServicePtr fresh_service) {
    faults_ = hybster::FaultProfile{};
    ++restarts_;
    troxy_->restart();
    tcs_free_at_ = 0;
    // Clears the replica's fault profile, resets its volatile state and
    // kicks off the rejoin protocol.
    replica_->restart(std::move(fresh_service));
}

void TroxyReplicaHost::attach() {
    fabric_.attach(node_.id(), [this](sim::NodeId from, Bytes message) {
        on_message(from, std::move(message));
    });
    if (options_.enclave_recovery_period > 0 && options_.authority) {
        const sim::Duration offset =
            options_.enclave_recovery_period * replica_id_ /
            static_cast<std::uint64_t>(config_.n());
        arm_recovery_timer(options_.enclave_recovery_period + offset);
    }
}

void TroxyReplicaHost::arm_recovery_timer(sim::Duration delay) {
    fabric_.simulator().after(delay, [this]() {
        if (options_.enclave_recovery_period <= 0) return;
        // A crashed host skips the firing but keeps the schedule: the
        // recovery cycle resumes once the host restarts.
        if (!faults_.crashed) recover_enclave();
        arm_recovery_timer(options_.enclave_recovery_period);
    });
}

bool TroxyReplicaHost::recover_enclave() {
    if (!options_.authority || faults_.crashed || enclave_recovering_) {
        return false;
    }
    enclave_recovering_ = true;
    const std::uint64_t generation = ++recovery_generation_;

    // Teardown: the trusted subsystem exports a certified record of its
    // counters first (the handover only an attested instance can accept),
    // then the old enclave instance is gone for the downtime window.
    enclave::CostMeter meter;
    enclave::CostedCrypto crypto(troxy_profile_, meter);
    Bytes handover = trinx_->export_handover(crypto);

    fabric_.simulator().after(
        kEnclaveRecoveryDowntime,
        [this, generation, handover = std::move(handover)]() mutable {
            if (generation != recovery_generation_) return;
            if (faults_.crashed) return;  // crash() aborted the recovery
            finish_enclave_recovery(std::move(handover));
        });
    return true;
}

void TroxyReplicaHost::finish_enclave_recovery(Bytes handover) {
    // Attestation re-handshake: a fresh nonce, a fresh report, and the
    // authority's verdict gate the replacement instance — exactly the
    // initial provisioning flow, re-run.
    const std::uint64_t nonce = seed_ * 1000003 + ++recovery_nonce_;
    const enclave::AttestationReport report =
        options_.authority->issue(options_.measurement, nonce);
    if (!options_.authority->verify(report, options_.measurement, nonce)) {
        // The authority refused the re-handshake: stay down rather than
        // run unattested (cannot happen with a well-configured authority).
        enclave_recovering_ = false;
        drop_recovery_buffer();
        return;
    }

    // Retire the outgoing instance's counters into the host accumulator
    // so observability spans the swap.
    retired_troxy_stats_.add_counters(troxy_->status());

    // Fresh instance: empty cache, empty voter, no sessions — every
    // secure-channel session key rotates because clients must re-
    // handshake, against the SAME pinned channel identity. The varied
    // seed re-keys the instance's internal randomness.
    troxy_ = std::make_unique<TroxyEnclave>(
        node_.id(), replica_id_, config_, trinx_, channel_identity_,
        classifier_, troxy_profile_, options_.troxy,
        seed_ + 7919 * (enclave_recoveries_ + 1), fabric_.network().pool());
    tcs_free_at_ = 0;

    // Trusted-counter re-binding: the certified handover verifies under
    // the provisioned group key and never lowers a counter, so the
    // recovered subsystem cannot re-certify any (counter, value) slot —
    // e.g. an old view's ordering counter — the old instance used.
    enclave::CostMeter meter;
    enclave::CostedCrypto crypto(troxy_profile_, meter);
    const bool rebound = trinx_->import_handover(crypto, handover);
    TROXY_ASSERT(rebound, "counter handover must verify under the group key");

    ++enclave_recoveries_;
    enclave_recovering_ = false;

    // Replay what the host buffered while the enclave was down: hellos
    // re-handshake against the new instance; records under a dead session
    // are rejected by the channel and covered by the client's ordinary
    // reconnect logic — either way the legacy client never notices more
    // than added latency.
    std::vector<std::pair<sim::NodeId, Bytes>> buffered =
        std::move(recovery_buffer_);
    recovery_buffer_.clear();
    for (auto& [from, frame] : buffered) {
        on_message(from, std::move(frame));
    }
}

void TroxyReplicaHost::drop_recovery_buffer() {
    for (auto& [from, frame] : recovery_buffer_) {
        fabric_.network().recycle(std::move(frame));
    }
    recovery_buffer_.clear();
}

void TroxyReplicaHost::on_message(sim::NodeId from, Bytes message) {
    if (faults_.crashed) {
        fabric_.network().recycle(std::move(message));
        return;
    }

    // During a recovery downtime window the enclave is gone: traffic that
    // would enter it through client-facing ecalls is buffered and
    // replayed once the recovered instance is attested. Agreement traffic
    // keeps flowing — the replica is untrusted host-side code and runs
    // through an enclave recovery (its trusted counters are exactly what
    // the handover preserves).
    if (enclave_recovering_) {
        // Peek at the channel byte without detaching the payload.
        auto peeked = net::unwrap_view(message);
        if (peeked && (peeked->first == net::Channel::Client ||
                       peeked->first == net::Channel::TroxyCache)) {
            ++recovery_buffered_frames_;
            if (recovery_buffer_.size() < 4096) {
                recovery_buffer_.emplace_back(from, std::move(message));
            } else {
                fabric_.network().recycle(std::move(message));
            }
            return;
        }
    }

    dispatch_message(from, message);
    // Every dispatch path decodes out of the frame synchronously, so the
    // wire buffer can rejoin the pool for the next sender.
    fabric_.network().recycle(std::move(message));
}

void TroxyReplicaHost::dispatch_message(sim::NodeId from, ByteView message) {
    auto unwrapped = net::unwrap_view(message);
    if (!unwrapped) return;
    auto& [channel, payload] = *unwrapped;

    switch (channel) {
        case net::Channel::Hybster: {
            // Replies addressed to this node feed the local Troxy's voter,
            // decoded straight into a reply slot; everything else is
            // agreement traffic, which the replica decodes itself (a
            // malformed frame still costs it the dispatch).
            if (hybster::is_reply(payload)) {
                if (!buffer_reply(payload)) return;  // malformed, misrouted
                // A boundary of 1 flushes every reply at once.
                if (reply_count_ >= options_.voter_batch_max) {
                    flush_reply_buffer();
                } else {
                    arm_voter_flush_timer();
                }
                return;
            }
            replica_->on_message(from, payload);
            return;
        }
        case net::Channel::Bundle: {
            // A coalesced flush burst from a peer: unpack and dispatch
            // each inner message. The split leaves its member while the
            // burst runs, since an inner message may be a Bundle too.
            std::vector<ByteView> inner = std::move(bundle_views_);
            if (net::unbundle(payload, inner)) dispatch_burst(from, inner);
            bundle_views_ = std::move(inner);
            return;
        }
        case net::Channel::Client: {
            auto frame = net::unframe_client(payload);
            if (!frame) return;
            enclave::CostMeter meter;
            switch (frame->first) {
                case net::ClientFrame::Hello:
                    apply(meter, troxy_->accept_connection(meter, from,
                                                           frame->second));
                    return;
                case net::ClientFrame::Record:
                    apply(meter, troxy_->handle_request(meter, from,
                                                        frame->second));
                    return;
                case net::ClientFrame::ServerHello:
                    return;  // servers never receive server hellos
            }
            return;
        }
        case net::Channel::TroxyCache: {
            auto decoded = decode_cache_message(payload);
            if (!decoded) return;
            enclave::CostMeter meter;
            // Each message enters ONE transition: a plain query or
            // response as a span of one, a burst whole.
            if (auto* query = std::get_if<CacheQuery>(&*decoded)) {
                apply(meter, troxy_->handle_cache_queries(
                                 meter, std::span(query, 1)));
            } else if (auto* response =
                           std::get_if<CacheResponse>(&*decoded)) {
                apply(meter, troxy_->handle_cache_responses(
                                 meter, std::span(response, 1)));
            } else if (auto* queries =
                           std::get_if<CacheQueryBatch>(&*decoded)) {
                apply(meter, troxy_->handle_cache_queries(meter,
                                                          queries->queries));
            } else {
                apply(meter,
                      troxy_->handle_cache_responses(
                          meter,
                          std::get<CacheResponseBatch>(*decoded).responses));
            }
            return;
        }
        default:
            return;  // not for this host
    }
}

void TroxyReplicaHost::dispatch_burst(sim::NodeId from,
                                      std::span<const ByteView> messages) {
    bool buffered = false;
    for (const ByteView message : messages) {
        auto unwrapped_inner = net::unwrap_view(message);
        if (!unwrapped_inner) continue;
        if (unwrapped_inner->first == net::Channel::Hybster) {
            const ByteView payload = unwrapped_inner->second;
            if (hybster::is_reply(payload)) {
                buffered = buffer_reply(payload) || buffered;
                continue;
            }
            replica_->on_message(from, payload);
            continue;
        }
        // on_message() consumes a frame of its own: a pooled copy, which
        // it recycles like any arrival.
        Bytes copy = fabric_.network().pool().acquire_empty(message.size());
        copy.assign(message.begin(), message.end());
        on_message(from, std::move(copy));
    }
    // The arrival burst is complete — flush it now instead of waiting for
    // the delay timer (no added latency for bundled bursts).
    if (buffered) flush_reply_buffer();
}

bool TroxyReplicaHost::buffer_reply(ByteView encoded) {
    if (reply_count_ == reply_buffer_.size()) reply_buffer_.emplace_back();
    hybster::Reply& slot = reply_buffer_[reply_count_];
    if (!hybster::decode_reply_into(encoded, slot) ||
        slot.request_id.client != node_.id()) {
        return false;
    }
    ++reply_count_;
    return true;
}

void TroxyReplicaHost::flush_reply_buffer() {
    if (reply_count_ == 0) return;
    ++voter_flush_generation_;  // cancel any armed delay timer
    voter_timer_armed_ = false;
    // The voter reads the used slots in place, one transition per
    // voter_batch_max of them: the boundaries fall where a reply-by-reply
    // buffer would have flushed. Nothing in apply() receives a reply, so
    // the slots stay untouched until the last chunk has voted.
    const std::size_t count = std::exchange(reply_count_, 0);
    const std::size_t step =
        std::max<std::size_t>(options_.voter_batch_max, 1);
    const std::span<hybster::Reply> used(reply_buffer_.data(), count);
    for (std::size_t i = 0; i < count; i += step) {
        enclave::CostMeter meter;
        apply(meter, troxy_->handle_replies(
                         meter, used.subspan(i, std::min(step, count - i))));
    }
    if (reply_buffer_.size() > kMaxReplySlots) {
        reply_buffer_.resize(kMaxReplySlots);
    }
}

void TroxyReplicaHost::arm_voter_flush_timer() {
    if (voter_timer_armed_) return;
    voter_timer_armed_ = true;
    const std::uint64_t generation = voter_flush_generation_;
    fabric_.simulator().after(kVoterBatchDelay,
                              [this, generation]() {
                                  if (faults_.crashed) return;
                                  if (generation != voter_flush_generation_) {
                                      return;
                                  }
                                  voter_timer_armed_ = false;
                                  flush_reply_buffer();
                              });
}

void TroxyReplicaHost::apply(enclave::CostMeter& meter,
                             TroxyActions&& actions) {
    // Enclave concurrency: the ecall's work occupies the enclave's one
    // thread for its duration; while an earlier ecall still holds it, the
    // call's effects wait. The wait delays completion but burns no CPU.
    sim::SimTime tcs_done = 0;
    if (meter.total() > 0) {
        const sim::SimTime start =
            std::max(fabric_.simulator().now(), tcs_free_at_);
        tcs_done = start + meter.total();
        tcs_free_at_ = tcs_done;
    }

    for (const std::uint64_t number : actions.completed_votes) {
        votes_in_flight_.erase(number);
    }
    for (const std::uint64_t id : actions.completed_fast_reads) {
        fast_reads_in_flight_.erase(id);
    }

    net::Outbox outbox(fabric_, node_, options_.coalesce_wire,
                       &config_.transport);
    for (auto& [to, bytes] : actions.sends) {
        outbox.send(to, std::move(bytes));
    }
    if (!actions.cache_queries.empty()) {
        route_cache_queries(outbox, std::move(actions.cache_queries));
    }
    if (!actions.to_order.empty()) {
        // The replica's processing happens after the Troxy's metered work.
        // One ecall can surface several client requests (e.g. pipelined
        // records in one segment); hand them over in a single submission
        // (one metered step, one outbox flush) so a batching leader can
        // cut them into one Prepare without per-request waits. A
        // conflicted fast-read burst arrives pre-formed and is cut into a
        // single Prepare on the leader.
        // The batch's storage comes back through spare_orders_ once the
        // submit has run, and the action set leaves with a spare one.
        outbox.defer([this, batch = std::move(actions.to_order),
                      preformed = actions.to_order_preformed]() mutable {
            replica_->submit(std::span(batch), preformed);
            batch.clear();
            if (spare_orders_.size() < kMaxSpareOrders &&
                batch.capacity() <= kMaxSpareOrderCapacity) {
                spare_orders_.push_back(std::move(batch));
            }
        });
        actions.to_order.clear();
        if (!spare_orders_.empty()) {
            actions.to_order = std::move(spare_orders_.back());
            spare_orders_.pop_back();
        }
    }
    outbox.flush(meter, tcs_done);

    for (const std::uint64_t number : actions.arm_vote_timers) {
        votes_in_flight_.try_emplace(number);
        arm_vote_timer(number);
    }
    for (const std::uint64_t id : actions.arm_fast_read_timers) {
        fast_reads_in_flight_.try_emplace(id);
        arm_fast_read_timer(id);
    }
    troxy_->recycle(std::move(actions));
}

void TroxyReplicaHost::route_cache_queries(
    net::Outbox& outbox,
    std::vector<std::pair<sim::NodeId, CacheQuery>>&& queries) {
    for (auto& [to, query] : queries) {
        fastread_buffer_.push_back(
            {to, fastread_buffer_.size(), std::move(query)});
        // At a maximum of 1 the host holds nothing back: each query of
        // the ecall leaves on its own.
        if (options_.fastread_batch_max <= 1) flush_fastread_buffer(outbox);
    }
    if (fastread_buffer_.empty()) return;
    // Above 1, the ecall's whole burst is buffered before the boundary
    // check, so a burst that crosses the boundary leaves in one flush.
    if (fastread_buffer_.size() >= options_.fastread_batch_max) {
        flush_fastread_buffer(outbox);
    } else {
        arm_fastread_flush_timer();
    }
}

void TroxyReplicaHost::flush_fastread_buffer(net::Outbox& outbox) {
    if (fastread_buffer_.empty()) return;
    ++fastread_flush_generation_;  // cancel any armed delay timer
    fastread_timer_armed_ = false;
    // One message per remote, in ascending node id. A lone query keeps
    // the single-message wire form; a burst ships as one CacheQueryBatch
    // and will be answered in one remote transition.
    for_each_destination(fastread_buffer_, [&](auto first, auto last) {
        if (last - first == 1) {
            outbox.send(first->to,
                        encode_cache_frame(
                            CacheMessage(std::move(first->query)),
                            outbox.pool()));
            return;
        }
        CacheQueryBatch batch;
        batch.queries.reserve(static_cast<std::size_t>(last - first));
        for (auto it = first; it != last; ++it) {
            batch.queries.push_back(std::move(it->query));
        }
        outbox.send(first->to, encode_cache_frame(
                                   CacheMessage(std::move(batch)),
                                   outbox.pool()));
    });
    fastread_buffer_.clear();
}

void TroxyReplicaHost::arm_fastread_flush_timer() {
    if (fastread_timer_armed_) return;
    fastread_timer_armed_ = true;
    const std::uint64_t generation = fastread_flush_generation_;
    fabric_.simulator().after(
        options_.fastread_batch_delay, [this, generation]() {
            if (faults_.crashed) return;
            if (generation != fastread_flush_generation_) return;
            fastread_timer_armed_ = false;
            enclave::CostMeter meter;
            net::Outbox outbox(fabric_, node_, options_.coalesce_wire,
                               &config_.transport);
            flush_fastread_buffer(outbox);
            outbox.flush(meter);
        });
}

TroxyReplicaHost::Status TroxyReplicaHost::status() const {
    Status s;
    s.troxy = troxy_->status();
    // Add the counters retired by enclave recoveries; gauges stay live.
    s.troxy.add_counters(retired_troxy_stats_);
    s.exec = replica_->exec_stats();
    s.state = replica_->state_stats();
    s.enclave_recoveries = enclave_recoveries_;
    s.recovery_buffered_frames = recovery_buffered_frames_;
    s.pool = fabric_.network().pool().stats();
    s.wire = fabric_.network().wire_stats();
    return s;
}

void TroxyReplicaHost::arm_vote_timer(std::uint64_t number) {
    fabric_.simulator().after(options_.vote_timeout, [this, number]() {
        if (faults_.crashed) return;
        if (!votes_in_flight_.contains(number)) return;
        enclave::CostMeter meter;
        apply(meter, troxy_->retransmit(meter, number));
    });
}

void TroxyReplicaHost::arm_fast_read_timer(std::uint64_t query_id) {
    fabric_.simulator().after(options_.fast_read_timeout, [this, query_id]() {
        if (faults_.crashed) return;
        if (!fast_reads_in_flight_.contains(query_id)) return;
        fast_reads_in_flight_.erase(query_id);
        enclave::CostMeter meter;
        apply(meter, troxy_->fast_read_timeout(meter, query_id));
    });
}

}  // namespace troxy::troxy_core

#include "troxy/host.hpp"

#include <algorithm>

#include "common/log.hpp"
#include "net/client_framing.hpp"
#include "net/envelope.hpp"
#include "net/fragment.hpp"
#include "net/outbox.hpp"

namespace troxy::troxy_core {

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
        troxy_profile, options.troxy, seed);

    hybster::Replica::Hooks hooks;
    // Requests in a Troxy deployment carry a single trusted-subsystem
    // certificate from the issuing Troxy (identified by its host replica).
    hooks.verify_request = [this, trinx](enclave::CostedCrypto& crypto,
                                         const hybster::Request& request) {
        if (request.auth.size() != 1) return false;
        const int issuer = config_.replica_of(request.id.client);
        if (issuer < 0) return false;
        return trinx->verify_independent(crypto,
                                         static_cast<std::uint32_t>(issuer),
                                         request.signed_view(
                                             verify_scratch_),
                                         request.auth[0]);
    };
    // Replies are authenticated by the local Troxy (which uses the moment
    // to keep its fast-read cache coherent), then sent to the contact
    // replica hosting the issuing Troxy.
    hooks.deliver_reply = [this](enclave::CostedCrypto& crypto,
                                 net::Outbox& outbox,
                                 const hybster::Request& request,
                                 hybster::Reply reply) {
        reply.cert =
            troxy_->authenticate_reply(crypto.meter(), request, reply);
        outbox.send(request.id.client,
                    hybster::encode_frame(net::Channel::Hybster, reply));
    };
    if (options.batch_reply_auth) {
        // A whole executed batch's replies enter the enclave through ONE
        // authenticate_replies transition; retransmissions and optimistic
        // reads keep the per-reply hook above.
        hooks.deliver_replies =
            [this](enclave::CostedCrypto& crypto, net::Outbox& outbox,
                   std::vector<hybster::Replica::Hooks::ExecutedReply>&&
                       batch) {
                std::vector<TroxyEnclave::ReplyAuth> items;
                items.reserve(batch.size());
                for (const auto& member : batch) {
                    items.push_back(TroxyEnclave::ReplyAuth{member.request,
                                                            &member.reply});
                }
                const std::vector<enclave::Certificate> certs =
                    troxy_->authenticate_replies(crypto.meter(), items);
                for (std::size_t i = 0; i < batch.size(); ++i) {
                    batch[i].reply.cert = certs[i];
                    outbox.send(batch[i].request->id.client,
                                hybster::encode_frame(net::Channel::Hybster,
                                                      batch[i].reply));
                }
            };
    }

    replica_ = std::make_unique<hybster::Replica>(
        fabric, node, config, replica_id, std::move(service),
        std::move(trinx), replica_profile, std::move(hooks));

    // All ecalls mutate shared trusted state (voter tables, cache,
    // session keys), so the Troxy serializes them on a bounded number of
    // enclave threads — for etroxy that is the TCS budget, for ctroxy the
    // same library lock without SGX. Transition costs differ (SGX vs JNI).
    if (options_.troxy.tcs_count > 0) {
        tcs_free_.assign(
            static_cast<std::size_t>(options_.troxy.tcs_count), 0);
    }
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
    reply_buffer_.clear();
    ++voter_flush_generation_;
    voter_timer_armed_ = false;
    // Buffered cache queries die too; the enclave's fast-read timeout
    // would have fallen the reads back, but the enclave state is wiped on
    // restart anyway.
    fastread_buffer_.clear();
    fastread_buffered_ = 0;
    ++fastread_flush_generation_;
    fastread_timer_armed_ = false;
    // An in-flight enclave recovery dies with the host; the periodic
    // schedule (if any) re-triggers one after restart.
    enclave_recovering_ = false;
    ++recovery_generation_;
    recovery_buffer_.clear();
}

void TroxyReplicaHost::restart(hybster::ServicePtr fresh_service) {
    faults_ = hybster::FaultProfile{};
    ++restarts_;
    troxy_->restart();
    if (!tcs_free_.empty()) {
        std::fill(tcs_free_.begin(), tcs_free_.end(), 0);
    }
    // Clears the replica's fault profile, resets its volatile state and
    // kicks off the rejoin protocol.
    replica_->restart(std::move(fresh_service));
}

void TroxyReplicaHost::attach() {
    fabric_.attach(node_.id(), [this](sim::NodeId from, Bytes message) {
        on_message(from, std::move(message));
    });
    fabric_.attach_chain(
        node_.id(), [this](sim::NodeId from, sim::FragmentChain chain) {
            on_chain(from, std::move(chain));
        });
    if (options_.enclave_recovery_period > 0 && options_.authority) {
        arm_recovery_timer(options_.enclave_recovery_period +
                           options_.enclave_recovery_offset);
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
        options_.enclave_recovery_downtime,
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
        recovery_buffer_.clear();
        return;
    }

    // Retire the outgoing instance's counters into the host accumulator
    // so observability spans the swap.
    {
        const TroxyEnclave::Status old = troxy_->status();
        auto& acc = retired_troxy_stats_;
        acc.fast_read_hits += old.fast_read_hits;
        acc.fast_read_misses += old.fast_read_misses;
        acc.fast_read_conflicts += old.fast_read_conflicts;
        acc.ordered_requests += old.ordered_requests;
        acc.completed_votes += old.completed_votes;
        acc.rejected_replies += old.rejected_replies;
        acc.reply_batches += old.reply_batches;
        acc.batched_replies += old.batched_replies;
        acc.reply_auth_batches += old.reply_auth_batches;
        acc.batch_authenticated_replies += old.batch_authenticated_replies;
        acc.cache_query_batches += old.cache_query_batches;
        acc.batched_cache_queries += old.batched_cache_queries;
        acc.cache_response_batches += old.cache_response_batches;
        acc.batched_cache_responses += old.batched_cache_responses;
        acc.cache_invalidations += old.cache_invalidations;
        acc.invalidations_saved += old.invalidations_saved;
        acc.invalidations_saved_cross_batch +=
            old.invalidations_saved_cross_batch;
        acc.fallback_prebatches += old.fallback_prebatches;
        acc.prebatched_fallbacks += old.prebatched_fallbacks;
        acc.mode_switches += old.mode_switches;
        acc.enclave_transitions += old.enclave_transitions;
    }

    // Fresh instance: empty cache, empty voter, no sessions — every
    // secure-channel session key rotates because clients must re-
    // handshake, against the SAME pinned channel identity. The varied
    // seed re-keys the instance's internal randomness.
    troxy_ = std::make_unique<TroxyEnclave>(
        node_.id(), replica_id_, config_, trinx_, channel_identity_,
        classifier_, troxy_profile_, options_.troxy,
        seed_ + 7919 * (enclave_recoveries_ + 1));
    if (!tcs_free_.empty()) {
        std::fill(tcs_free_.begin(), tcs_free_.end(), 0);
    }

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

void TroxyReplicaHost::on_message(sim::NodeId from, Bytes message) {
    if (faults_.crashed) return;

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

void TroxyReplicaHost::on_chain(sim::NodeId from, sim::FragmentChain chain) {
    sim::Network& network = fabric_.network();
    if (faults_.crashed) {
        network.recycle_chain(std::move(chain));
        return;
    }
    // Recovery-window traffic goes through the ordinary buffering logic,
    // which needs an owning flat frame anyway.
    if (!enclave_recovering_) {
        auto messages = net::take_bundle_messages(std::move(chain));
        if (messages) {
            network.recycle_chain(std::move(chain));
            dispatch_burst(from, std::move(*messages));
            return;
        }
    }
    network.count_materialization();
    Bytes flat = chain.materialize(&network.pool());
    network.recycle_chain(std::move(chain));
    on_message(from, std::move(flat));
}

void TroxyReplicaHost::dispatch_message(sim::NodeId from, ByteView message) {
    auto unwrapped = net::unwrap_view(message);
    if (!unwrapped) return;
    auto& [channel, payload] = *unwrapped;

    switch (channel) {
        case net::Channel::Hybster: {
            // Replies addressed to this node feed the local Troxy's voter;
            // everything else is agreement traffic for the replica.
            auto decoded = hybster::decode_message(payload);
            if (!decoded) return;
            if (auto* reply = std::get_if<hybster::Reply>(&*decoded)) {
                if (reply->request_id.client == node_.id()) {
                    enqueue_reply(std::move(*reply));
                    return;
                }
                return;  // misrouted reply
            }
            replica_->on_message(from, payload);
            return;
        }
        case net::Channel::Bundle: {
            // A coalesced flush burst from a peer: unpack and dispatch
            // each inner message.
            auto inner = net::unbundle(payload);
            if (!inner) return;
            dispatch_burst(from, std::move(*inner));
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
            if (auto* query = std::get_if<CacheQuery>(&*decoded)) {
                apply(meter, troxy_->handle_cache_query(meter, *query));
            } else if (auto* response =
                           std::get_if<CacheResponse>(&*decoded)) {
                apply(meter,
                      troxy_->handle_cache_response(meter, *response));
            } else if (auto* queries =
                           std::get_if<CacheQueryBatch>(&*decoded)) {
                // A whole query burst from a contact Troxy: answered in
                // ONE handle_cache_queries transition.
                apply(meter, troxy_->handle_cache_queries(meter,
                                                          queries->queries));
            } else {
                // A whole response burst from a remote: applied in ONE
                // handle_cache_responses transition.
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
                                      std::vector<Bytes> messages) {
    std::vector<hybster::Reply> replies;
    for (Bytes& message : messages) {
        auto unwrapped_inner = net::unwrap_view(message);
        if (!unwrapped_inner) continue;
        if (unwrapped_inner->first == net::Channel::Hybster) {
            auto decoded = hybster::decode_message(unwrapped_inner->second);
            if (!decoded) continue;
            if (auto* reply = std::get_if<hybster::Reply>(&*decoded)) {
                if (reply->request_id.client == node_.id()) {
                    replies.push_back(std::move(*reply));
                }
                continue;
            }
            replica_->on_message(from, unwrapped_inner->second);
            continue;
        }
        on_message(from, std::move(message));
    }
    ingest_replies(std::move(replies));
}

void TroxyReplicaHost::enqueue_reply(hybster::Reply&& reply) {
    if (options_.voter_batch_max <= 1) {
        // Unbatched voter: one ecall transition per reply, exactly the
        // pre-batching flow.
        enclave::CostMeter meter;
        apply(meter, troxy_->handle_reply(meter, std::move(reply)));
        return;
    }
    reply_buffer_.push_back(std::move(reply));
    // The adaptive boundary follows the *served* load (replies per delay
    // window, fed back at flush time): an idle voter flushes every reply
    // immediately, a busy one opens up to the configured maximum.
    std::size_t boundary = options_.voter_batch_max;
    if (options_.adaptive_voting) {
        boundary = voter_controller_.effective(options_.voter_batch_max);
    }
    if (reply_buffer_.size() >= boundary) {
        flush_reply_buffer();
    } else {
        arm_voter_flush_timer();
    }
}

void TroxyReplicaHost::ingest_replies(std::vector<hybster::Reply> replies) {
    if (replies.empty()) return;
    if (options_.voter_batch_max <= 1) {
        for (hybster::Reply& reply : replies) {
            enqueue_reply(std::move(reply));
        }
        return;
    }
    for (hybster::Reply& reply : replies) {
        reply_buffer_.push_back(std::move(reply));
        if (reply_buffer_.size() >= options_.voter_batch_max) {
            flush_reply_buffer();
        }
    }
    // The arrival burst is complete — flush the remainder now instead of
    // waiting for the delay timer (no added latency for bundled bursts).
    flush_reply_buffer();
}

void TroxyReplicaHost::flush_reply_buffer() {
    if (reply_buffer_.empty()) return;
    ++voter_flush_generation_;  // cancel any armed delay timer
    voter_timer_armed_ = false;
    std::vector<hybster::Reply> batch = std::move(reply_buffer_);
    reply_buffer_.clear();
    voter_controller_.record_served(batch.size(), fabric_.simulator().now(),
                                    options_.voter_batch_delay);
    enclave::CostMeter meter;
    apply(meter, troxy_->handle_replies(meter, std::move(batch)));
}

void TroxyReplicaHost::arm_voter_flush_timer() {
    if (voter_timer_armed_) return;
    voter_timer_armed_ = true;
    const std::uint64_t generation = voter_flush_generation_;
    fabric_.simulator().after(options_.voter_batch_delay,
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
    // Enclave concurrency: the ecall's work occupies one TCS slot for its
    // duration; when every slot is busy the call's effects wait for a
    // free slot. The wait delays completion but burns no CPU.
    sim::SimTime tcs_done = 0;
    if (!tcs_free_.empty() && meter.total() > 0) {
        const sim::SimTime now = fabric_.simulator().now();
        auto slot = std::min_element(tcs_free_.begin(), tcs_free_.end());
        const sim::SimTime start = std::max(now, *slot);
        tcs_done = start + meter.total();
        *slot = tcs_done;
    }

    for (const std::uint64_t number : actions.completed_votes) {
        votes_in_flight_.erase(number);
    }
    for (const std::uint64_t id : actions.completed_fast_reads) {
        fast_reads_in_flight_.erase(id);
    }

    net::Outbox outbox(fabric_, node_, options_.coalesce_wire,
                       /*record_cost=*/0, options_.wire_zero_copy,
                       &options_.transport);
    for (auto& [to, bytes] : actions.sends) {
        outbox.send(to, std::move(bytes));
    }
    if (!actions.cache_queries.empty()) {
        route_cache_queries(outbox, std::move(actions.cache_queries));
    }
    if (!actions.to_order.empty()) {
        // The replica's processing happens after the Troxy's metered work.
        // One ecall can surface several client requests (e.g. pipelined
        // records in one segment); hand them over in a single batched
        // submission (one metered step, one outbox flush) so a batching
        // leader can cut them into one Prepare without per-request waits.
        outbox.defer([this, batch = std::move(actions.to_order)]() mutable {
            replica_->submit_all(std::move(batch));
        });
    }
    if (!actions.to_order_batch.empty()) {
        // A conflicted fast-read burst enters the ordering pipeline as
        // ONE pre-formed batch (cut into a single Prepare on the leader).
        outbox.defer(
            [this, batch = std::move(actions.to_order_batch)]() mutable {
                replica_->submit_prebatched(std::move(batch));
            });
    }
    outbox.flush(meter, tcs_done);

    for (const std::uint64_t number : actions.arm_vote_timers) {
        votes_in_flight_.insert(number);
        arm_vote_timer(number);
    }
    for (const std::uint64_t id : actions.arm_fast_read_timers) {
        fast_reads_in_flight_.insert(id);
        arm_fast_read_timer(id);
    }
}

void TroxyReplicaHost::route_cache_queries(
    net::Outbox& outbox,
    std::vector<std::pair<sim::NodeId, CacheQuery>>&& queries) {
    if (options_.fastread_batch_max <= 1) {
        // Unbatched fast reads: each query goes out as its own wire
        // message immediately, exactly the pre-batching flow.
        for (auto& [to, query] : queries) {
            outbox.send(to, encode_cache_frame(
                                CacheMessage(std::move(query))));
        }
        return;
    }
    for (auto& [to, query] : queries) {
        fastread_buffer_[to].push_back(std::move(query));
        ++fastread_buffered_;
    }
    std::size_t boundary = options_.fastread_batch_max;
    if (options_.adaptive_fastread) {
        boundary = fastread_controller_.effective(options_.fastread_batch_max);
    }
    if (fastread_buffered_ >= boundary) {
        flush_fastread_buffer(outbox);
    } else if (options_.fastread_latency_target &&
               fastread_buffered_ * 100 +
                       fastread_controller_.ewma_x100() <
                   boundary * 100) {
        // Latency target: the served-load EWMA (queries per delay
        // window) predicts this burst will NOT reach the boundary within
        // the hold, so waiting only adds latency — flush now. An idle
        // system keeps batch-1 latency; a loaded one (EWMA ≥ boundary)
        // still holds for full batches.
        flush_fastread_buffer(outbox);
    } else {
        arm_fastread_flush_timer();
    }
}

void TroxyReplicaHost::flush_fastread_buffer(net::Outbox& outbox) {
    if (fastread_buffered_ == 0) return;
    ++fastread_flush_generation_;  // cancel any armed delay timer
    fastread_timer_armed_ = false;
    fastread_controller_.record_served(fastread_buffered_,
                                       fabric_.simulator().now(),
                                       options_.fastread_batch_delay);
    for (auto& [to, queries] : fastread_buffer_) {
        if (queries.empty()) continue;
        // A lone query keeps the single-message wire form (byte parity
        // with the unbatched flow); a burst ships as one CacheQueryBatch
        // and will be answered in one remote transition.
        const CacheMessage message =
            queries.size() == 1
                ? CacheMessage(std::move(queries.front()))
                : CacheMessage(CacheQueryBatch{std::move(queries)});
        outbox.send(to, encode_cache_frame(message));
    }
    fastread_buffer_.clear();
    fastread_buffered_ = 0;
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
                       /*record_cost=*/0, options_.wire_zero_copy,
                       &options_.transport);
            flush_fastread_buffer(outbox);
            outbox.flush(meter);
        });
}

TroxyReplicaHost::Status TroxyReplicaHost::status() const {
    Status s;
    s.troxy = troxy_->status();
    // Add the counters retired by enclave recoveries; gauges stay live.
    {
        const auto& acc = retired_troxy_stats_;
        s.troxy.fast_read_hits += acc.fast_read_hits;
        s.troxy.fast_read_misses += acc.fast_read_misses;
        s.troxy.fast_read_conflicts += acc.fast_read_conflicts;
        s.troxy.ordered_requests += acc.ordered_requests;
        s.troxy.completed_votes += acc.completed_votes;
        s.troxy.rejected_replies += acc.rejected_replies;
        s.troxy.reply_batches += acc.reply_batches;
        s.troxy.batched_replies += acc.batched_replies;
        s.troxy.reply_auth_batches += acc.reply_auth_batches;
        s.troxy.batch_authenticated_replies +=
            acc.batch_authenticated_replies;
        s.troxy.cache_query_batches += acc.cache_query_batches;
        s.troxy.batched_cache_queries += acc.batched_cache_queries;
        s.troxy.cache_response_batches += acc.cache_response_batches;
        s.troxy.batched_cache_responses += acc.batched_cache_responses;
        s.troxy.cache_invalidations += acc.cache_invalidations;
        s.troxy.invalidations_saved += acc.invalidations_saved;
        s.troxy.invalidations_saved_cross_batch +=
            acc.invalidations_saved_cross_batch;
        s.troxy.fallback_prebatches += acc.fallback_prebatches;
        s.troxy.prebatched_fallbacks += acc.prebatched_fallbacks;
        s.troxy.mode_switches += acc.mode_switches;
        s.troxy.enclave_transitions += acc.enclave_transitions;
    }
    s.voter_ewma_x100 = voter_controller_.ewma_x100();
    s.fastread_ewma_x100 = fastread_controller_.ewma_x100();
    s.batch_ewma_x100 = replica_->batch_ewma_x100();
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

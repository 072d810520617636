#include "troxy/enclave.hpp"

#include <algorithm>
#include <bit>

#include "common/group_by.hpp"
#include "common/log.hpp"
#include "common/serialize.hpp"
#include "net/client_framing.hpp"
#include "net/envelope.hpp"

namespace troxy::troxy_core {

TroxyEnclave::TroxyEnclave(sim::NodeId host_node, std::uint32_t replica_id,
                           hybster::Config config,
                           std::shared_ptr<enclave::TrinX> trinx,
                           crypto::X25519Keypair channel_identity,
                           Classifier classifier,
                           const sim::CostProfile& profile,
                           TroxyOptions options, std::uint64_t seed,
                           sim::BufferPool& pool)
    : host_node_(host_node),
      replica_id_(replica_id),
      config_(std::move(config)),
      trinx_(std::move(trinx)),
      classifier_(std::move(classifier)),
      profile_(profile),
      options_(options),
      pool_(pool),
      gate_("troxy",
            options.inside_enclave ? options.enclave_costs
                                   : sim::EnclaveCosts::jni_only(),
            /*max_ecalls=*/16),
      cache_(gate_, options.cache_capacity_bytes),
      monitor_(options.monitor),
      rng_(seed ^ (0x7472657800ULL + host_node)),
      sessions_(channel_identity),
      source_stamp_(static_cast<std::size_t>(config_.n()), 0) {
    TROXY_ASSERT(trinx_ != nullptr, "troxy needs the trusted subsystem");
    TROXY_ASSERT(classifier_ != nullptr, "troxy needs a request classifier");
    TROXY_ASSERT(config_.n() <= 64,
                 "a pending fast read keeps one bit per replica");
}

bool TroxyEnclave::first_from(std::uint32_t replica) {
    // An out-of-range id is rejected before any MAC work, so its answer
    // does not matter.
    if (replica >= source_stamp_.size()) return true;
    const bool first = source_stamp_[replica] != ecall_stamp_;
    source_stamp_[replica] = ecall_stamp_;
    return first;
}

void TroxyActions::clear() noexcept {
    sends.clear();
    cache_queries.clear();
    to_order.clear();
    to_order_preformed = false;
    arm_vote_timers.clear();
    arm_fast_read_timers.clear();
    completed_votes.clear();
    completed_fast_reads.clear();
}

TroxyActions TroxyEnclave::take_actions() {
    if (spare_actions_.empty()) return {};
    TroxyActions actions = std::move(spare_actions_.back());
    spare_actions_.pop_back();
    return actions;
}

void TroxyEnclave::recycle(TroxyActions&& actions) {
    if (spare_actions_.size() >= kMaxSpareActions) return;
    actions.clear();
    spare_actions_.push_back(std::move(actions));
}

namespace {

/// Bytes of a batch frame's count field. Hosts ship a lone query or
/// response in the plain single-message form, so a span of one crosses
/// the enclave boundary without it.
std::size_t batch_header(std::size_t items) { return items > 1 ? 2 : 0; }

}  // namespace

crypto::Sha256Digest TroxyEnclave::app_request_digest(
    enclave::CostedCrypto& crypto, ByteView app_request) const {
    return crypto.hash(app_request);
}

// ------------------------------------------------------------ connections

TroxyActions TroxyEnclave::accept_connection(enclave::CostMeter& meter,
                                             sim::NodeId client,
                                             ByteView hello) {
    gate_.ecall(meter, "accept_connection", hello.size(), 96);
    enclave::CostedCrypto crypto(profile_, meter);

    FixedWriter<8> prefix;
    prefix.u64(rng_.next());
    TroxyActions actions = take_actions();
    if (auto server_hello =
            sessions_.accept(crypto, client, hello, prefix.take(), pool_)) {
        actions.sends.emplace_back(client, std::move(*server_hello));
    }
    return actions;
}

void TroxyEnclave::close_connection(enclave::CostMeter& meter,
                                    sim::NodeId client) {
    gate_.ecall(meter, "close_connection", 0, 0);
    sessions_.erase(client);
}

// --------------------------------------------------------------- requests

TroxyActions TroxyEnclave::handle_request(enclave::CostMeter& meter,
                                          sim::NodeId client,
                                          ByteView record) {
    gate_.ecall(meter, "handle_request", record.size(), 0);
    enclave::CostedCrypto crypto(profile_, meter);
    TroxyActions actions = take_actions();

    // No session: nothing opens. The requests borrow the channel's open
    // buffer, which holds until the connection's next record.
    const net::ClientSessions::Opened opened =
        sessions_.open(crypto, client, record);
    for (const ByteView app_request : opened.requests) {
        const net::ClientSessions::Ticket to = opened.session->assign();
        hybster::RequestInfo info = classifier_(app_request);
        crypto.charge_dispatch();

        bool handled = false;
        if (info.is_read && options_.fast_reads &&
            !has_pending_write(info)) {
            if (monitor_.fast_path_enabled()) {
                const CacheEntry* entry = cache_.get(info.state_key);
                gate_.touch(meter, entry ? entry->result.size() : 0);
                if (entry != nullptr &&
                    constant_time_equal(
                        entry->request_digest,
                        app_request_digest(crypto, app_request))) {
                    start_fast_read(crypto, actions, to, info, app_request,
                                    *entry);
                    handled = true;
                } else {
                    // Local cache miss: count it, fall through to ordering.
                    ++stats_.fast_read_misses;
                    monitor_.record(true);
                }
            } else {
                monitor_.record_total_order();
            }
        } else if (!monitor_.fast_path_enabled()) {
            monitor_.record_total_order();
        }

        if (!handled) {
            order_request(crypto, actions, to, info, app_request);
        }
    }
    return actions;
}

void TroxyEnclave::order_request(enclave::CostedCrypto& crypto,
                                 TroxyActions& actions,
                                 const net::ClientSessions::Ticket& to,
                                 const hybster::RequestInfo& info,
                                 ByteView app_request) {
    hybster::Request request;
    request.id.client = host_node_;
    request.id.number = next_request_number_++;
    if (info.is_read) request.flags |= hybster::Request::kFlagRead;
    request.assign(app_request, 1);
    // Decrypting the client request and creating the authenticated BFT
    // request happen atomically inside this ecall (§III-C task 2). The
    // request is hashed once (memoized on the Request, so the co-located
    // replica's ordering path reuses it); certificate and voter matching
    // reuse it too.
    const crypto::Sha256Digest digest = request.digest_with(crypto, scratch_);
    request.auth_slots()[0] =
        trinx_->certify_independent_digest(crypto, digest);

    if (!info.is_read) {
        // Register the whole write set: a fast read on any key the write
        // touches (exact key or a covering scan partition) must be
        // conservatively ordered while the write is in flight.
        for (const std::string& key : info.keys()) {
            ++*pending_write_keys_.try_emplace(key, 0).first;
        }
    }
    PendingVote pending;
    pending.to = to;
    pending.request_digest = digest;
    pending.request = request;
    if (!spare_tallies_.empty()) {
        pending.tally = std::move(spare_tallies_.back());
        spare_tallies_.pop_back();
    }
    pending.tally.votes.assign(static_cast<std::size_t>(config_.n()), 0);
    pending_votes_.try_emplace(request.id.number, std::move(pending));

    ++stats_.ordered_requests;
    const std::uint64_t number = request.id.number;
    actions.to_order.push_back(std::move(request));
    actions.arm_vote_timers.push_back(number);
}

// ------------------------------------------------------------------ voter

TroxyActions TroxyEnclave::handle_replies(enclave::CostMeter& meter,
                                          std::span<hybster::Reply> replies) {
    std::size_t in_bytes = 0;
    for (const hybster::Reply& reply : replies) {
        in_bytes += reply.result.size() + 96;
    }
    gate_.ecall(meter, "handle_replies", in_bytes, 0);
    enclave::CostedCrypto crypto(profile_, meter);
    TroxyActions actions = take_actions();

    ++stats_.reply_batches;
    stats_.batched_replies += replies.size();

    // Per-source running MAC: a source replica's first reply in the batch
    // pays the full MAC setup, its later replies only stream bytes.
    // Completed writes share the ecall's stamp, so a burst completing
    // many writes under one key drops it once.
    ++ecall_stamp_;
    for (const hybster::Reply& reply : replies) {
        const bool first = first_from(reply.replica);
        ingest_reply(crypto, actions, reply, first);
    }
    flush_releases(crypto, actions);
    return actions;
}

void TroxyEnclave::ingest_reply(enclave::CostedCrypto& crypto,
                                TroxyActions& actions,
                                const hybster::Reply& reply,
                                bool first_from_source) {
    const std::uint64_t number = reply.request_id.number;
    PendingVote* found = pending_votes_.find(number);
    if (found == nullptr) return;  // done or unknown
    if (reply.request_id.client != host_node_) return;
    PendingVote& pending = *found;

    if (reply.replica >= static_cast<std::uint32_t>(config_.n())) {
        return;
    }

    // §IV-A change (1): only count replies authenticated by the sending
    // replica's Troxy — this is what forces every replica to route write
    // replies through its trusted subsystem and thus invalidate its cache.
    // A bad certificate rejects only this reply; the rest of a batch is
    // unaffected (each reply is verified individually even when the MAC
    // cost is amortized).
    if (!trinx_->verify_independent_batched(
            crypto, reply.replica, reply.certified_view(scratch_), reply.cert,
            first_from_source)) {
        ++stats_.rejected_replies;
        return;
    }
    // §IV-A change (2): the reply embeds the request digest, so the voter
    // matches result *and* request identity.
    if (!constant_time_equal(reply.request_digest, pending.request_digest)) {
        ++stats_.rejected_replies;
        return;
    }

    Tally& tally = pending.tally;
    std::uint32_t& vote = tally.votes[reply.replica];
    if (vote != 0 && tally.results[vote - 1] == reply.result) {
        return;  // a repeat counts once
    }
    vote = 0;
    // The result's index among the distinct ones; a new result takes the
    // first slot no replica votes for, or a new one, and is copied once.
    const auto voters = [&tally](std::size_t index) {
        return std::count(tally.votes.begin(), tally.votes.end(),
                          static_cast<std::uint32_t>(index + 1));
    };
    std::size_t index = 0;
    while (index < tally.results.size() &&
           tally.results[index] != reply.result) {
        ++index;
    }
    if (index == tally.results.size()) {
        index = 0;
        while (index < tally.results.size() && voters(index) > 0) ++index;
        if (index == tally.results.size()) {
            tally.results.push_back(take_spare_result());
        }
        tally.results[index].assign(reply.result.begin(), reply.result.end());
    }
    vote = static_cast<std::uint32_t>(index + 1);
    if (voters(index) < config_.reply_quorum()) return;

    // Vote complete: the result is correct. Maintain the cache with
    // knowledge the contact Troxy now *provably* has.
    // The key closure is classified again from the kept request: storing
    // it would add its inline key list (about 300 bytes) to every
    // pending vote.
    Bytes& result = tally.results[index];
    const hybster::RequestInfo info =
        classifier_(pending.request.payload());
    if (info.is_read) {
        const crypto::Sha256Digest request_digest =
            crypto.hash(pending.request.payload());
        const crypto::Sha256Digest result_digest = crypto.hash(result);
        gate_.touch(crypto.meter(), result.size());
        cache_.put(info.state_key, request_digest, result, result_digest);
        // A fresh entry re-arms the key: a later write completing in the
        // SAME transition must invalidate it again, dedup or not.
        invalidated_unrecached_.erase(info.state_key);
    } else {
        invalidate_write_set(info);
        for (const std::string& key : info.keys()) {
            int* in_flight = pending_write_keys_.find(key);
            if (in_flight != nullptr && --*in_flight == 0) {
                pending_write_keys_.erase(key);
            }
        }
    }
    ++stats_.completed_votes;

    const net::ClientSessions::Ticket to = pending.to;
    Bytes app_reply = std::move(result);
    if (spare_tallies_.size() < kMaxSpareTallies) {
        tally.results.clear();
        spare_tallies_.push_back(std::move(tally));
    }
    pending_votes_.erase(number);
    actions.completed_votes.push_back(number);
    collect_releases(to, std::move(app_reply));
}

void TroxyEnclave::collect_releases(const net::ClientSessions::Ticket& to,
                                    Bytes&& app_reply) {
    // The plaintexts accumulate for one seal at the end of the transition.
    // The first reply out is `app_reply` itself, which moves into the
    // plan; each banked reply it unblocks is copied into a spare buffer.
    // A reply the window banked or dropped leaves its buffer spare.
    bool first = true;
    sessions_.release(to, app_reply,
                      [&](net::ClientSessions::Session& session,
                          ByteView reply) {
                          Bytes plaintext;
                          if (first) {
                              plaintext = std::move(app_reply);
                              first = false;
                          } else {
                              plaintext = take_spare_result();
                              plaintext.assign(reply.begin(), reply.end());
                          }
                          release_plan_.push_back({session.client,
                                                   release_plan_.size(),
                                                   std::move(plaintext)});
                      });
    keep_spare_result(std::move(app_reply));
}

void TroxyEnclave::flush_releases(enclave::CostedCrypto& crypto,
                                  TroxyActions& actions) {
    for_each_destination(release_plan_, [&](auto first, auto last) {
        net::ClientSessions::Session* session = sessions_.find(first->to);
        if (session == nullptr) return;
        std::size_t total = 0;
        release_views_.clear();
        for (auto it = first; it != last; ++it) {
            total += it->plaintext.size();
            release_views_.emplace_back(it->plaintext);
        }
        // ONE AEAD pass over the whole burst for this connection: the
        // per-record base cost is paid once instead of once per reply.
        // Gather encoding builds envelope ‖ frame header ‖ sealed record
        // in one pooled wire buffer.
        crypto.charge(profile_.aead(total));
        actions.sends.emplace_back(
            first->to, net::client_record_frame(session->channel,
                                                release_views_, pool_));
    });
    for (Release& release : release_plan_) {
        keep_spare_result(std::move(release.plaintext));
    }
    release_plan_.clear();
}

Bytes TroxyEnclave::take_spare_result() {
    if (spare_results_.empty()) return {};
    Bytes buffer = std::move(spare_results_.back());
    spare_results_.pop_back();
    return buffer;
}

void TroxyEnclave::keep_spare_result(Bytes&& buffer) {
    if (spare_results_.size() >= kMaxSpareResults) return;
    if (buffer.capacity() == 0) return;
    buffer.clear();
    spare_results_.push_back(std::move(buffer));
}

// ------------------------------------------------- reply authentication

enclave::Certificate TroxyEnclave::certify_executed_reply(
    enclave::CostedCrypto& crypto, const hybster::Request& request,
    const hybster::Reply& reply, bool first_in_batch) {
    const hybster::RequestInfo info = classifier_(request.payload());
    gate_.touch(crypto.meter(), reply.result.size());

    // Invalidate *before* the certificate exists: without the certificate
    // the reply cannot influence any voter, so no client can observe the
    // write while any quorum cache still holds the overwritten entry.
    // Within one batched transition each distinct key drops once (the
    // ecall stamp dedups repeat writers).
    if (!info.is_read) {
        invalidate_write_set(info);
    } else if (reply.kind == hybster::Reply::Kind::Ordered) {
        const crypto::Sha256Digest request_digest =
            crypto.hash(request.payload());
        const crypto::Sha256Digest result_digest =
            crypto.hash(reply.result);
        cache_.put(info.state_key, request_digest, reply.result,
                   result_digest);
        // Re-arm the key: a later write in the same batch must
        // invalidate this fresh entry again.
        invalidated_unrecached_.erase(info.state_key);
    }

    return trinx_->certify_independent_batched(
        crypto, reply.certified_view(scratch_), first_in_batch);
}

void TroxyEnclave::invalidate_write_set(const hybster::RequestInfo& info) {
    for (const std::string& key : info.keys()) {
        const auto [stamp, inserted] =
            invalidated_unrecached_.try_emplace(key, ecall_stamp_);
        if (!inserted) {
            // This ecall already dropped the key, or an earlier one did
            // and nothing re-cached it since: either way the cache cannot
            // hold it.
            if (*stamp == ecall_stamp_) {
                ++stats_.invalidations_saved;
            } else {
                *stamp = ecall_stamp_;
                ++stats_.invalidations_saved_cross_batch;
            }
            continue;
        }
        cache_.invalidate(key);
        ++stats_.cache_invalidations;
    }
}

bool TroxyEnclave::has_pending_write(
    const hybster::RequestInfo& info) const {
    return std::ranges::any_of(info.keys(), [this](const std::string& key) {
        return pending_write_keys_.contains(key);
    });
}

void TroxyEnclave::authenticate_replies(
    enclave::CostMeter& meter, std::span<hybster::ExecutedReply> batch) {
    std::size_t in_bytes = 0;
    for (const hybster::ExecutedReply& item : batch) {
        in_bytes += item.request->payload().size() + item.reply.result.size() +
                    128;
    }
    gate_.ecall(meter, "authenticate_replies", in_bytes,
                batch.size() * sizeof(enclave::Certificate));
    enclave::CostedCrypto crypto(profile_, meter);

    ++stats_.reply_auth_batches;
    stats_.batch_authenticated_replies += batch.size();

    // All certificates come from this Troxy's own trusted subsystem, so
    // the whole batch shares one running MAC: only the first reply pays
    // the MAC setup.
    // One ecall stamp for the whole executed batch: a write burst under
    // few distinct keys drops each key once instead of per reply.
    ++ecall_stamp_;
    bool first = true;
    for (hybster::ExecutedReply& item : batch) {
        item.reply.cert =
            certify_executed_reply(crypto, *item.request, item.reply, first);
        first = false;
    }
}

// -------------------------------------------------------------- fast read

void TroxyEnclave::start_fast_read(enclave::CostedCrypto& crypto,
                                   TroxyActions& actions,
                                   const net::ClientSessions::Ticket& to,
                                   const hybster::RequestInfo& info,
                                   ByteView app_request,
                                   const CacheEntry& entry) {
    const std::uint64_t query_id = next_query_id_++;

    // The snapshot and the request are copied into recycled buffers.
    PendingFastRead fast;
    fast.to = to;
    fast.local.request_digest = entry.request_digest;
    fast.local.result_digest = entry.result_digest;
    fast.local.result = take_spare_result();
    fast.local.result.assign(entry.result.begin(), entry.result.end());
    fast.app_request = take_spare_result();
    fast.app_request.assign(app_request.begin(), app_request.end());

    // Choose f random remote Troxies (Fig. 4 line 24; randomness defends
    // against a faulty replica that always answers stale, §VI-B).
    std::vector<std::uint32_t>& candidates = candidates_;
    candidates.clear();
    for (std::uint32_t r = 0; r < static_cast<std::uint32_t>(config_.n());
         ++r) {
        if (r != replica_id_) candidates.push_back(r);
    }
    for (int i = 0; i < config_.f; ++i) {
        const std::size_t pick =
            static_cast<std::size_t>(rng_.next_below(candidates.size() - i));
        std::swap(candidates[pick], candidates[candidates.size() - 1 - i]);
        fast.awaiting |= std::uint64_t{1}
                         << candidates[candidates.size() - 1 - i];
    }

    CacheQuery query;
    query.requester = host_node_;
    query.query_id = query_id;
    query.state_key = info.state_key;
    query.request_digest = entry.request_digest;
    query.cert =
        trinx_->certify_independent(crypto, query.certified_view(scratch_));

    // Surfaced structured, not encoded: the untrusted host may buffer
    // concurrent queries to the same remote and ship them as one batch
    // (the certificate already binds the content). They leave in
    // ascending replica id.
    for (std::uint64_t bits = fast.awaiting; bits != 0; bits &= bits - 1) {
        const auto r = static_cast<std::uint32_t>(std::countr_zero(bits));
        actions.cache_queries.emplace_back(config_.node_of(r), query);
    }

    fast_reads_.try_emplace(query_id, std::move(fast));
    actions.arm_fast_read_timers.push_back(query_id);
}

std::optional<CacheResponse> TroxyEnclave::answer_cache_query(
    enclave::CostedCrypto& crypto, const CacheQuery& query,
    bool first_from_source) {
    const int requester = config_.replica_of(query.requester);
    if (requester < 0 || requester == static_cast<int>(replica_id_)) {
        return std::nullopt;
    }
    if (!trinx_->verify_independent_batched(
            crypto, static_cast<std::uint32_t>(requester),
            query.certified_view(scratch_), query.cert, first_from_source)) {
        return std::nullopt;
    }

    CacheResponse response;
    response.responder = host_node_;
    response.responder_replica = replica_id_;
    response.query_id = query.query_id;

    const CacheEntry* entry = cache_.get(query.state_key);
    gate_.touch(crypto.meter(), entry ? entry->result.size() : 0);
    if (entry != nullptr) {
        response.has_entry = true;
        response.request_digest = entry->request_digest;
        // Only the hash of the cached reply crosses the network (§VI-C2);
        // the digest was computed once at insertion.
        response.result_digest = entry->result_digest;
    }
    response.cert =
        trinx_->certify_independent(crypto, response.certified_view());
    return response;
}

TroxyActions TroxyEnclave::handle_cache_queries(
    enclave::CostMeter& meter, std::span<const CacheQuery> queries) {
    const std::size_t header = batch_header(queries.size());
    std::size_t in_bytes = header;
    for (const CacheQuery& query : queries) in_bytes += wire_size(query);
    gate_.ecall(meter, "handle_cache_queries", in_bytes,
                header + queries.size() * wire_size(CacheResponse{}));
    enclave::CostedCrypto crypto(profile_, meter);
    TroxyActions actions = take_actions();

    ++stats_.cache_query_batches;
    stats_.batched_cache_queries += queries.size();

    // Per-source running MAC over the requester certificates; every query
    // is still verified individually (a bad one drops only itself).
    // Answers to the same requester leave as one response batch, encoded
    // straight from answers_.
    ++ecall_stamp_;
    for (const CacheQuery& query : queries) {
        const int requester = config_.replica_of(query.requester);
        const bool first =
            requester < 0 || first_from(static_cast<std::uint32_t>(requester));
        auto response = answer_cache_query(crypto, query, first);
        if (response) {
            answers_.push_back(
                {query.requester, answers_.size(), std::move(*response)});
        }
    }
    for_each_destination(answers_, [&](auto first, auto last) {
        actions.sends.emplace_back(
            first->to,
            encode_cache_frame(first, last, pool_, &Answer::response));
    });
    answers_.clear();
    return actions;
}

void TroxyEnclave::ingest_cache_response(enclave::CostedCrypto& crypto,
                                         TroxyActions& actions,
                                         const CacheResponse& response,
                                         bool first_from_source) {
    PendingFastRead* found = fast_reads_.find(response.query_id);
    if (found == nullptr) return;
    PendingFastRead& fast = *found;

    const int responder = config_.replica_of(response.responder);
    if (responder < 0 ||
        response.responder_replica != static_cast<std::uint32_t>(responder)) {
        return;
    }
    const std::uint64_t bit = std::uint64_t{1} << responder;
    if ((fast.awaiting & bit) == 0) return;
    if (!trinx_->verify_independent_batched(crypto, response.responder_replica,
                                            response.certified_view(),
                                            response.cert,
                                            first_from_source)) {
        return;
    }

    const bool matches =
        response.has_entry &&
        constant_time_equal(response.request_digest,
                            fast.local.request_digest) &&
        constant_time_equal(response.result_digest,
                            fast.local.result_digest);

    if (!matches) {
        // Mismatch amongst caches (concurrent write or stale/faulty
        // replica): order the request the common way (Fig. 4 line 31).
        ++stats_.fast_read_conflicts;
        monitor_.record(true);
        fast_read_fallback(crypto, actions, response.query_id);
        return;
    }

    fast.awaiting &= ~bit;
    if (fast.awaiting != 0) return;

    // All f remote caches matched the local one: the fast read succeeds.
    // The result leaves as the reply; the request buffer is spare again.
    ++stats_.fast_read_hits;
    monitor_.record(false);
    const net::ClientSessions::Ticket to = fast.to;
    Bytes result = std::move(fast.local.result);
    keep_spare_result(std::move(fast.app_request));
    fast_reads_.erase(response.query_id);
    actions.completed_fast_reads.push_back(response.query_id);
    collect_releases(to, std::move(result));
}

TroxyActions TroxyEnclave::handle_cache_responses(
    enclave::CostMeter& meter, std::span<const CacheResponse> responses) {
    gate_.ecall(meter, "handle_cache_responses",
                batch_header(responses.size()) +
                    responses.size() * wire_size(CacheResponse{}),
                0);
    enclave::CostedCrypto crypto(profile_, meter);
    TroxyActions actions = take_actions();

    ++stats_.cache_response_batches;
    stats_.batched_cache_responses += responses.size();

    // Per-source running MAC over the responder certificates; a Byzantine
    // response in the burst rejects (or falls back) only its own query.
    // All client replies completed by this burst seal into one record per
    // connection.
    ++ecall_stamp_;
    for (const CacheResponse& response : responses) {
        const bool first = first_from(response.responder_replica);
        ingest_cache_response(crypto, actions, response, first);
    }
    flush_releases(crypto, actions);
    // A conflicted burst falls back together: two or more fallbacks from
    // one transition enter the ordering pipeline as ONE pre-formed batch
    // (one Prepare/Commit round) instead of request by request. A single
    // fallback is submitted like any other ordered request.
    if (actions.to_order.size() > 1) {
        ++stats_.fallback_prebatches;
        stats_.prebatched_fallbacks += actions.to_order.size();
        actions.to_order_preformed = true;
    }
    return actions;
}

void TroxyEnclave::fast_read_fallback(enclave::CostedCrypto& crypto,
                                      TroxyActions& actions,
                                      std::uint64_t query_id) {
    PendingFastRead* found = fast_reads_.find(query_id);
    if (found == nullptr) return;
    PendingFastRead fast = std::move(*found);
    fast_reads_.erase(query_id);

    order_request(crypto, actions, fast.to, classifier_(fast.app_request),
                  fast.app_request);
    actions.completed_fast_reads.push_back(query_id);
    keep_spare_result(std::move(fast.local.result));
    keep_spare_result(std::move(fast.app_request));
}

TroxyActions TroxyEnclave::fast_read_timeout(enclave::CostMeter& meter,
                                             std::uint64_t query_id) {
    gate_.ecall(meter, "fast_read_timeout", 8, 0);
    enclave::CostedCrypto crypto(profile_, meter);
    TroxyActions actions = take_actions();
    if (fast_reads_.contains(query_id)) {
        ++stats_.fast_read_conflicts;
        monitor_.record(true);
        fast_read_fallback(crypto, actions, query_id);
    }
    return actions;
}

// ------------------------------------------------------------- liveness

TroxyActions TroxyEnclave::retransmit(enclave::CostMeter& meter,
                                      std::uint64_t request_number) {
    gate_.ecall(meter, "retransmit", 8, 0);
    enclave::CostedCrypto crypto(profile_, meter);
    crypto.charge_dispatch();
    TroxyActions actions = take_actions();

    const PendingVote* pending = pending_votes_.find(request_number);
    if (pending == nullptr) return actions;

    // Rebroadcast to every replica: followers forward to the leader and
    // start their progress timers, eventually forcing a view change.
    // Each peer gets its own pooled frame.
    for (std::uint32_t r = 0; r < static_cast<std::uint32_t>(config_.n());
         ++r) {
        if (r == replica_id_) continue;
        actions.sends.emplace_back(
            config_.node_of(r),
            hybster::encode_frame(net::Channel::Hybster, pending->request,
                                  pool_));
    }
    actions.to_order.push_back(pending->request);
    actions.arm_vote_timers.push_back(request_number);
    return actions;
}

// --------------------------------------------------------------- metrics

TroxyEnclave::Status TroxyEnclave::status() const {
    Status s = stats_;
    s.miss_rate = monitor_.miss_rate();
    s.fast_path_enabled = monitor_.fast_path_enabled();
    s.mode_switches = monitor_.mode_switches();
    s.cache_entries = cache_.entries();
    s.enclave_transitions = gate_.transitions();
    s.pending_votes = pending_votes_.size();
    s.pending_fast_reads = fast_reads_.size();
    s.stuck_replies = sessions_.waiting();
    return s;
}

void TroxyEnclave::Status::add_counters(const Status& other) {
    fast_read_hits += other.fast_read_hits;
    fast_read_misses += other.fast_read_misses;
    fast_read_conflicts += other.fast_read_conflicts;
    ordered_requests += other.ordered_requests;
    completed_votes += other.completed_votes;
    rejected_replies += other.rejected_replies;
    reply_batches += other.reply_batches;
    batched_replies += other.batched_replies;
    reply_auth_batches += other.reply_auth_batches;
    batch_authenticated_replies += other.batch_authenticated_replies;
    cache_query_batches += other.cache_query_batches;
    batched_cache_queries += other.batched_cache_queries;
    cache_response_batches += other.cache_response_batches;
    batched_cache_responses += other.batched_cache_responses;
    cache_invalidations += other.cache_invalidations;
    invalidations_saved += other.invalidations_saved;
    invalidations_saved_cross_batch += other.invalidations_saved_cross_batch;
    fallback_prebatches += other.fallback_prebatches;
    prebatched_fallbacks += other.prebatched_fallbacks;
    mode_switches += other.mode_switches;
    enclave_transitions += other.enclave_transitions;
}

void TroxyEnclave::restart() {
    cache_.clear();
    sessions_.clear();
    pending_votes_.clear();
    fast_reads_.clear();
    // The votes backing these in-flight markers are gone; a leaked entry
    // would gate fast reads on its key forever.
    pending_write_keys_.clear();
    // The cache is empty, so no key is "invalidated but maybe cached".
    invalidated_unrecached_.clear();
}

}  // namespace troxy::troxy_core

#include "troxy/enclave.hpp"

#include <algorithm>

#include "common/log.hpp"
#include "common/serialize.hpp"
#include "net/client_framing.hpp"
#include "net/envelope.hpp"

namespace troxy::troxy_core {

namespace {

Bytes vote_key(const crypto::Sha256Digest& digest, ByteView result) {
    Writer w;
    w.raw(digest);
    w.bytes(result);
    return std::move(w).take();
}

}  // namespace

TroxyEnclave::TroxyEnclave(sim::NodeId host_node, std::uint32_t replica_id,
                           hybster::Config config,
                           std::shared_ptr<enclave::TrinX> trinx,
                           crypto::X25519Keypair channel_identity,
                           Classifier classifier,
                           const sim::CostProfile& profile,
                           TroxyOptions options, std::uint64_t seed)
    : host_node_(host_node),
      replica_id_(replica_id),
      config_(std::move(config)),
      trinx_(std::move(trinx)),
      identity_(channel_identity),
      classifier_(std::move(classifier)),
      profile_(profile),
      options_(options),
      gate_("troxy",
            options.inside_enclave ? options.enclave_costs
                                   : sim::EnclaveCosts::jni_only(),
            /*max_ecalls=*/16),
      cache_(gate_, options.cache_capacity_bytes),
      monitor_(options.monitor),
      rng_(seed ^ (0x7472657800ULL + host_node)) {
    TROXY_ASSERT(trinx_ != nullptr, "troxy needs the trusted subsystem");
    TROXY_ASSERT(classifier_ != nullptr, "troxy needs a request classifier");
}

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

    auto [it, inserted] = connections_.try_emplace(client, identity_);
    if (!inserted) {
        // Reconnect: the old session is gone (client-side failover).
        connections_.erase(it);
        it = connections_.try_emplace(client, identity_).first;
    }

    Writer seed;
    seed.u64(rng_.next());
    seed.u64(++handshake_counter_);
    auto server_hello = it->second.channel.accept(crypto, hello, seed.data());

    TroxyActions actions;
    if (!server_hello) {
        connections_.erase(it);
        return actions;
    }
    actions.sends.emplace_back(
        client, net::wrap(net::Channel::Client,
                          net::frame_client(net::ClientFrame::ServerHello,
                                            *server_hello)));
    return actions;
}

void TroxyEnclave::close_connection(enclave::CostMeter& meter,
                                    sim::NodeId client) {
    gate_.ecall(meter, "close_connection", 0, 0);
    connections_.erase(client);
}

// --------------------------------------------------------------- requests

TroxyActions TroxyEnclave::handle_request(enclave::CostMeter& meter,
                                          sim::NodeId client,
                                          ByteView record) {
    gate_.ecall(meter, "handle_request", record.size(), 0);
    enclave::CostedCrypto crypto(profile_, meter);
    TroxyActions actions;

    const auto conn = connections_.find(client);
    if (conn == connections_.end() || !conn->second.channel.established()) {
        return actions;  // no session: discard
    }

    crypto.charge(profile_.aead(record.size()));
    auto app_requests = conn->second.channel.unprotect(record);

    for (Bytes& app_request : app_requests) {
        const std::uint64_t conn_slot = conn->second.next_assign++;
        const hybster::RequestInfo info = classifier_(app_request);
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
                    start_fast_read(crypto, actions, client, conn_slot, info,
                                    app_request, *entry);
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
            TroxyActions ordered = order_request(crypto, client, conn_slot,
                                                 info, app_request);
            merge_actions(actions, std::move(ordered));
        }
    }
    return actions;
}

void TroxyEnclave::merge_actions(TroxyActions& into, TroxyActions&& from) {
    for (auto& send : from.sends) into.sends.push_back(std::move(send));
    for (auto& query : from.cache_queries) {
        into.cache_queries.push_back(std::move(query));
    }
    for (auto& request : from.to_order) {
        into.to_order.push_back(std::move(request));
    }
    for (auto& request : from.to_order_batch) {
        into.to_order_batch.push_back(std::move(request));
    }
    for (auto t : from.arm_vote_timers) into.arm_vote_timers.push_back(t);
    for (auto t : from.arm_fast_read_timers) {
        into.arm_fast_read_timers.push_back(t);
    }
    for (auto t : from.completed_votes) into.completed_votes.push_back(t);
    for (auto t : from.completed_fast_reads) {
        into.completed_fast_reads.push_back(t);
    }
}

TroxyActions TroxyEnclave::order_request(enclave::CostedCrypto& crypto,
                                         sim::NodeId client,
                                         std::uint64_t conn_slot,
                                         const hybster::RequestInfo& info,
                                         ByteView app_request) {
    TroxyActions actions;

    hybster::Request request;
    request.id.client = host_node_;
    request.id.number = next_request_number_++;
    if (info.is_read) request.flags |= hybster::Request::kFlagRead;
    request.payload.assign(app_request.begin(), app_request.end());
    // Decrypting the client request and creating the authenticated BFT
    // request happen atomically inside this ecall (§III-C task 2). The
    // request is hashed once (memoized on the Request, so the co-located
    // replica's ordering path reuses it); certificate and voter matching
    // reuse it too.
    const crypto::Sha256Digest digest = request.digest_with(crypto, scratch_);
    request.auth.push_back(
        trinx_->certify_independent_digest(crypto, digest));

    PendingVote pending;
    pending.client = client;
    pending.conn_slot = conn_slot;
    pending.state_key = info.state_key;
    pending.extra_keys = info.extra_keys;
    pending.is_read = info.is_read;
    pending.request_digest = digest;
    pending.request = request;
    if (!info.is_read) {
        // Register the whole write set: a fast read on any key the write
        // touches (exact key or a covering scan partition) must be
        // conservatively ordered while the write is in flight.
        ++pending_write_keys_[info.state_key];
        for (const std::string& key : info.extra_keys) {
            ++pending_write_keys_[key];
        }
    }
    pending_votes_.emplace(request.id.number, std::move(pending));

    ++stats_.ordered_requests;
    const std::uint64_t number = request.id.number;
    actions.to_order.push_back(std::move(request));
    actions.arm_vote_timers.push_back(number);
    return actions;
}

// ------------------------------------------------------------------ voter

TroxyActions TroxyEnclave::handle_reply(enclave::CostMeter& meter,
                                        hybster::Reply reply) {
    gate_.ecall(meter, "handle_reply", reply.result.size() + 96, 0);
    enclave::CostedCrypto crypto(profile_, meter);
    TroxyActions actions;
    std::set<std::string> invalidated;
    ingest_reply(crypto, actions, std::move(reply), /*first_from_source=*/true,
                 /*release_plan=*/nullptr, &invalidated);
    return actions;
}

TroxyActions TroxyEnclave::handle_replies(enclave::CostMeter& meter,
                                          std::vector<hybster::Reply> replies) {
    std::size_t in_bytes = 0;
    for (const hybster::Reply& reply : replies) {
        in_bytes += reply.result.size() + 96;
    }
    gate_.ecall(meter, "handle_replies", in_bytes, 0);
    enclave::CostedCrypto crypto(profile_, meter);
    TroxyActions actions;

    ++stats_.reply_batches;
    stats_.batched_replies += replies.size();

    // Per-source running MAC: a source replica's first reply in the batch
    // pays the full MAC setup, its later replies only stream bytes.
    // Completed writes share one per-transition invalidation set, so a
    // burst completing many writes under one key drops it once.
    std::set<std::uint32_t> sources_seen;
    std::set<std::string> invalidated;
    ReleasePlan plan;
    for (hybster::Reply& reply : replies) {
        const bool first = sources_seen.insert(reply.replica).second;
        ingest_reply(crypto, actions, std::move(reply), first, &plan,
                     &invalidated);
    }
    flush_releases(crypto, actions, plan);
    return actions;
}

void TroxyEnclave::ingest_reply(enclave::CostedCrypto& crypto,
                                TroxyActions& actions, hybster::Reply&& reply,
                                bool first_from_source,
                                ReleasePlan* release_plan,
                                std::set<std::string>* invalidated) {
    const auto it = pending_votes_.find(reply.request_id.number);
    if (it == pending_votes_.end()) return;  // done or unknown
    if (reply.request_id.client != host_node_) return;
    PendingVote& pending = it->second;

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

    Bytes key = vote_key(reply.request_digest, reply.result);
    const auto previous = pending.votes.find(reply.replica);
    if (previous != pending.votes.end()) {
        if (previous->second == key) return;
        --pending.tally[previous->second];
    }
    pending.votes[reply.replica] = key;
    const int count = ++pending.tally[key];

    if (count < config_.quorum()) return;

    // Vote complete: the result is correct. Maintain the cache with
    // knowledge the contact Troxy now *provably* has.
    if (pending.is_read) {
        CacheEntry entry;
        entry.request_digest = crypto.hash(pending.request.payload);
        entry.result = reply.result;
        entry.result_digest = crypto.hash(entry.result);
        gate_.touch(crypto.meter(), entry.result.size());
        cache_.put(pending.state_key, std::move(entry));
        // A fresh entry re-arms the key: a later write completing in the
        // SAME transition must invalidate it again, dedup or not.
        if (invalidated != nullptr) invalidated->erase(pending.state_key);
        invalidated_unrecached_.erase(pending.state_key);
    } else {
        invalidate_write_set(pending.state_key, pending.extra_keys,
                             invalidated);
        for (std::size_t k = 0; k <= pending.extra_keys.size(); ++k) {
            const std::string& key =
                k == 0 ? pending.state_key : pending.extra_keys[k - 1];
            const auto in_flight = pending_write_keys_.find(key);
            if (in_flight != pending_write_keys_.end() &&
                --in_flight->second == 0) {
                pending_write_keys_.erase(in_flight);
            }
        }
    }
    ++stats_.completed_votes;

    const sim::NodeId client = pending.client;
    const std::uint64_t conn_slot = pending.conn_slot;
    Bytes result = std::move(reply.result);
    pending_votes_.erase(it);
    actions.completed_votes.push_back(reply.request_id.number);

    if (release_plan != nullptr) {
        collect_releases(client, conn_slot, std::move(result), *release_plan);
    } else {
        release_reply(crypto, actions, client, conn_slot, std::move(result));
    }
}

void TroxyEnclave::collect_releases(sim::NodeId client,
                                    std::uint64_t conn_slot, Bytes app_reply,
                                    ReleasePlan& plan) {
    const auto conn = connections_.find(client);
    if (conn == connections_.end()) return;  // client went away
    Connection& connection = conn->second;

    connection.ready.emplace(conn_slot, std::move(app_reply));

    // Same strict per-connection release order as release_reply, but the
    // plaintexts accumulate for one coalesced seal at end of transition.
    std::vector<Bytes>& out = plan[client];
    while (true) {
        const auto next = connection.ready.find(connection.next_release);
        if (next == connection.ready.end()) break;
        out.push_back(std::move(next->second));
        connection.ready.erase(next);
        ++connection.next_release;
    }
}

void TroxyEnclave::flush_releases(enclave::CostedCrypto& crypto,
                                  TroxyActions& actions, ReleasePlan& plan) {
    for (auto& [client, plaintexts] : plan) {
        if (plaintexts.empty()) continue;
        const auto conn = connections_.find(client);
        if (conn == connections_.end()) continue;

        std::size_t total = 0;
        std::vector<ByteView> views;
        views.reserve(plaintexts.size());
        for (const Bytes& p : plaintexts) {
            total += p.size();
            views.emplace_back(p);
        }
        // ONE AEAD pass over the whole burst for this connection: the
        // per-record base cost is paid once instead of once per reply.
        // Gather encoding builds envelope ‖ frame header ‖ sealed record
        // in one buffer.
        crypto.charge(profile_.aead(total));
        Writer frame;
        frame.u8(static_cast<std::uint8_t>(net::Channel::Client));
        frame.u8(static_cast<std::uint8_t>(net::ClientFrame::Record));
        conn->second.channel.protect_many_into(frame, views);
        actions.sends.emplace_back(client, std::move(frame).take());
    }
}

void TroxyEnclave::release_reply(enclave::CostedCrypto& crypto,
                                 TroxyActions& actions, sim::NodeId client,
                                 std::uint64_t conn_slot, Bytes app_reply) {
    const auto conn = connections_.find(client);
    if (conn == connections_.end()) return;  // client went away
    Connection& connection = conn->second;

    connection.ready.emplace(conn_slot, std::move(app_reply));

    // Release strictly in per-connection order (TLS stream semantics).
    while (true) {
        const auto next = connection.ready.find(connection.next_release);
        if (next == connection.ready.end()) break;
        crypto.charge(profile_.aead(next->second.size()));
        Writer frame;
        frame.u8(static_cast<std::uint8_t>(net::Channel::Client));
        frame.u8(static_cast<std::uint8_t>(net::ClientFrame::Record));
        connection.channel.protect_many_into(
            frame, {ByteView(next->second)});
        actions.sends.emplace_back(client, std::move(frame).take());
        connection.ready.erase(next);
        ++connection.next_release;
    }
}

// ------------------------------------------------- reply authentication

enclave::Certificate TroxyEnclave::certify_executed_reply(
    enclave::CostedCrypto& crypto, const hybster::Request& request,
    const hybster::Reply& reply, bool first_in_batch,
    std::set<std::string>* invalidated) {
    const hybster::RequestInfo info = classifier_(request.payload);
    gate_.touch(crypto.meter(), reply.result.size());

    // Invalidate *before* the certificate exists: without the certificate
    // the reply cannot influence any voter, so no client can observe the
    // write while any quorum cache still holds the overwritten entry.
    // Within one batched transition each distinct key drops once (the
    // per-transition set dedups repeat writers).
    if (!info.is_read) {
        invalidate_write_set(info.state_key, info.extra_keys, invalidated);
    } else if (reply.kind == hybster::Reply::Kind::Ordered) {
        CacheEntry entry;
        entry.request_digest = crypto.hash(request.payload);
        entry.result = reply.result;
        entry.result_digest = crypto.hash(entry.result);
        cache_.put(info.state_key, std::move(entry));
        // Re-arm the key: a later write in the same batch must
        // invalidate this fresh entry again.
        if (invalidated != nullptr) invalidated->erase(info.state_key);
        invalidated_unrecached_.erase(info.state_key);
    }

    return trinx_->certify_independent_batched(
        crypto, reply.certified_view(scratch_), first_in_batch);
}

void TroxyEnclave::invalidate_write_set(
    const std::string& state_key, const std::vector<std::string>& extra_keys,
    std::set<std::string>* invalidated) {
    for (std::size_t k = 0; k <= extra_keys.size(); ++k) {
        const std::string& key = k == 0 ? state_key : extra_keys[k - 1];
        if (invalidated != nullptr && !invalidated->insert(key).second) {
            ++stats_.invalidations_saved;
            continue;
        }
        // Cross-batch dedup: a key invalidated earlier and never
        // re-cached since cannot be in the cache, so there is nothing to
        // drop.
        if (!invalidated_unrecached_.insert(key).second) {
            ++stats_.invalidations_saved_cross_batch;
            continue;
        }
        cache_.invalidate(key);
        ++stats_.cache_invalidations;
    }
}

bool TroxyEnclave::has_pending_write(
    const hybster::RequestInfo& info) const {
    if (pending_write_keys_.contains(info.state_key)) return true;
    for (const std::string& key : info.extra_keys) {
        if (pending_write_keys_.contains(key)) return true;
    }
    return false;
}

enclave::Certificate TroxyEnclave::authenticate_reply(
    enclave::CostMeter& meter, const hybster::Request& request,
    const hybster::Reply& reply) {
    gate_.ecall(meter, "authenticate_reply",
                request.payload.size() + reply.result.size() + 128,
                sizeof(enclave::Certificate));
    enclave::CostedCrypto crypto(profile_, meter);
    std::set<std::string> invalidated;
    return certify_executed_reply(crypto, request, reply,
                                  /*first_in_batch=*/true, &invalidated);
}

std::vector<enclave::Certificate> TroxyEnclave::authenticate_replies(
    enclave::CostMeter& meter, const std::vector<ReplyAuth>& batch) {
    std::size_t in_bytes = 0;
    for (const ReplyAuth& item : batch) {
        in_bytes +=
            item.request->payload.size() + item.reply->result.size() + 128;
    }
    gate_.ecall(meter, "authenticate_replies", in_bytes,
                batch.size() * sizeof(enclave::Certificate));
    enclave::CostedCrypto crypto(profile_, meter);

    ++stats_.reply_auth_batches;
    stats_.batch_authenticated_replies += batch.size();

    // All certificates come from this Troxy's own trusted subsystem, so
    // the whole batch shares one running MAC: only the first reply pays
    // the MAC setup.
    // One invalidation set for the whole executed batch: a write burst
    // under few distinct keys drops each key once instead of per reply.
    std::set<std::string> invalidated;
    std::vector<enclave::Certificate> certs;
    certs.reserve(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
        certs.push_back(certify_executed_reply(crypto, *batch[i].request,
                                               *batch[i].reply, i == 0,
                                               &invalidated));
    }
    return certs;
}

// -------------------------------------------------------------- fast read

void TroxyEnclave::start_fast_read(enclave::CostedCrypto& crypto,
                                   TroxyActions& actions, sim::NodeId client,
                                   std::uint64_t conn_slot,
                                   const hybster::RequestInfo& info,
                                   ByteView app_request,
                                   const CacheEntry& entry) {
    const std::uint64_t query_id = next_query_id_++;

    PendingFastRead fast;
    fast.client = client;
    fast.conn_slot = conn_slot;
    fast.state_key = info.state_key;
    fast.local = entry;
    fast.app_request.assign(app_request.begin(), app_request.end());

    // Choose f random remote Troxies (Fig. 4 line 24; randomness defends
    // against a faulty replica that always answers stale, §VI-B).
    std::vector<std::uint32_t> candidates;
    for (std::uint32_t r = 0; r < static_cast<std::uint32_t>(config_.n());
         ++r) {
        if (r != replica_id_) candidates.push_back(r);
    }
    for (int i = 0; i < config_.f; ++i) {
        const std::size_t pick =
            static_cast<std::size_t>(rng_.next_below(candidates.size() - i));
        std::swap(candidates[pick], candidates[candidates.size() - 1 - i]);
        fast.awaiting.insert(candidates[candidates.size() - 1 - i]);
    }

    CacheQuery query;
    query.requester = host_node_;
    query.query_id = query_id;
    query.state_key = info.state_key;
    query.request_digest = entry.request_digest;
    query.cert =
        trinx_->certify_independent(crypto, query.certified_view(scratch_));

    // Surfaced structured, not encoded: the untrusted host may buffer
    // concurrent queries to the same remote and ship them as one
    // CacheQueryBatch (the certificate already binds the content).
    for (const std::uint32_t r : fast.awaiting) {
        actions.cache_queries.emplace_back(config_.node_of(r), query);
    }

    fast_reads_.emplace(query_id, std::move(fast));
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

TroxyActions TroxyEnclave::handle_cache_query(enclave::CostMeter& meter,
                                              const CacheQuery& query) {
    gate_.ecall(meter, "handle_cache_query", query.wire_size(),
                CacheResponse::wire_size());
    enclave::CostedCrypto crypto(profile_, meter);
    TroxyActions actions;

    auto response =
        answer_cache_query(crypto, query, /*first_from_source=*/true);
    if (!response) return actions;

    actions.sends.emplace_back(
        query.requester, encode_cache_frame(CacheMessage(*response)));
    return actions;
}

TroxyActions TroxyEnclave::handle_cache_queries(
    enclave::CostMeter& meter, const std::vector<CacheQuery>& queries) {
    std::size_t in_bytes = 2;
    for (const CacheQuery& query : queries) in_bytes += query.wire_size();
    gate_.ecall(meter, "handle_cache_queries", in_bytes,
                2 + queries.size() * CacheResponse::wire_size());
    enclave::CostedCrypto crypto(profile_, meter);
    TroxyActions actions;

    ++stats_.cache_query_batches;
    stats_.batched_cache_queries += queries.size();

    // Per-source running MAC over the requester certificates; every query
    // is still verified individually (a bad one drops only itself).
    // Answers to the same requester leave as one CacheResponseBatch.
    std::set<std::uint32_t> sources_seen;
    std::map<sim::NodeId, std::vector<CacheResponse>> per_requester;
    for (const CacheQuery& query : queries) {
        const int requester = config_.replica_of(query.requester);
        const bool first =
            requester < 0 ||
            sources_seen.insert(static_cast<std::uint32_t>(requester)).second;
        auto response = answer_cache_query(crypto, query, first);
        if (response) {
            per_requester[query.requester].push_back(std::move(*response));
        }
    }
    for (auto& [requester, responses] : per_requester) {
        const CacheMessage message =
            responses.size() == 1
                ? CacheMessage(std::move(responses.front()))
                : CacheMessage(CacheResponseBatch{std::move(responses)});
        actions.sends.emplace_back(requester, encode_cache_frame(message));
    }
    return actions;
}

void TroxyEnclave::ingest_cache_response(enclave::CostedCrypto& crypto,
                                         TroxyActions& actions,
                                         const CacheResponse& response,
                                         bool first_from_source,
                                         ReleasePlan* release_plan) {
    const auto it = fast_reads_.find(response.query_id);
    if (it == fast_reads_.end()) return;
    PendingFastRead& fast = it->second;

    const int responder = config_.replica_of(response.responder);
    if (responder < 0 ||
        response.responder_replica != static_cast<std::uint32_t>(responder) ||
        !fast.awaiting.contains(response.responder_replica)) {
        return;
    }
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

    fast.awaiting.erase(response.responder_replica);
    if (!fast.awaiting.empty()) return;

    // All f remote caches matched the local one: the fast read succeeds.
    ++stats_.fast_read_hits;
    monitor_.record(false);
    const sim::NodeId client = fast.client;
    const std::uint64_t conn_slot = fast.conn_slot;
    Bytes result = std::move(fast.local.result);
    fast_reads_.erase(it);
    actions.completed_fast_reads.push_back(response.query_id);
    if (release_plan != nullptr) {
        collect_releases(client, conn_slot, std::move(result), *release_plan);
    } else {
        release_reply(crypto, actions, client, conn_slot, std::move(result));
    }
}

TroxyActions TroxyEnclave::handle_cache_response(
    enclave::CostMeter& meter, const CacheResponse& response) {
    gate_.ecall(meter, "handle_cache_response", CacheResponse::wire_size(), 0);
    enclave::CostedCrypto crypto(profile_, meter);
    TroxyActions actions;
    ingest_cache_response(crypto, actions, response,
                          /*first_from_source=*/true,
                          /*release_plan=*/nullptr);
    return actions;
}

TroxyActions TroxyEnclave::handle_cache_responses(
    enclave::CostMeter& meter, const std::vector<CacheResponse>& responses) {
    gate_.ecall(meter, "handle_cache_responses",
                2 + responses.size() * CacheResponse::wire_size(), 0);
    enclave::CostedCrypto crypto(profile_, meter);
    TroxyActions actions;

    ++stats_.cache_response_batches;
    stats_.batched_cache_responses += responses.size();

    // Per-source running MAC over the responder certificates; a Byzantine
    // response in the burst rejects (or falls back) only its own query.
    // All client replies completed by this burst seal into one coalesced
    // record per connection.
    std::set<std::uint32_t> sources_seen;
    ReleasePlan plan;
    for (const CacheResponse& response : responses) {
        const bool first =
            sources_seen.insert(response.responder_replica).second;
        ingest_cache_response(crypto, actions, response, first, &plan);
    }
    flush_releases(crypto, actions, plan);
    // A conflicted burst falls back together: two or more fallbacks from
    // one transition enter the ordering pipeline as ONE pre-formed batch
    // (one Prepare/Commit round) instead of request by request. A single
    // fallback keeps the to_order path, byte-identical to the unbatched
    // handle_cache_response flow.
    if (actions.to_order.size() > 1) {
        ++stats_.fallback_prebatches;
        stats_.prebatched_fallbacks += actions.to_order.size();
        actions.to_order_batch = std::move(actions.to_order);
        actions.to_order.clear();
    }
    return actions;
}

void TroxyEnclave::fast_read_fallback(enclave::CostedCrypto& crypto,
                                      TroxyActions& actions,
                                      std::uint64_t query_id) {
    const auto it = fast_reads_.find(query_id);
    if (it == fast_reads_.end()) return;
    PendingFastRead fast = std::move(it->second);
    fast_reads_.erase(it);

    const hybster::RequestInfo info = classifier_(fast.app_request);
    merge_actions(actions, order_request(crypto, fast.client, fast.conn_slot,
                                         info, fast.app_request));
    actions.completed_fast_reads.push_back(query_id);
}

TroxyActions TroxyEnclave::fast_read_timeout(enclave::CostMeter& meter,
                                             std::uint64_t query_id) {
    gate_.ecall(meter, "fast_read_timeout", 8, 0);
    enclave::CostedCrypto crypto(profile_, meter);
    TroxyActions actions;
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
    TroxyActions actions;

    const auto it = pending_votes_.find(request_number);
    if (it == pending_votes_.end()) return actions;

    // Rebroadcast to every replica: followers forward to the leader and
    // start their progress timers, eventually forcing a view change.
    const Bytes wire =
        hybster::encode_frame(net::Channel::Hybster, it->second.request);
    for (std::uint32_t r = 0; r < static_cast<std::uint32_t>(config_.n());
         ++r) {
        if (r == replica_id_) continue;
        actions.sends.emplace_back(config_.node_of(r), wire);
    }
    actions.to_order.push_back(it->second.request);
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
    for (const auto& [client, connection] : connections_) {
        s.stuck_replies += connection.ready.size();
    }
    return s;
}

void TroxyEnclave::restart() {
    cache_.clear();
    connections_.clear();
    pending_votes_.clear();
    fast_reads_.clear();
    // The votes backing these in-flight markers are gone; a leaked entry
    // would gate fast reads on its key forever.
    pending_write_keys_.clear();
    // The cache is empty, so no key is "invalidated but maybe cached".
    invalidated_unrecached_.clear();
}

}  // namespace troxy::troxy_core

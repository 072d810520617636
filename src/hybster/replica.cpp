#include "hybster/replica.hpp"

#include <algorithm>

#include "common/log.hpp"
#include "hybster/exec_schedule.hpp"

namespace troxy::hybster {

namespace {
constexpr std::uint8_t kFlagNoop = Request::kFlagNoop;

bool digests_equal(const crypto::Sha256Digest& a,
                   const crypto::Sha256Digest& b) noexcept {
    return constant_time_equal(a, b);
}

/// Map key for the durable chunk store (leaf hash as bytes).
Bytes store_key(const crypto::Sha256Digest& d) {
    return Bytes(d.begin(), d.end());
}

/// Bound on the have-chunks list a StateRequest advertises: enough for
/// snapshots far beyond anything the sim runs, while keeping a
/// pathological store from inflating the request past the wire cap.
constexpr std::size_t kMaxAdvertisedChunks = 8192;
}  // namespace

Replica::Replica(net::Fabric& fabric, sim::Node& node, Config config,
                 std::uint32_t replica_id, ServicePtr service,
                 std::shared_ptr<enclave::TrinX> trinx,
                 const sim::CostProfile& profile, Hooks hooks)
    : fabric_(fabric),
      node_(node),
      config_(std::move(config)),
      id_(replica_id),
      service_(std::move(service)),
      trinx_(std::move(trinx)),
      profile_(profile),
      hooks_(std::move(hooks)) {
    config_.validate();
    TROXY_ASSERT(service_ != nullptr, "replica needs a service");
    TROXY_ASSERT(trinx_ != nullptr, "replica needs a trusted subsystem");
}

enclave::CounterId Replica::prepare_counter_id() const {
    return static_cast<enclave::CounterId>(2 * view_);
}

enclave::CounterId Replica::commit_counter_id() const {
    return static_cast<enclave::CounterId>(2 * view_ + 1);
}

CounterValue Replica::expected_counter(SequenceNumber seq) const {
    return seq - view_start_ + 1;
}

template <typename T>
void Replica::broadcast(net::Outbox& outbox, const T& message) {
    // The message is encoded once, straight into a recycled wire buffer
    // behind the envelope byte. Each destination needs its own frame (the
    // Outbox consumes buffers): the others get pooled copies, the last
    // peer in id order takes the encoded frame itself.
    const auto n = static_cast<std::uint32_t>(config_.n());
    if (n == 1) return;  // a lone replica has no peers
    sim::BufferPool& pool = outbox.fabric().network().pool();
    Bytes frame = encode_frame(net::Channel::Hybster, message, &pool);
    const std::uint32_t last = id_ == n - 1 ? n - 2 : n - 1;
    for (std::uint32_t r = 0; r < last; ++r) {
        if (r == id_) continue;
        Bytes copy = pool.acquire_empty(frame.size());
        copy.assign(frame.begin(), frame.end());
        outbox.send(config_.node_of(r), std::move(copy));
    }
    outbox.send(config_.node_of(last), std::move(frame));
}

template <typename T>
void Replica::send_to(net::Outbox& outbox, std::uint32_t replica,
                      const T& message) {
    sim::BufferPool& pool = outbox.fabric().network().pool();
    outbox.send(config_.node_of(replica),
                encode_frame(net::Channel::Hybster, message, &pool));
}

void Replica::on_message(sim::NodeId from, ByteView payload) {
    if (faults_.crashed) return;

    enclave::CostMeter meter;
    enclave::CostedCrypto crypto(profile_, meter);
    net::Outbox outbox = make_outbox();
    crypto.charge_dispatch();

    auto decoded = decode_message(payload);
    if (!decoded) {
        outbox.flush(meter);  // charge the wasted parse work
        return;
    }

    // A rejoining replica has no state it can safely act on: until the
    // snapshot is installed, only state-transfer traffic is processed.
    if (rejoining_) {
        if (auto* response = std::get_if<StateResponse>(&*decoded)) {
            handle_state_response(crypto, outbox, std::move(*response));
        }
        outbox.flush(meter);
        return;
    }

    std::visit(
        [&](auto&& msg) {
            using T = std::decay_t<decltype(msg)>;
            if constexpr (std::is_same_v<T, Request>) {
                handle_request(crypto, outbox, std::move(msg));
            } else if constexpr (std::is_same_v<T, Prepare>) {
                handle_prepare(crypto, outbox, std::move(msg));
            } else if constexpr (std::is_same_v<T, Commit>) {
                handle_commit(crypto, outbox, std::move(msg));
            } else if constexpr (std::is_same_v<T, CheckpointMsg>) {
                handle_checkpoint(crypto, outbox, std::move(msg));
            } else if constexpr (std::is_same_v<T, ViewChange>) {
                handle_view_change(crypto, outbox, std::move(msg));
            } else if constexpr (std::is_same_v<T, NewView>) {
                handle_new_view(crypto, outbox, std::move(msg));
            } else if constexpr (std::is_same_v<T, StateRequest>) {
                handle_state_request(crypto, outbox, std::move(msg));
            } else if constexpr (std::is_same_v<T, StateResponse>) {
                handle_state_response(crypto, outbox, std::move(msg));
            }
            // Reply messages are never addressed to a replica.
        },
        std::move(*decoded));
    (void)from;

    outbox.flush(meter);
}

void Replica::submit(const Request& request) {
    if (faults_.crashed || rejoining_) return;
    enclave::CostMeter meter;
    enclave::CostedCrypto crypto(profile_, meter);
    net::Outbox outbox = make_outbox();
    handle_request(crypto, outbox, Request(request));
    outbox.flush(meter);
}

void Replica::submit_all(std::vector<Request> requests) {
    if (faults_.crashed || rejoining_ || requests.empty()) return;
    enclave::CostMeter meter;
    enclave::CostedCrypto crypto(profile_, meter);
    net::Outbox outbox = make_outbox();
    for (Request& request : requests) {
        handle_request(crypto, outbox, std::move(request));
    }
    outbox.flush(meter);
}

void Replica::submit_prebatched(std::vector<Request> requests) {
    if (faults_.crashed || rejoining_ || requests.empty()) return;
    enclave::CostMeter meter;
    enclave::CostedCrypto crypto(profile_, meter);
    net::Outbox outbox = make_outbox();
    ++exec_stats_.prebatched_submits;
    prebatching_ = true;
    for (Request& request : requests) {
        handle_request(crypto, outbox, std::move(request));
    }
    prebatching_ = false;
    // Cut whatever the burst accumulated as one batch, regardless of the
    // adaptive boundary or the delay timer: the burst already waited
    // once (for its cache responses) and arrives pre-formed.
    if (is_leader() && !in_view_change_ && !pending_batch_.empty()) {
        cut_batch(crypto, outbox);
    }
    outbox.flush(meter);
}

void Replica::execute_optimistic_read(const Request& request) {
    if (faults_.crashed || rejoining_) return;
    enclave::CostMeter meter;
    enclave::CostedCrypto crypto(profile_, meter);
    net::Outbox outbox = make_outbox();

    if (!hooks_.verify_request ||
        !hooks_.verify_request(crypto, request)) {
        outbox.flush(meter);
        return;
    }

    // Execute against the *current* state without ordering; the client
    // accepts the result only if f+1 replicas agree (PBFT-like read
    // optimization), retrying as an ordered request on conflict.
    //
    // The execution is deferred to the read's processing-completion time:
    // the read samples whatever state the replica has reached by then.
    // Replicas under different load sample at different points, which is
    // precisely what makes optimistic reads conflict with concurrent
    // writes (§VI-C3).
    outbox.defer([this, request]() {
        enclave::CostMeter exec_meter;
        enclave::CostedCrypto exec_crypto(profile_, exec_meter);
        net::Outbox exec_outbox = make_outbox();

        exec_meter.add(service_->execution_cost(request.payload));
        Bytes result = service_->execute(request.payload);

        Reply reply;
        reply.kind = Reply::Kind::Optimistic;
        reply.view = view_;
        reply.seq = last_executed_;
        reply.request_id = request.id;
        reply.request_digest = request.digest_with(exec_crypto, scratch_);
        reply.result = std::move(result);
        reply.replica = id_;

        if (!faults_.drop_replies && hooks_.deliver_reply) {
            hooks_.deliver_reply(exec_crypto, exec_outbox, request,
                                 std::move(reply));
        }
        exec_outbox.flush(exec_meter);
    });
    outbox.flush(meter);
}

void Replica::handle_request(enclave::CostedCrypto& crypto,
                             net::Outbox& outbox, Request&& request) {
    if (request.is_optimistic()) {
        execute_optimistic_read(request);
        return;
    }

    if (!hooks_.verify_request ||
        !hooks_.verify_request(crypto, request)) {
        return;  // unauthenticated request: discard
    }

    // Retransmission of an executed request: resend the stored reply.
    auto& record = clients_[request.id.client];
    if (record.last_reply && record.last_reply->request_id == request.id) {
        if (!faults_.drop_replies && hooks_.deliver_reply) {
            hooks_.deliver_reply(crypto, outbox, *record.last_request,
                                 Reply(*record.last_reply));
        }
        return;
    }

    if (!is_leader()) {
        // Follower: forward to the leader (Fig. 5c) and watch progress.
        forwarded_.emplace(request.id, request);
        send_to(outbox, config_.leader_of(view_), request);
        arm_progress_timer();
        return;
    }

    if (in_view_change_) return;  // ordering paused

    enqueue_for_batch(crypto, outbox, request);
}

bool Replica::request_in_flight(const RequestId& id) const {
    return in_flight_.contains(id);
}

void Replica::rebuild_in_flight() {
    in_flight_.clear();
    for (const Request& pending : pending_batch_) {
        in_flight_.insert(pending.id);
    }
    for (const auto& [seq, entry] : log_) {
        if (!entry.prepare || entry.executed) continue;
        for (const Request& member : entry.prepare->batch.requests) {
            in_flight_.insert(member.id);
        }
    }
}

void Replica::enqueue_for_batch(enclave::CostedCrypto& crypto,
                                net::Outbox& outbox, const Request& request) {
    // Suppress re-ordering of a request already in flight (pending batch
    // or unexecuted log entry).
    if (request_in_flight(request.id)) return;

    pending_batch_.push_back(request);
    in_flight_.insert(request.id);
    if (prebatching_) {
        // A pre-formed burst accumulates into one batch; only the wire
        // maximum forces a split. submit_prebatched cuts the remainder.
        if (pending_batch_.size() >= config_.batch_size_max) {
            cut_batch(crypto, outbox);
        }
        return;
    }
    // The adaptive controller tracks served load (requests per delay
    // window, fed at cut time) and shrinks the cut boundary under light
    // load: an idle system cuts immediately (single-request latency), a
    // saturated one opens up to the configured maximum.
    std::size_t boundary = config_.batch_size_max;
    if (config_.adaptive_batching) {
        boundary = batch_controller_.effective(config_.batch_size_max);
    }
    if (pending_batch_.size() >= boundary || config_.batch_delay == 0) {
        cut_batch(crypto, outbox);
    } else {
        arm_batch_timer();
        // A pending batch is pending work: keep the progress timer armed
        // so a leader that loses its batch timer is still suspected.
        arm_progress_timer();
    }
}

void Replica::cut_batch(enclave::CostedCrypto& crypto, net::Outbox& outbox) {
    if (pending_batch_.empty()) return;
    ++batch_timer_generation_;  // cancel any armed delay timer
    batch_timer_armed_ = false;
    ++exec_stats_.batches_cut;

    Prepare prepare;
    prepare.view = view_;
    prepare.seq = next_seq_++;
    prepare.replica = id_;
    prepare.batch.requests = std::move(pending_batch_);
    pending_batch_.clear();
    if (config_.adaptive_batching) {
        batch_controller_.record_served(prepare.batch.requests.size(),
                                        fabric_.simulator().now(),
                                        config_.batch_delay);
    }
    // Member digests and the batch digest are computed (and charged) once
    // here; followers and the execution path reuse the cached values.
    (void)prepare.batch.digest_with(crypto, scratch_);

    const auto certified = trinx_->certify_continuing(
        crypto, prepare_counter_id(), prepare.certified_view());
    prepare.counter_value = certified.value;
    prepare.cert = certified.certificate;
    TROXY_ASSERT(prepare.counter_value == expected_counter(prepare.seq),
                 "leader counter out of sync with sequence numbers");

    auto& entry = log_[prepare.seq];
    entry.prepare = std::move(prepare);

    if (!faults_.mute_agreement) {
        broadcast(outbox, *entry.prepare);
    }
    arm_progress_timer();
    try_execute(crypto, outbox);
}

void Replica::arm_batch_timer() {
    if (batch_timer_armed_ || faults_.crashed || rejoining_) return;
    batch_timer_armed_ = true;
    const std::uint64_t generation = ++batch_timer_generation_;

    fabric_.simulator().after(config_.batch_delay, [this, generation]() {
        if (generation != batch_timer_generation_) return;
        batch_timer_armed_ = false;
        if (faults_.crashed || rejoining_ || in_view_change_) return;
        if (!is_leader()) return;  // lost leadership while the batch waited

        enclave::CostMeter meter;
        enclave::CostedCrypto crypto(profile_, meter);
        net::Outbox outbox = make_outbox();
        cut_batch(crypto, outbox);
        outbox.flush(meter);
    });
}

void Replica::stash_pending_batch() {
    ++batch_timer_generation_;  // cancel any armed delay timer
    batch_timer_armed_ = false;
    // Fold the uncut batch back into the forwarded set: after the view
    // change these requests are re-proposed by the new leader (us or a
    // peer) via reissue_forwarded(), exactly like requests that died with
    // the old leader.
    for (Request& request : pending_batch_) {
        in_flight_.erase(request.id);
        forwarded_.emplace(request.id, std::move(request));
    }
    pending_batch_.clear();
}

void Replica::handle_prepare(enclave::CostedCrypto& crypto,
                             net::Outbox& outbox, Prepare&& prepare) {
    if (prepare.view != view_ || in_view_change_) return;
    if (prepare.replica != config_.leader_of(view_)) return;
    if (prepare.seq <= last_stable_) return;  // garbage-collected slot
    if (prepare.counter_value != expected_counter(prepare.seq)) return;

    if (prepare.batch.empty()) return;  // a batch orders at least one request

    // Member digests are computed and charged once here; the certificate
    // check, the COMMIT below and the execution path all reuse the
    // memoized values.
    const crypto::Sha256Digest batch_digest =
        prepare.batch.digest_with(crypto, scratch_);
    if (!trinx_->verify_continuing(crypto, prepare.replica,
                                   prepare_counter_id(),
                                   prepare.counter_value,
                                   prepare.certified_view(), prepare.cert)) {
        return;
    }
    // Validate every embedded client request as well: a Byzantine leader
    // must not be able to inject unauthenticated requests into a batch.
    for (const Request& member : prepare.batch.requests) {
        if (member.flags & kFlagNoop) continue;
        if (!hooks_.verify_request ||
            !hooks_.verify_request(crypto, member)) {
            return;
        }
    }

    auto& entry = log_[prepare.seq];
    if (entry.prepare) return;  // duplicate

    // Certify and broadcast our COMMIT over the batch structure
    // (member count + digest, same pair the PREPARE certified).
    Commit commit;
    commit.view = view_;
    commit.seq = prepare.seq;
    commit.replica = id_;
    commit.batch_size = static_cast<std::uint32_t>(prepare.batch.size());
    commit.batch_digest = batch_digest;
    entry.prepare = std::move(prepare);
    for (const Request& member : entry.prepare->batch.requests) {
        in_flight_.insert(member.id);
    }
    const auto certified = trinx_->certify_continuing(
        crypto, commit_counter_id(), commit.certified_view());
    commit.counter_value = certified.value;
    commit.cert = certified.certificate;

    entry.commits[id_] = commit;
    if (!faults_.mute_agreement) {
        broadcast(outbox, commit);
    }
    arm_progress_timer();
    try_execute(crypto, outbox);
}

void Replica::handle_commit(enclave::CostedCrypto& crypto,
                            net::Outbox& outbox, Commit&& commit) {
    if (commit.view != view_ || in_view_change_) return;
    if (commit.seq <= last_stable_) return;
    if (commit.replica >= static_cast<std::uint32_t>(config_.n())) return;
    if (commit.counter_value != expected_counter(commit.seq)) return;
    if (commit.batch_size == 0) return;  // a batch has at least one member

    if (!trinx_->verify_continuing(crypto, commit.replica,
                                   commit_counter_id(), commit.counter_value,
                                   commit.certified_view(), commit.cert)) {
        return;
    }

    auto& entry = log_[commit.seq];
    entry.commits.emplace(commit.replica, std::move(commit));
    try_execute(crypto, outbox);
}

bool Replica::committed(const LogEntry& entry) const {
    if (!entry.prepare) return false;
    // Memoized: warm whenever the prepare was installed by cut_batch() or
    // handle_prepare(), so this costs nothing on the hot path.
    const crypto::Sha256Digest& digest = entry.prepare->batch.digest();
    const auto batch_size =
        static_cast<std::uint32_t>(entry.prepare->batch.size());
    // Vouchers: the leader via its PREPARE plus every replica with a
    // matching certified COMMIT (our own included once we created it).
    // A match requires the full certified batch structure — member count
    // AND digest — mirroring what the trusted counter certified.
    int vouchers = 1;
    for (const auto& [replica, commit] : entry.commits) {
        if (replica == entry.prepare->replica) continue;
        if (commit.batch_size == batch_size &&
            digests_equal(commit.batch_digest, digest)) {
            ++vouchers;
        }
    }
    return vouchers >= config_.quorum();
}

void Replica::try_execute(enclave::CostedCrypto& crypto,
                          net::Outbox& outbox) {
    for (;;) {
        const SequenceNumber next = last_executed_ + 1;
        const auto it = log_.find(next);
        if (it == log_.end() || it->second.executed ||
            !committed(it->second)) {
            break;
        }
        execute_entry(crypto, outbox, next, it->second);
    }
}

void Replica::execute_entry(enclave::CostedCrypto& crypto,
                            net::Outbox& outbox, SequenceNumber seq,
                            LogEntry& entry) {
    entry.executed = true;
    last_executed_ = seq;

    // Execute the batch member by member, in batch order; every member
    // gets its own REPLY (all carrying the batch's sequence number).
    // With the batched hook the replies accumulate and are delivered in
    // one call after the loop — a Troxy host certifies the whole executed
    // batch in a single enclave transition.
    //
    // Conflict-aware lanes: with execution_lanes > 1 the batch's CPU
    // time is the makespan of the greedy conflict-class schedule,
    // charged once up front instead of member by member. The execute()
    // calls below still run in strict batch order at every lane count —
    // the plan is a pure function of the batch contents, and lanes only
    // change *time*, never results — so replies and checkpoints stay
    // byte-identical across lane counts. One lane keeps the per-member
    // charge: the exact serial seed flow.
    const bool lane_scheduled = config_.execution_lanes > 1;
    if (lane_scheduled) {
        const ExecPlan plan = plan_execution(entry.prepare->batch,
                                             *service_,
                                             config_.execution_lanes);
        crypto.charge(plan.makespan);
        ++exec_stats_.scheduled_batches;
        exec_stats_.scheduled_requests +=
            plan.conflict_classes + plan.conflict_stalls;
        exec_stats_.conflict_stalls += plan.conflict_stalls;
        exec_stats_.lanes_used_sum += plan.lanes_used;
        exec_stats_.serial_cost += plan.serial;
        exec_stats_.charged_cost += plan.makespan;
    }
    std::vector<Hooks::ExecutedReply> executed;
    for (const Request& request : entry.prepare->batch.requests) {
        forwarded_.erase(request.id);
        in_flight_.erase(request.id);
        ++executed_since_checkpoint_;
        if (request.flags & kFlagNoop) continue;

        if (!lane_scheduled) {
            crypto.charge(service_->execution_cost(request.payload));
        }
        Bytes result = service_->execute(request.payload);

        Reply reply;
        reply.kind = Reply::Kind::Ordered;
        reply.view = view_;
        reply.seq = seq;
        reply.request_id = request.id;
        reply.request_digest = request.digest_with(crypto, scratch_);
        reply.result = std::move(result);
        reply.replica = id_;

        auto& record = clients_[request.id.client];
        record.last_number = request.id.number;
        record.last_request = request;
        record.last_reply = reply;

        if (!faults_.drop_replies &&
            (hooks_.deliver_replies || hooks_.deliver_reply)) {
            if (faults_.corrupt_replies && !reply.result.empty()) {
                // Corruption happens in the untrusted part *after* the
                // trusted subsystem authenticated the reply — the hook
                // certifies first, so we corrupt inside a copy delivered
                // through a corrupting wrapper. Here we flip a byte before
                // certification to model a replica lying about the result;
                // the voter masks it because f+1 matching replies are
                // still required.
                reply.result[0] ^= 0xff;
            }
            if (hooks_.deliver_replies) {
                executed.push_back(
                    Hooks::ExecutedReply{&request, std::move(reply)});
            } else {
                hooks_.deliver_reply(crypto, outbox, request,
                                     std::move(reply));
            }
        }
    }
    if (!executed.empty()) {
        hooks_.deliver_replies(crypto, outbox, std::move(executed));
    }

    maybe_checkpoint(crypto, outbox);
    arm_progress_timer();
}

void Replica::maybe_checkpoint(enclave::CostedCrypto& crypto,
                               net::Outbox& outbox) {
    // The interval counts executed requests (batch members), so a batch
    // never delays nor splits a checkpoint: when the threshold is crossed
    // mid-batch the checkpoint lands at the batch's sequence number, after
    // the whole batch executed. All replicas execute identical batches in
    // identical order, so they checkpoint at identical sequence numbers.
    if (executed_since_checkpoint_ < config_.checkpoint_interval) return;
    executed_since_checkpoint_ = 0;
    const SequenceNumber seq = last_executed_;
    Bytes snapshot = service_->checkpoint();
    // The certified digest IS the Merkle root over the snapshot's chunks,
    // which is what lets state transfer ship the checkpoint incrementally
    // under the same certificate chain.
    ChunkedSnapshot chunked =
        chunk_snapshot(crypto, snapshot, config_.state_chunk_size);
    CheckpointMsg cp;
    cp.seq = seq;
    cp.state_digest = chunked.root;
    cp.replica = id_;
    cp.cert = trinx_->certify_independent(crypto, cp.certified_view());

    own_checkpoints_[seq] = std::move(snapshot);
    own_chunks_[seq] = std::move(chunked);

    const Bytes digest_key(cp.state_digest.begin(), cp.state_digest.end());
    auto& votes = checkpoint_votes_[seq][digest_key];
    votes.emplace(id_, cp);

    broadcast(outbox, cp);

    // f+1 votes might already be present (we could be last to checkpoint).
    if (static_cast<int>(votes.size()) >= config_.quorum()) {
        if (seq > last_stable_) {
            last_stable_ = seq;
            stable_proof_.clear();
            for (const auto& [replica, vote] : votes) {
                stable_proof_.push_back(vote);
            }
            log_.erase(log_.begin(), log_.upper_bound(seq));
            checkpoint_votes_.erase(checkpoint_votes_.begin(),
                                    checkpoint_votes_.upper_bound(seq - 1));
            // Keep only the newest own snapshot.
            while (own_checkpoints_.size() > 1) {
                own_checkpoints_.erase(own_checkpoints_.begin());
            }
            while (own_chunks_.size() > 1) {
                own_chunks_.erase(own_chunks_.begin());
            }
            rebuild_chunk_store(own_chunks_.at(seq));
        }
    }
}

void Replica::handle_checkpoint(enclave::CostedCrypto& crypto,
                                net::Outbox& outbox,
                                CheckpointMsg&& checkpoint) {
    if (checkpoint.seq <= last_stable_) return;
    if (checkpoint.replica >= static_cast<std::uint32_t>(config_.n())) {
        return;
    }
    if (!trinx_->verify_independent(crypto, checkpoint.replica,
                                    checkpoint.certified_view(),
                                    checkpoint.cert)) {
        return;
    }

    const SequenceNumber seq = checkpoint.seq;
    const Bytes digest_key(checkpoint.state_digest.begin(),
                           checkpoint.state_digest.end());
    auto& votes = checkpoint_votes_[seq][digest_key];
    votes.emplace(checkpoint.replica, std::move(checkpoint));

    // Stability requires f+1 matching checkpoints *including our own*
    // (we can only truncate state we have actually reached).
    if (static_cast<int>(votes.size()) >= config_.quorum() &&
        votes.contains(id_) && seq > last_stable_) {
        last_stable_ = seq;
        stable_proof_.clear();
        for (const auto& [replica, vote] : votes) {
            stable_proof_.push_back(vote);
        }
        log_.erase(log_.begin(), log_.upper_bound(seq));
        checkpoint_votes_.erase(checkpoint_votes_.begin(),
                                checkpoint_votes_.upper_bound(seq - 1));
        if (const auto it = own_chunks_.find(seq); it != own_chunks_.end()) {
            rebuild_chunk_store(it->second);
        }
        return;
    }

    // Lag detection: f+1 *others* vouch for a checkpoint beyond what we
    // have executed. The quorum has garbage-collected that prefix, so we
    // can no longer catch up through ordinary commits — fetch a snapshot.
    if (static_cast<int>(votes.size()) >= config_.quorum() &&
        !votes.contains(id_) && seq > last_executed_) {
        begin_state_transfer(crypto, outbox);
    }
}

void Replica::arm_progress_timer() {
    // Pending work exists if the log holds unexecuted entries, a client
    // request was forwarded, or a view change is in flight; one timer at a
    // time is enough.
    if (timer_armed_ || faults_.crashed || rejoining_) return;
    timer_armed_ = true;
    const SequenceNumber executed_at_arm = last_executed_;
    const ViewNumber view_at_arm = view_;
    const std::uint64_t generation = ++timer_generation_;

    fabric_.simulator().after(config_.view_change_timeout, [this,
                                                            executed_at_arm,
                                                            view_at_arm,
                                                            generation]() {
        if (generation != timer_generation_) return;
        timer_armed_ = false;
        if (faults_.crashed || rejoining_) return;
        if (view_ != view_at_arm) return;

        const bool pending =
            in_view_change_ || !forwarded_.empty() ||
            !pending_batch_.empty() ||
            std::any_of(log_.begin(), log_.end(), [](const auto& kv) {
                return !kv.second.executed;
            });
        if (!pending) return;

        if (last_executed_ == executed_at_arm) {
            // No progress for a full timeout: suspect the leader. If a
            // view change is already pending, the view change itself has
            // stalled (the prospective leader may have crashed as well) —
            // escalate past the highest view we already proposed.
            start_view_change(
                std::max(view_, highest_view_change_sent_) + 1);
        } else {
            arm_progress_timer();
        }
    });
}

void Replica::start_view_change(ViewNumber new_view) {
    if (new_view <= view_ || new_view <= highest_view_change_sent_) return;
    highest_view_change_sent_ = new_view;
    in_view_change_ = true;
    ++view_changes_;
    // An uncut batch must survive the view change: fold it back into the
    // forwarded set so it is re-proposed once the new view starts.
    stash_pending_batch();

    enclave::CostMeter meter;
    enclave::CostedCrypto crypto(profile_, meter);
    net::Outbox outbox = make_outbox();

    ViewChange vc;
    vc.new_view = new_view;
    vc.replica = id_;
    vc.last_stable = last_stable_;
    for (const auto& [seq, entry] : log_) {
        if (entry.prepare) vc.prepared.push_back(*entry.prepare);
    }
    vc.cert = trinx_->certify_independent(crypto, vc.certified_view());

    view_changes_rx_[new_view][id_] = vc;
    broadcast(outbox, vc);
    maybe_assemble_new_view(crypto, outbox, new_view);
    outbox.flush(meter);
    // Keep a timer running: if this view change stalls (lost messages,
    // crashed prospective leader), the timer escalates to the next view.
    arm_progress_timer();
}

void Replica::handle_view_change(enclave::CostedCrypto& crypto,
                                 net::Outbox& outbox,
                                 ViewChange&& view_change) {
    if (view_change.new_view <= view_) return;
    if (view_change.replica >= static_cast<std::uint32_t>(config_.n())) {
        return;
    }
    if (!trinx_->verify_independent(crypto, view_change.replica,
                                    view_change.certified_view(),
                                    view_change.cert)) {
        return;
    }

    const ViewNumber v = view_change.new_view;
    view_changes_rx_[v][view_change.replica] = std::move(view_change);

    // Join the view change (a certified VC proves someone suspects the
    // leader; with crash-only trusted parts one vote is enough for us).
    if (v > highest_view_change_sent_) start_view_change(v);

    maybe_assemble_new_view(crypto, outbox, v);
}

void Replica::maybe_assemble_new_view(enclave::CostedCrypto& crypto,
                                      net::Outbox& outbox, ViewNumber view) {
    if (config_.leader_of(view) != id_) return;
    const auto it = view_changes_rx_.find(view);
    if (it == view_changes_rx_.end() ||
        static_cast<int>(it->second.size()) < config_.quorum()) {
        return;
    }
    if (view_ >= view) return;  // already moved on

    NewView nv;
    nv.view = view;
    nv.replica = id_;

    SequenceNumber max_stable = 0;
    std::map<SequenceNumber, Prepare> union_prepared;
    for (const auto& [replica, vc] : it->second) {
        nv.proofs.push_back(vc);
        max_stable = std::max(max_stable, vc.last_stable);
        for (const Prepare& p : vc.prepared) {
            const auto existing = union_prepared.find(p.seq);
            if (existing == union_prepared.end() ||
                existing->second.view < p.view) {
                union_prepared[p.seq] = p;
            }
        }
    }

    nv.start_seq = max_stable + 1;

    // Adopt the new view locally before re-certifying so the fresh
    // counters line up with expected_counter().
    view_ = view;
    view_start_ = nv.start_seq;
    next_seq_ = nv.start_seq;
    in_view_change_ = false;
    log_.clear();

    SequenceNumber max_seq = max_stable;
    for (const auto& [seq, p] : union_prepared) {
        max_seq = std::max(max_seq, seq);
    }

    for (SequenceNumber seq = nv.start_seq; seq <= max_seq; ++seq) {
        Prepare fresh;
        fresh.view = view_;
        fresh.seq = seq;
        fresh.replica = id_;
        const auto found = union_prepared.find(seq);
        if (found != union_prepared.end()) {
            fresh.batch = found->second.batch;  // whole batch, as prepared
        } else {
            Request noop;
            noop.flags = kFlagNoop;  // fill the counter gap
            fresh.batch.requests.push_back(std::move(noop));
        }
        (void)fresh.batch.digest_with(crypto, scratch_);
        const auto certified = trinx_->certify_continuing(
            crypto, prepare_counter_id(), fresh.certified_view());
        fresh.counter_value = certified.value;
        fresh.cert = certified.certificate;
        nv.reproposed.push_back(fresh);

        auto& entry = log_[seq];
        entry.prepare = fresh;
        // Slots we already executed before the view change must not look
        // pending — try_execute() starts above last_executed_ and would
        // never clear them, leaving the progress timer firing forever.
        if (seq <= last_executed_) entry.executed = true;
        ++next_seq_;
    }
    rebuild_in_flight();  // the log was replaced wholesale above

    nv.cert = trinx_->certify_independent(crypto, nv.certified_view());
    broadcast(outbox, nv);
    try_execute(crypto, outbox);
    reissue_forwarded(crypto, outbox);
    // The view can start above what we executed when the quorum stabilized
    // (and garbage-collected) a checkpoint we never reached; ordinary
    // commits can no longer fill that gap — fetch a snapshot.
    if (view_start_ > last_executed_ + 1) {
        begin_state_transfer(crypto, outbox);
    }
    arm_progress_timer();
}

void Replica::reissue_forwarded(enclave::CostedCrypto& crypto,
                                net::Outbox& outbox) {
    // Requests we accepted from clients may have died with the old
    // leader: order them ourselves (new leader) or re-forward them.
    const auto pending = forwarded_;
    for (const auto& [id, request] : pending) {
        bool in_log = false;
        for (const auto& [seq, entry] : log_) {
            if (!entry.prepare) continue;
            for (const Request& member : entry.prepare->batch.requests) {
                if (member.id == id) {
                    in_log = true;
                    break;
                }
            }
            if (in_log) break;
        }
        if (in_log) continue;
        if (is_leader()) {
            enqueue_for_batch(crypto, outbox, request);
        } else {
            send_to(outbox, config_.leader_of(view_), request);
        }
    }
}

void Replica::handle_new_view(enclave::CostedCrypto& crypto,
                              net::Outbox& outbox, NewView&& new_view) {
    if (new_view.view <= view_) return;
    if (new_view.replica != config_.leader_of(new_view.view)) return;
    if (!trinx_->verify_independent(crypto, new_view.replica,
                                    new_view.certified_view(),
                                    new_view.cert)) {
        return;
    }
    // The proofs must contain f+1 valid view changes for this view.
    std::set<std::uint32_t> voters;
    for (const ViewChange& vc : new_view.proofs) {
        if (vc.new_view != new_view.view) continue;
        if (!trinx_->verify_independent(crypto, vc.replica,
                                        vc.certified_view(), vc.cert)) {
            continue;
        }
        voters.insert(vc.replica);
    }
    if (static_cast<int>(voters.size()) < config_.quorum()) return;

    // A deposed leader may still hold an uncut batch (the view changed
    // under it without it ever suspecting anyone): those requests go back
    // into the forwarded set and are re-issued below.
    stash_pending_batch();

    view_ = new_view.view;
    view_start_ = new_view.start_seq;
    next_seq_ = new_view.start_seq;
    in_view_change_ = false;
    log_.clear();

    // Process the re-proposed prepares through the normal path (they carry
    // fresh certificates from the new leader).
    for (Prepare& p : new_view.reproposed) {
        handle_prepare(crypto, outbox, std::move(p));
    }
    // Reproposed slots we already executed before the view change must not
    // look pending — try_execute() starts above last_executed_ and would
    // never clear them, leaving the progress timer firing forever.
    for (auto& [seq, entry] : log_) {
        if (seq <= last_executed_) entry.executed = true;
    }
    rebuild_in_flight();  // the log was replaced wholesale above
    reissue_forwarded(crypto, outbox);
    // Sequence gap below the new view's start: the quorum stabilized a
    // checkpoint we never reached (e.g. we were partitioned through it)
    // and garbage-collected the prefix, so commits can no longer fill the
    // hole — fetch a snapshot.
    if (view_start_ > last_executed_ + 1) {
        begin_state_transfer(crypto, outbox);
    }
    arm_progress_timer();
}

// ---------------------------------------------------------- state transfer

void Replica::restart(ServicePtr fresh_service) {
    TROXY_ASSERT(fresh_service != nullptr, "restart needs a fresh service");
    service_ = std::move(fresh_service);
    faults_ = FaultProfile{};

    view_ = 0;
    view_start_ = 1;
    next_seq_ = 1;
    last_executed_ = 0;
    last_stable_ = 0;
    log_.clear();
    clients_.clear();
    checkpoint_votes_.clear();
    own_checkpoints_.clear();
    forwarded_.clear();
    view_changes_rx_.clear();
    stable_proof_.clear();
    own_chunks_.clear();
    transfer_.reset();
    // chunk_store_ deliberately survives: it models the untrusted on-disk
    // snapshot area, and every chunk in it is re-verified against the
    // certified Merkle root before use — this is what makes the rejoin
    // incremental instead of a full re-download.
    highest_view_change_sent_ = 0;
    in_view_change_ = false;
    timer_armed_ = false;
    ++timer_generation_;  // invalidate timers armed before the crash
    ++state_timer_generation_;
    state_responses_.clear();
    awaiting_state_ = false;
    pending_batch_.clear();
    in_flight_.clear();
    batch_timer_armed_ = false;
    ++batch_timer_generation_;  // invalidate batch timers from before
    executed_since_checkpoint_ = 0;

    begin_rejoin();
}

void Replica::begin_rejoin() {
    rejoining_ = true;
    awaiting_state_ = true;

    enclave::CostMeter meter;
    enclave::CostedCrypto crypto(profile_, meter);
    net::Outbox outbox = make_outbox();
    request_state_transfer(crypto, outbox);
    outbox.flush(meter);
    arm_state_transfer_timer();
}

void Replica::request_state_transfer(enclave::CostedCrypto& crypto,
                                     net::Outbox& outbox) {
    StateRequest request;
    request.replica = id_;
    request.have = last_stable_;
    // Advertise every durable chunk (old checkpoints and partial-transfer
    // progress alike): responders skip these, so a retry resumes where the
    // last attempt stopped and an incremental rejoin ships only the delta.
    request.have_chunks.reserve(
        std::min(chunk_store_.size(), kMaxAdvertisedChunks));
    for (const auto& [key, chunk] : chunk_store_) {
        if (request.have_chunks.size() >= kMaxAdvertisedChunks) break;
        crypto::Sha256Digest d;
        std::copy(key.begin(), key.end(), d.begin());
        request.have_chunks.push_back(d);
    }
    request.cert =
        trinx_->certify_independent(crypto, request.certified_view());
    broadcast(outbox, request);
}

void Replica::begin_state_transfer(enclave::CostedCrypto& crypto,
                                   net::Outbox& outbox) {
    if (awaiting_state_) return;  // a transfer is already in flight
    awaiting_state_ = true;
    request_state_transfer(crypto, outbox);
    arm_state_transfer_timer();
}

void Replica::arm_state_transfer_timer() {
    const std::uint64_t generation = ++state_timer_generation_;
    fabric_.simulator().after(config_.state_transfer_retry, [this,
                                                             generation]() {
        if (generation != state_timer_generation_) return;
        if (faults_.crashed) return;
        if (!rejoining_ && !awaiting_state_) return;

        // A retry with partial progress is a resume, not a restart: the
        // re-sent StateRequest advertises every chunk already banked.
        if (transfer_ && transfer_->received > 0 &&
            !transfer_->resume_counted) {
            transfer_->resume_counted = true;
            ++state_stats_.transfers_resumed;
        }

        enclave::CostMeter meter;
        enclave::CostedCrypto crypto(profile_, meter);
        net::Outbox outbox = make_outbox();
        request_state_transfer(crypto, outbox);
        outbox.flush(meter);
        arm_state_transfer_timer();
    });
}

void Replica::handle_state_request(enclave::CostedCrypto& crypto,
                                   net::Outbox& outbox,
                                   StateRequest&& request) {
    if (request.replica >= static_cast<std::uint32_t>(config_.n())) return;
    if (request.replica == id_) return;
    if (!trinx_->verify_independent(crypto, request.replica,
                                    request.certified_view(),
                                    request.cert)) {
        return;
    }

    StateResponse base;
    base.replica = id_;
    base.view = view_;
    base.view_start = view_start_;
    base.last_stable = last_stable_;
    if (last_stable_ == 0) {
        // Nothing stable yet: bare view coordinates, adopted by the
        // requester once f+1 responders agree on the tuple.
        base.root = merkle_root(crypto, {});
        base.cert =
            trinx_->certify_independent(crypto, base.certified_view());
        send_to(outbox, request.replica, base);
        return;
    }

    const auto it = own_chunks_.find(last_stable_);
    // Our chunked snapshot and its stability proof should always exist
    // for the current stable checkpoint; if either is missing, stay
    // silent rather than answer with state we cannot prove.
    if (it == own_chunks_.end()) return;
    if (static_cast<int>(stable_proof_.size()) < config_.quorum()) {
        return;
    }
    const ChunkedSnapshot& chunked = it->second;
    base.root = chunked.root;
    base.manifest = chunked.manifest;
    base.proof = stable_proof_;
    // ONE certificate serves the whole stream: it covers only the
    // coordinates and the root, and every chunk verifies against the
    // manifest which folds to that root.
    base.cert = trinx_->certify_independent(crypto, base.certified_view());

    // Incremental: withhold every chunk the requester advertised.
    std::set<Bytes> has;
    for (const crypto::Sha256Digest& d : request.have_chunks) {
        has.insert(store_key(d));
    }
    std::vector<std::uint32_t> to_send;
    to_send.reserve(chunked.chunks.size());
    for (std::uint32_t i = 0;
         i < static_cast<std::uint32_t>(chunked.chunks.size()); ++i) {
        if (has.contains(store_key(chunked.manifest[i]))) {
            ++state_stats_.chunks_skipped;
        } else {
            to_send.push_back(i);
        }
    }
    state_stats_.bytes_full += chunked.total_bytes();

    if (to_send.empty()) {
        // The requester already holds every chunk; the manifest + proof
        // alone let it assemble and adopt.
        send_to(outbox, request.replica, base);
        return;
    }
    for (std::size_t start = 0; start < to_send.size();
         start += config_.state_chunks_per_message) {
        const std::size_t end = std::min(
            start + config_.state_chunks_per_message, to_send.size());
        if (config_.wire_zero_copy) {
            send_state_window(outbox, base, chunked, to_send, start, end,
                              request.replica);
            continue;
        }
        StateResponse msg = base;
        for (std::size_t j = start; j < end; ++j) {
            const std::uint32_t idx = to_send[j];
            msg.chunk_index.push_back(idx);
            msg.chunks.push_back(*chunked.chunks[idx]);
            state_stats_.bytes_sent += chunked.chunks[idx]->size();
            ++state_stats_.chunks_sent;
        }
        send_to(outbox, request.replica, msg);
    }
}

void Replica::send_state_window(net::Outbox& outbox,
                                const StateResponse& base,
                                const ChunkedSnapshot& chunked,
                                const std::vector<std::uint32_t>& to_send,
                                std::size_t start, std::size_t end,
                                std::uint32_t requester) {
    // Zero-copy chunk stream: the frame is a FragmentChain — the framing
    // head and proof tail written into pooled buffers, each chunk payload
    // referenced in place as a Shared fragment under an 8-byte inline
    // (index ‖ length) prefix. Materializing the chain reproduces
    // wrap(Hybster, encode_message(StateResponse)) byte for byte, so a
    // chain-unaware receiver (every host today, via the materialize
    // fallback) decodes it exactly like the flat path.
    sim::BufferPool& pool = outbox.fabric().network().pool();
    sim::FragmentChain chain = outbox.fabric().network().acquire_chain();
    Writer head(pool.acquire_empty(
        2 + 32 + crypto::kSha256DigestSize * (1 + base.manifest.size()) + 8));
    head.u8(static_cast<std::uint8_t>(net::Channel::Hybster));
    head.u8(static_cast<std::uint8_t>(MsgType::StateResponse));
    base.encode_head(head, end - start);
    chain.append_owned(std::move(head).take());
    for (std::size_t j = start; j < end; ++j) {
        const std::uint32_t idx = to_send[j];
        const auto len =
            static_cast<std::uint32_t>(chunked.chunks[idx]->size());
        std::uint8_t prefix[8];
        for (int b = 0; b < 4; ++b) {
            prefix[b] = static_cast<std::uint8_t>(idx >> (8 * b));
            prefix[4 + b] = static_cast<std::uint8_t>(len >> (8 * b));
        }
        chain.append_inline(ByteView(prefix, sizeof prefix));
        chain.append_shared(chunked.chunks[idx]);
        state_stats_.bytes_sent += chunked.chunks[idx]->size();
        ++state_stats_.chunks_sent;
    }
    Writer tail(pool.acquire_empty(64));
    base.encode_tail(tail);
    chain.append_owned(std::move(tail).take());
    outbox.send_chain(config_.node_of(requester), std::move(chain));
}

void Replica::handle_state_response(enclave::CostedCrypto& crypto,
                                    net::Outbox& outbox,
                                    StateResponse&& response) {
    if (!rejoining_ && !awaiting_state_) return;
    if (response.replica >= static_cast<std::uint32_t>(config_.n())) return;
    if (response.replica == id_) return;
    if (!trinx_->verify_independent(crypto, response.replica,
                                    response.certified_view(),
                                    response.cert)) {
        return;
    }
    // A live-but-lagging replica only accepts snapshots that move it
    // forward; a rejoiner (nothing executed) also accepts "no checkpoint
    // yet" responses — the forced view change then reproposes the full
    // log, which is the catch-up path for restarts before checkpoint one.
    if (!rejoining_ && response.last_stable <= last_executed_) return;

    if (response.last_stable == 0) {
        // No checkpoint anywhere yet: there is no proof to carry, so the
        // bare view coordinates are only adopted once f+1 responders agree
        // on the full tuple — a single Byzantine responder can neither
        // roll the requester back nor teleport it into a fictional view.
        if (response.view < view_) return;
        const auto key = std::make_tuple(
            response.view, response.view_start, response.last_stable,
            store_key(response.root));
        auto& [voters, sample] = state_responses_[key];
        if (voters.empty()) sample = response;
        voters.insert(response.replica);

        if (static_cast<int>(voters.size()) >= config_.quorum()) {
            const StateResponse adopted = sample;
            adopt_state(crypto, outbox, adopted.view, adopted.view_start, 0,
                        Bytes{}, ChunkedSnapshot{}, {});
        }
        return;
    }

    // Chunked stream message. The manifest must fold to the advertised
    // root (domain-separated hashing makes this binding injective), and
    // f+1 distinct certified checkpoint votes for (last_stable, root)
    // prove the manifest describes a real checkpoint — at least one vote
    // comes from a correct replica. A single proven responder therefore
    // suffices, which is essential when only one peer still holds the
    // state (e.g. one replica restarts while another lags).
    if (response.manifest.empty()) return;
    if (!digests_equal(merkle_root(crypto, response.manifest),
                       response.root)) {
        return;
    }
    std::set<std::uint32_t> proof_voters;
    for (const CheckpointMsg& vote : response.proof) {
        if (vote.seq != response.last_stable) continue;
        if (vote.replica >= static_cast<std::uint32_t>(config_.n())) {
            continue;
        }
        if (!digests_equal(vote.state_digest, response.root)) continue;
        if (!trinx_->verify_independent(crypto, vote.replica,
                                        vote.certified_view(), vote.cert)) {
            continue;
        }
        proof_voters.insert(vote.replica);
    }
    if (static_cast<int>(proof_voters.size()) < config_.quorum()) return;

    // Install or continue transfer progress. An in-flight transfer is
    // only displaced by a *newer* proven checkpoint (the cluster moved on
    // mid-transfer); equal-seq messages from any responder, including
    // retries, all feed the same progress record.
    if (transfer_ && (transfer_->seq != response.last_stable ||
                      !digests_equal(transfer_->root, response.root))) {
        if (response.last_stable <= transfer_->seq) return;
        transfer_.reset();
    }
    if (!transfer_) {
        TransferProgress progress;
        progress.seq = response.last_stable;
        progress.root = response.root;
        progress.manifest = response.manifest;
        progress.proof = response.proof;
        progress.view = response.view;
        progress.view_start = response.view_start;
        for (std::uint32_t i = 0;
             i < static_cast<std::uint32_t>(progress.manifest.size()); ++i) {
            if (chunk_store_.contains(store_key(progress.manifest[i]))) {
                ++state_stats_.chunks_reused;
            } else {
                progress.missing.insert(i);
            }
        }
        transfer_ = std::move(progress);
    } else if (response.view > transfer_->view) {
        transfer_->view = response.view;
        transfer_->view_start = response.view_start;
    }

    // Bank every new chunk that verifies against the manifest.
    for (std::size_t j = 0; j < response.chunks.size(); ++j) {
        const std::uint32_t idx = response.chunk_index[j];
        if (idx >= transfer_->manifest.size()) continue;
        if (!transfer_->missing.contains(idx)) continue;
        const crypto::Sha256Digest leaf =
            chunk_leaf_hash(crypto, response.chunks[j]);
        if (!digests_equal(leaf, transfer_->manifest[idx])) continue;
        chunk_store_[store_key(leaf)] =
            std::make_shared<const Bytes>(std::move(response.chunks[j]));
        transfer_->missing.erase(idx);
        ++transfer_->received;
        ++state_stats_.chunks_received;
    }

    if (transfer_->missing.empty()) complete_transfer(crypto, outbox);
}

void Replica::complete_transfer(enclave::CostedCrypto& crypto,
                                net::Outbox& outbox) {
    // Banked chunks normally all sit in the durable store, but a
    // live-lagging replica can stabilize its own checkpoint mid-transfer,
    // which rebuilds the store and may evict them. Re-mark whatever is
    // gone as missing and let the retry re-fetch it.
    bool incomplete = false;
    for (std::uint32_t i = 0;
         i < static_cast<std::uint32_t>(transfer_->manifest.size()); ++i) {
        if (!chunk_store_.contains(store_key(transfer_->manifest[i]))) {
            transfer_->missing.insert(i);
            incomplete = true;
        }
    }
    if (incomplete) return;

    TransferProgress progress = std::move(*transfer_);
    transfer_.reset();

    ChunkedSnapshot chunked;
    chunked.root = progress.root;
    chunked.manifest = progress.manifest;
    Bytes snapshot;
    chunked.chunks.reserve(progress.manifest.size());
    for (const crypto::Sha256Digest& leaf : progress.manifest) {
        const auto it = chunk_store_.find(store_key(leaf));
        snapshot.insert(snapshot.end(), it->second->begin(),
                        it->second->end());
        chunked.chunks.push_back(it->second);
    }
    adopt_state(crypto, outbox, progress.view, progress.view_start,
                progress.seq, std::move(snapshot), std::move(chunked),
                std::move(progress.proof));
}

void Replica::rebuild_chunk_store(const ChunkedSnapshot& chunked) {
    chunk_store_.clear();
    for (std::size_t i = 0; i < chunked.chunks.size(); ++i) {
        chunk_store_[store_key(chunked.manifest[i])] = chunked.chunks[i];
    }
}

void Replica::adopt_state(enclave::CostedCrypto& crypto, net::Outbox& outbox,
                          ViewNumber view, SequenceNumber view_start,
                          SequenceNumber last_stable, Bytes snapshot,
                          ChunkedSnapshot chunked,
                          std::vector<CheckpointMsg> proof) {
    ++state_transfers_;
    const bool was_rejoining = rejoining_;
    // A live replica that merely lagged keeps its own view coordinates
    // when they are already ahead of the responder's (a proven snapshot is
    // valid regardless of the view it was reported from).
    const bool same_view = view == view_ && view_start == view_start_;
    rejoining_ = false;
    awaiting_state_ = false;
    state_responses_.clear();
    transfer_.reset();
    ++state_timer_generation_;  // cancel the retry timer

    if (view >= view_) {
        view_ = view;
        view_start_ = view_start;
    }
    last_stable_ = std::max(last_stable_, last_stable);
    if (last_stable > last_executed_) {
        last_executed_ = last_stable;
        // The snapshot is the state right after the checkpoint that reset
        // the peers' request counters, so ours resets too.
        executed_since_checkpoint_ = 0;
    }
    next_seq_ = std::max(next_seq_, last_stable + 1);
    log_.erase(log_.begin(), log_.upper_bound(last_stable));
    rebuild_in_flight();  // possibly unexecuted entries were dropped
    if (last_stable > 0) {
        service_->restore(snapshot);
        rebuild_chunk_store(chunked);
        own_checkpoints_[last_stable] = std::move(snapshot);
        own_chunks_[last_stable] = std::move(chunked);
        stable_proof_ = std::move(proof);
        checkpoint_votes_.erase(
            checkpoint_votes_.begin(),
            checkpoint_votes_.upper_bound(last_stable - 1));
    }
    // Match highest_view_change_sent_ to the adopted view so the forced
    // view change below is not suppressed by a pre-crash value.
    highest_view_change_sent_ =
        std::max(highest_view_change_sent_, view_);
    in_view_change_ = false;

    if (!was_rejoining && same_view) {
        // We fell behind inside the view we are already in (typically a
        // NewView whose start was above our execution point): the log tail
        // above the checkpoint is still valid and our counters for this
        // view are in sync, so simply resume executing.
        try_execute(crypto, outbox);
        arm_progress_timer();
        return;
    }

    // The snapshot restores the service, but our ordering counters are
    // still desynchronized from the quorum (restarted, or the quorum moved
    // views while we waited). A view change fixes both wholesale: the
    // fresh view gives everyone new counter ids starting from a common
    // view_start, and the new leader reproposes the certified log tail
    // above the checkpoint, which is exactly the suffix we still miss.
    start_view_change(view_ + 1);
}

}  // namespace troxy::hybster

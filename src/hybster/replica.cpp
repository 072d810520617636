#include "hybster/replica.hpp"

#include <algorithm>
#include <array>

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

/// Votes in `slots` from replicas other than `skip` that match the
/// prepare's certified batch structure — member count AND digest.
int matching_votes(const std::vector<std::optional<Commit>>& slots,
                   const Prepare& prepare, std::uint32_t skip) {
    // Memoized: warm whenever the prepare was installed by cut_batch() or
    // handle_prepare(), so this costs nothing on the hot path.
    const crypto::Sha256Digest& digest = prepare.batch.digest();
    const auto batch_size = static_cast<std::uint32_t>(prepare.batch.size());
    int votes = 0;
    for (std::uint32_t replica = 0; replica < slots.size(); ++replica) {
        const std::optional<Commit>& commit = slots[replica];
        if (!commit || replica == skip) continue;
        if (commit->batch_size == batch_size &&
            digests_equal(commit->batch_digest, digest)) {
            ++votes;
        }
    }
    return votes;
}

/// Bound on the have-chunks list a StateRequest advertises: enough for
/// snapshots far beyond anything the sim runs, while keeping a
/// pathological store from inflating the request past the wire cap.
constexpr std::size_t kMaxAdvertisedChunks = 8192;

/// Retry interval for checkpoint state transfer while a restarted or
/// lagging replica waits for f+1 matching snapshots. A retry re-sends the
/// StateRequest with the chunk hashes already received, so a
/// half-finished transfer resumes instead of restarting.
constexpr sim::Duration kStateTransferRetry = sim::milliseconds(250);

/// The batch a new leader reproposes where no proof reports a prepare.
const Batch& noop_batch() {
    static const Batch noop = [] {
        Batch batch;
        batch.requests.emplace_back().flags = kFlagNoop;
        return batch;
    }();
    return noop;
}

}  // namespace

std::optional<ViewDerivation> derive_new_view(
    int quorum, ViewNumber view, std::span<const ViewChange* const> proofs) {
    if (std::ssize(proofs) < quorum) return std::nullopt;
    // By replica id: a repeated replica is caught, and slots fill in
    // replica-id order whatever order the proofs come in.
    std::array<const ViewChange*, kMaxReplicas> by_replica{};
    SequenceNumber stable = 0;
    SequenceNumber top = 0;
    for (const ViewChange* vc : proofs) {
        if (vc->new_view != view || vc->replica >= kMaxReplicas ||
            std::exchange(by_replica[vc->replica], vc) != nullptr) {
            return std::nullopt;
        }
        stable = std::max(stable, vc->last_stable);
        for (const Prepare& p : vc->prepared) top = std::max(top, p.seq);
    }
    // A NewView carries at most kMaxPrepared reproposals.
    if (top > stable && top - stable > ViewChange::kMaxPrepared) {
        return std::nullopt;
    }
    ViewDerivation derived{stable + 1, {}};
    derived.slots.resize(top > stable ? top - stable : 0);
    for (const ViewChange* vc : by_replica) {
        if (vc == nullptr) continue;
        for (const Prepare& p : vc->prepared) {
            if (p.seq <= stable) continue;
            const Prepare*& slot = derived.slots[p.seq - derived.start_seq];
            if (slot == nullptr || slot->view < p.view) slot = &p;
        }
    }
    return derived;
}

Replica::Replica(net::Fabric& fabric, sim::Node& node, Config config,
                 std::uint32_t replica_id, ServicePtr service,
                 Certifier certifier, const sim::CostProfile& profile,
                 Hooks hooks)
    : fabric_(fabric),
      node_(node),
      config_(std::move(config)),
      id_(replica_id),
      service_(std::move(service)),
      certifier_(std::move(certifier)),
      profile_(profile),
      hooks_(std::move(hooks)) {
    config_.validate(certifier_.hybrid());
    TROXY_ASSERT(service_ != nullptr, "replica needs a service");
}

enclave::CounterId Replica::prepare_counter_id(ViewNumber view) {
    return static_cast<enclave::CounterId>(2 * view);
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
    sim::BufferPool& pool = outbox.pool();
    Bytes frame = encode_frame(net::Channel::Hybster, message, pool);
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
    outbox.send(config_.node_of(replica),
                encode_frame(net::Channel::Hybster, message, outbox.pool()));
}

void Replica::on_message(sim::NodeId from, ByteView payload) {
    if (faults_.crashed) return;
    if (is_prepare(payload)) {
        // The members land in a recycled batch vector; unless the handler
        // installs the Prepare in the log, the vector goes back.
        Message message(std::in_place_type<Prepare>);
        Prepare& prepare = std::get<Prepare>(message);
        prepare.batch.requests = take_spare_batch();
        const bool decoded =
            decode_prepare_into(payload, prepare, certifier_.width());
        if (decoded) on_message(from, std::move(message));
        recycle_batch(std::move(prepare.batch.requests));
        if (decoded) return;
    } else if (auto decoded = decode_message(payload, certifier_.width())) {
        on_message(from, std::move(*decoded));
        return;
    }
    enclave::CostMeter meter;
    enclave::CostedCrypto crypto(profile_, meter);
    net::Outbox outbox = make_outbox();
    crypto.charge_dispatch();
    outbox.flush(meter);  // charge the wasted parse work
}

void Replica::on_message(sim::NodeId from, Message&& message) {
    if (faults_.crashed) return;

    enclave::CostMeter meter;
    enclave::CostedCrypto crypto(profile_, meter);
    net::Outbox outbox = make_outbox();
    crypto.charge_dispatch();

    // A rejoining replica has no state it can safely act on: until the
    // snapshot is installed, only state-transfer traffic is processed.
    if (rejoining_) {
        if (auto* response = std::get_if<StateResponse>(&message)) {
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
        std::move(message));
    (void)from;

    outbox.flush(meter);
}

void Replica::submit(std::span<Request> requests, bool preformed) {
    if (faults_.crashed || rejoining_ || requests.empty()) return;
    enclave::CostMeter meter;
    enclave::CostedCrypto crypto(profile_, meter);
    net::Outbox outbox = make_outbox();
    if (preformed) ++exec_stats_.prebatched_submits;
    prebatching_ = preformed;
    for (Request& request : requests) {
        handle_request(crypto, outbox, std::move(request));
    }
    prebatching_ = false;
    // Cut whatever a pre-formed burst accumulated as one batch without
    // waiting for the delay timer: the burst already waited once (for its
    // cache responses) and arrives whole.
    if (preformed && is_leader() && !in_view_change_ &&
        !pending_batch_.empty()) {
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

        exec_meter.add(service_->execution_cost(request.payload()));
        Bytes result = service_->execute(request.payload());

        ExecutedReply executed{&request, {}};
        Reply& reply = executed.reply;
        reply.kind = Reply::Kind::Optimistic;
        reply.view = view_;
        reply.seq = last_executed_;
        reply.request_id = request.id;
        reply.request_digest = request.digest_with(exec_crypto, scratch_);
        reply.result = std::move(result);
        reply.replica = id_;

        if (!faults_.drop_replies && hooks_.deliver_replies) {
            hooks_.deliver_replies(exec_crypto, exec_outbox,
                                   std::span(&executed, 1));
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
        if (!faults_.drop_replies && hooks_.deliver_replies) {
            ExecutedReply resend{&*record.last_request, *record.last_reply};
            hooks_.deliver_replies(crypto, outbox, std::span(&resend, 1));
        }
        return;
    }

    if (!is_leader()) {
        // Follower: forward to the leader (Fig. 5c) and watch progress.
        remember_forwarded(request);
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
        in_flight_.try_emplace(pending.id);
    }
    for (const auto& [seq, entry] : log_) {
        if (!entry.prepare || entry.executed) continue;
        for (const Request& member : entry.prepare->batch.requests) {
            in_flight_.try_emplace(member.id);
        }
    }
}

void Replica::enqueue_for_batch(enclave::CostedCrypto& crypto,
                                net::Outbox& outbox, const Request& request) {
    // Suppress re-ordering of a request already in flight (pending batch
    // or unexecuted log entry).
    if (request_in_flight(request.id)) return;

    pending_batch_.push_back(request);
    in_flight_.try_emplace(request.id);
    if (prebatching_) {
        // A pre-formed burst accumulates into one batch; only the wire
        // maximum forces a split. submit() cuts the remainder.
        if (pending_batch_.size() >= config_.batch_size_max) {
            cut_batch(crypto, outbox);
        }
        return;
    }
    if (pending_batch_.size() >= config_.batch_size_max ||
        config_.batch_delay == 0) {
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
    pending_batch_ = take_spare_batch();
    // Member digests and the batch digest are computed (and charged) once
    // here; followers and the execution path reuse the cached values.
    (void)prepare.batch.digest_with(crypto, scratch_);

    auto certified = certifier_.certify_ordered(
        crypto, prepare_counter_id(view_), prepare.certified_view());
    prepare.counter_value = certified.value;
    prepare.cert = std::move(certified.auth);
    TROXY_ASSERT(
        pbft() || prepare.counter_value == expected_counter(prepare.seq),
        "leader counter out of sync with sequence numbers");

    const SequenceNumber seq = prepare.seq;
    LogEntry& entry = log_entry(seq);
    entry.prepare = std::move(prepare);

    if (!faults_.mute_agreement) {
        broadcast(outbox, *entry.prepare);
    }
    maybe_commit_round(crypto, outbox, seq, entry);
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
        remember_forwarded(std::move(request));
    }
    pending_batch_.clear();
}

void Replica::handle_prepare(enclave::CostedCrypto& crypto,
                             net::Outbox& outbox, Prepare&& prepare) {
    if (prepare.view != view_ || in_view_change_) return;
    if (prepare.replica != config_.leader_of(view_)) return;
    if (prepare.seq <= last_stable_) return;  // garbage-collected slot
    // Counter continuity exists only where there are trusted counters.
    if (!pbft() && prepare.counter_value != expected_counter(prepare.seq)) {
        return;
    }

    if (prepare.batch.empty()) return;  // a batch orders at least one request

    // Member digests are computed and charged once here; the certificate
    // check, the COMMIT below and the execution path all reuse the
    // memoized values.
    const crypto::Sha256Digest batch_digest =
        prepare.batch.digest_with(crypto, scratch_);
    if (!certifier_.verify_ordered(crypto, prepare.replica,
                                   prepare_counter_id(view_),
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

    LogEntry& entry = log_entry(prepare.seq);
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
        in_flight_.try_emplace(member.id);
    }
    auto certified = certifier_.certify_ordered(
        crypto, commit_counter_id(), commit.certified_view(), kPrepareRound);
    commit.counter_value = certified.value;
    commit.cert = std::move(certified.auth);

    entry.commits[id_] = commit;  // our own COMMIT replaces any earlier
    if (!faults_.mute_agreement) {
        broadcast(outbox, commit);
    }
    maybe_commit_round(crypto, outbox, commit.seq, entry);
    arm_progress_timer();
    try_execute(crypto, outbox);
}

void Replica::handle_commit(enclave::CostedCrypto& crypto,
                            net::Outbox& outbox, Commit&& commit) {
    if (commit.view != view_ || in_view_change_) return;
    if (commit.seq <= last_stable_) return;
    if (commit.replica >= static_cast<std::uint32_t>(config_.n())) return;
    if (pbft() ? commit.counter_value != kPrepareRound &&
                     commit.counter_value != kCommitRound
               : commit.counter_value != expected_counter(commit.seq)) {
        return;
    }
    if (commit.batch_size == 0) return;  // a batch has at least one member

    if (!certifier_.verify_ordered(crypto, commit.replica,
                                   commit_counter_id(), commit.counter_value,
                                   commit.certified_view(), commit.cert)) {
        return;
    }

    // The first certified COMMIT from each replica in each round stands.
    const SequenceNumber seq = commit.seq;
    LogEntry& entry = log_entry(seq);
    auto& round = commit.counter_value == kCommitRound && pbft()
                      ? entry.commit_round
                      : entry.commits;
    std::optional<Commit>& slot = round[commit.replica];
    if (!slot) slot = std::move(commit);
    maybe_commit_round(crypto, outbox, seq, entry);
    try_execute(crypto, outbox);
}

bool Replica::prepared(const LogEntry& entry) const {
    if (!entry.prepare) return false;
    // The leader vouches through its PREPARE; every follower with a
    // matching certified COMMIT (our own included once we created it)
    // adds one.
    return 1 + matching_votes(entry.commits, *entry.prepare,
                              entry.prepare->replica) >=
           config_.quorum();
}

bool Replica::committed(const LogEntry& entry) const {
    if (!prepared(entry)) return false;
    if (!pbft()) return true;
    constexpr std::uint32_t kNobody = ~0u;
    return matching_votes(entry.commit_round, *entry.prepare, kNobody) >=
           config_.quorum();
}

void Replica::maybe_commit_round(enclave::CostedCrypto& crypto,
                                 net::Outbox& outbox, SequenceNumber seq,
                                 LogEntry& entry) {
    if (!pbft() || entry.commit_round[id_] || !prepared(entry)) return;
    Commit commit;
    commit.view = view_;
    commit.seq = seq;
    commit.replica = id_;
    commit.batch_size = static_cast<std::uint32_t>(entry.prepare->batch.size());
    commit.batch_digest = entry.prepare->batch.digest();
    auto certified = certifier_.certify_ordered(
        crypto, commit_counter_id(), commit.certified_view(), kCommitRound);
    commit.counter_value = certified.value;
    commit.cert = std::move(certified.auth);
    entry.commit_round[id_] = commit;
    if (!faults_.mute_agreement) {
        broadcast(outbox, commit);
    }
}

Replica::LogEntry& Replica::log_entry(SequenceNumber seq) {
    const auto hint = log_.lower_bound(seq);
    if (hint != log_.end() && hint->first == seq) return hint->second;
    if (spare_log_.empty()) {
        LogEntry& entry = log_.emplace_hint(hint, seq, LogEntry{})->second;
        entry.commits.resize(static_cast<std::size_t>(config_.n()));
        if (pbft()) {
            entry.commit_round.resize(static_cast<std::size_t>(config_.n()));
        }
        return entry;
    }
    LogNode node = std::move(spare_log_.back());
    spare_log_.pop_back();
    node.key() = seq;
    return log_.insert(hint, std::move(node))->second;
}

void Replica::truncate_log(SequenceNumber seq) {
    // A one-off truncation of a long log frees what spare_limit() does
    // not keep.
    while (!log_.empty() && log_.begin()->first <= seq) {
        LogNode node = log_.extract(log_.begin());
        if (spare_log_.size() >= spare_limit()) continue;
        LogEntry& entry = node.mapped();
        if (entry.prepare) {
            recycle_batch(std::move(entry.prepare->batch.requests));
        }
        entry.prepare.reset();
        for (std::optional<Commit>& slot : entry.commits) slot.reset();
        for (std::optional<Commit>& slot : entry.commit_round) slot.reset();
        entry.executed = false;
        spare_log_.push_back(std::move(node));
    }
}

std::vector<Request> Replica::take_spare_batch() {
    if (spare_batches_.empty()) return {};
    std::vector<Request> members = std::move(spare_batches_.back());
    spare_batches_.pop_back();
    return members;
}

void Replica::recycle_batch(std::vector<Request>&& members) {
    if (members.capacity() == 0 || spare_batches_.size() >= spare_limit()) {
        return;
    }
    members.clear();
    spare_batches_.push_back(std::move(members));
}

void Replica::remember_forwarded(Request request) {
    const auto hint = forwarded_.lower_bound(request.id);
    if (hint != forwarded_.end() && hint->first == request.id) return;
    if (spare_forwarded_.empty()) {
        forwarded_.emplace_hint(hint, request.id, std::move(request));
        return;
    }
    auto node = std::move(spare_forwarded_.back());
    spare_forwarded_.pop_back();
    node.key() = request.id;
    node.mapped() = std::move(request);
    forwarded_.insert(hint, std::move(node));
}

void Replica::forget_forwarded(const RequestId& id) {
    if (forwarded_.empty()) return;
    auto node = forwarded_.extract(id);
    if (node.empty() || spare_forwarded_.size() >= spare_limit()) return;
    node.mapped() = Request();  // its body is released now, not at reuse
    spare_forwarded_.push_back(std::move(node));
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
    for (const Request& request : entry.prepare->batch.requests) {
        forget_forwarded(request.id);
        in_flight_.erase(request.id);
        ++executed_since_checkpoint_;
        if (request.flags & kFlagNoop) continue;

        if (!lane_scheduled) {
            crypto.charge(service_->execution_cost(request.payload()));
        }
        Bytes result = service_->execute(request.payload());

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

        if (!faults_.drop_replies && hooks_.deliver_replies) {
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
            executed_.push_back(ExecutedReply{&request, std::move(reply)});
        }
    }
    if (!executed_.empty()) {
        hooks_.deliver_replies(crypto, outbox, executed_);
        executed_.clear();
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
    cp.cert = certifier_.certify(crypto, cp.certified_view());

    own_chunks_[seq] = std::move(chunked);

    auto& votes = checkpoint_votes_[seq][cp.state_digest];
    votes.emplace(id_, cp);

    broadcast(outbox, cp);

    // f+1 votes might already be present (we could be last to checkpoint).
    if (static_cast<int>(votes.size()) >= config_.quorum() &&
        seq > last_stable_) {
        stabilize(seq, quorum_proof(votes));
    }
}

void Replica::handle_checkpoint(enclave::CostedCrypto& crypto,
                                net::Outbox& outbox,
                                CheckpointMsg&& checkpoint) {
    if (checkpoint.seq <= last_stable_) return;
    if (checkpoint.replica >= static_cast<std::uint32_t>(config_.n())) {
        return;
    }
    if (!certifier_.verify(crypto, checkpoint.replica,
                           checkpoint.certified_view(), checkpoint.cert)) {
        return;
    }

    const SequenceNumber seq = checkpoint.seq;
    auto& votes = checkpoint_votes_[seq][checkpoint.state_digest];
    votes.emplace(checkpoint.replica, std::move(checkpoint));

    // Stability requires f+1 matching checkpoints *including our own*
    // (we can only truncate state we have actually reached).
    if (static_cast<int>(votes.size()) >= config_.quorum() &&
        votes.contains(id_) && seq > last_stable_) {
        stabilize(seq, quorum_proof(votes));
        return;
    }

    // Lag detection: f+1 *others* vouch for a checkpoint beyond what we
    // have executed. The quorum has garbage-collected that prefix, so we
    // can no longer catch up through ordinary commits — fetch a snapshot.
    if (static_cast<int>(votes.size()) >= config_.reply_quorum() &&
        !votes.contains(id_) && seq > last_executed_) {
        begin_state_transfer(crypto, outbox);
    }
}

std::vector<CheckpointMsg> Replica::quorum_proof(const CheckpointVotes& votes) {
    std::vector<CheckpointMsg> proof = std::move(stable_proof_);
    proof.clear();
    for (const auto& [replica, vote] : votes) proof.push_back(vote);
    return proof;
}

void Replica::stabilize(SequenceNumber seq,
                        std::vector<CheckpointMsg> proof) {
    TROXY_ASSERT(seq > last_stable_, "stable checkpoints only advance");
    last_stable_ = seq;
    stable_proof_ = std::move(proof);
    truncate_log(seq);
    checkpoint_votes_.erase(checkpoint_votes_.begin(),
                            checkpoint_votes_.lower_bound(seq));
    // Nothing reads a snapshot below the stable one: state transfer
    // serves only own_chunks_[last_stable_]. Own checkpoints above `seq`
    // are not yet stable and stay.
    own_chunks_.erase(own_chunks_.begin(), own_chunks_.lower_bound(seq));
    const auto it = own_chunks_.find(seq);
    if (it == own_chunks_.end()) return;
    const ChunkedSnapshot& chunked = it->second;
    chunk_store_.clear();
    for (std::size_t i = 0; i < chunked.chunks.size(); ++i) {
        chunk_store_[store_key(chunked.manifest[i])] = chunked.chunks[i];
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
    // The PBFT profile reports only prepared entries: a leader without
    // counters can equivocate, but two batches cannot both be prepared
    // at one sequence number in one view.
    for (const auto& [seq, entry] : log_) {
        if (entry.prepare && (!pbft() || prepared(entry))) {
            vc.prepared.push_back(*entry.prepare);
        }
    }
    vc.cert = certifier_.certify(crypto, vc.certified_view());

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
    if (!certifier_.verify(crypto, view_change.replica,
                           view_change.certified_view(), view_change.cert)) {
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
    if (config_.leader_of(view) != id_ || view_ >= view) return;
    const auto it = view_changes_rx_.find(view);
    if (it == view_changes_rx_.end()) return;
    std::array<const ViewChange*, kMaxReplicas> proofs{};
    std::size_t count = 0;
    for (const auto& [replica, vc] : it->second) proofs[count++] = &vc;
    const auto derived = derive_new_view(config_.quorum(), view,
                                         std::span(proofs.data(), count));
    if (!derived) return;
    NewView nv;
    nv.view = view;
    nv.replica = id_;
    nv.start_seq = derived->start_seq;
    for (const Prepare* winner : derived->slots) {
        Prepare& fresh = nv.reproposed.emplace_back();
        fresh.view = view;
        fresh.seq = nv.start_seq + nv.reproposed.size() - 1;
        fresh.replica = id_;
        fresh.batch = winner != nullptr ? winner->batch : noop_batch();
        (void)fresh.batch.digest_with(crypto, scratch_);
        auto certified = certifier_.certify_ordered(
            crypto, prepare_counter_id(view), fresh.certified_view());
        fresh.counter_value = certified.value;
        fresh.cert = std::move(certified.auth);
    }
    // The proofs take the stored view changes: the install drops them.
    for (auto& [replica, vc] : it->second) nv.proofs.push_back(std::move(vc));
    nv.cert = certifier_.certify(crypto, nv.certified_view());
    install_view(crypto, outbox, nv);
}

void Replica::handle_new_view(enclave::CostedCrypto& crypto,
                              net::Outbox& outbox, NewView&& new_view) {
    if (new_view.view <= view_) return;
    if (new_view.replica != config_.leader_of(new_view.view)) return;
    if (!certifier_.verify(crypto, new_view.replica,
                           new_view.certified_view(), new_view.cert)) {
        return;
    }
    // Recompute the view from the proofs that verify and refuse any other.
    // A link-MAC authenticator leaves its sender's own slot empty, so in
    // the PBFT profile the view change we stored when we sent it stands
    // in for our slot, whatever copy came.
    const auto& stored = view_changes_rx_[new_view.view];
    std::array<const ViewChange*, kMaxReplicas> proofs{};
    std::size_t valid = 0;
    std::uint64_t named = 0;  // replica ids the proofs name
    for (const ViewChange& vc : new_view.proofs) {
        if (vc.replica >= static_cast<std::uint32_t>(config_.n())) continue;
        const std::uint64_t bit = std::uint64_t{1} << vc.replica;
        if (named & bit) return;  // two proofs from one replica
        named |= bit;
        if (vc.new_view != new_view.view) continue;
        if (pbft() && vc.replica == id_) {
            const auto own = stored.find(id_);
            if (own != stored.end()) proofs[valid++] = &own->second;
        } else if (certifier_.verify(crypto, vc.replica, vc.certified_view(),
                                     vc.cert)) {
            proofs[valid++] = &vc;
        }
    }
    const auto derived = derive_new_view(config_.quorum(), new_view.view,
                                         std::span(proofs.data(), valid));
    if (!derived || new_view.start_seq != derived->start_seq ||
        new_view.reproposed.size() != derived->slots.size()) {
        return;
    }
    for (std::size_t i = 0; i < derived->slots.size(); ++i) {
        const Prepare* winner = derived->slots[i];
        if (new_view.reproposed[i].seq != derived->start_seq + i ||
            new_view.reproposed[i].batch.requests !=
                (winner != nullptr ? winner->batch : noop_batch()).requests) {
            return;
        }
    }
    install_view(crypto, outbox, new_view);
}

void Replica::install_view(enclave::CostedCrypto& crypto, net::Outbox& outbox,
                           NewView& nv) {
    stash_pending_batch();  // a deposed leader's uncut batch is reissued
    view_ = nv.view;
    view_start_ = nv.start_seq;
    next_seq_ = nv.start_seq + nv.reproposed.size();
    in_view_change_ = false;
    log_.clear();
    // Neither view-change handler reads these views any more.
    view_changes_rx_.erase(view_changes_rx_.begin(),
                           view_changes_rx_.upper_bound(view_));
    if (nv.replica == id_) {
        for (const Prepare& p : nv.reproposed) log_entry(p.seq).prepare = p;
        broadcast(outbox, nv);
        try_execute(crypto, outbox);
    } else {
        // The new leader's fresh certificates take the normal path.
        for (Prepare& p : nv.reproposed) {
            handle_prepare(crypto, outbox, std::move(p));
        }
    }
    // A slot executed before the view change must not look pending:
    // try_execute() starts above last_executed_ and would never clear it.
    for (auto& [seq, entry] : log_) {
        if (seq > last_executed_) break;
        entry.executed = true;
    }
    rebuild_in_flight();  // the log was replaced wholesale above
    reissue_forwarded(crypto, outbox);
    // A gap below the view's start: the quorum garbage-collected a
    // checkpoint we never reached, so only a snapshot can fill it.
    if (view_start_ > last_executed_ + 1) begin_state_transfer(crypto, outbox);
    arm_progress_timer();
}

void Replica::reissue_forwarded(enclave::CostedCrypto& crypto,
                                net::Outbox& outbox) {
    // Requests we accepted from clients may have died with the old
    // leader: unless the installed log holds them, order them ourselves
    // (new leader) or re-forward them. The ids come first, since ordering
    // one may execute, and forget, another.
    FlatSet<RequestId> logged;
    for (const auto& [seq, entry] : log_) {
        if (!entry.prepare) continue;
        for (const Request& member : entry.prepare->batch.requests) {
            logged.try_emplace(member.id);
        }
    }
    std::vector<RequestId> reissue;
    for (const auto& [id, request] : forwarded_) {
        if (!logged.contains(id)) reissue.push_back(id);
    }
    for (const RequestId& id : reissue) {
        const auto it = forwarded_.find(id);
        if (it == forwarded_.end()) continue;
        if (is_leader()) {
            enqueue_for_batch(crypto, outbox, it->second);
        } else {
            send_to(outbox, config_.leader_of(view_), it->second);
        }
    }
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
    request.cert = certifier_.certify(crypto, request.certified_view());
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
    fabric_.simulator().after(kStateTransferRetry, [this, generation]() {
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
    if (!certifier_.verify(crypto, request.replica, request.certified_view(),
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
        base.cert = certifier_.certify(crypto, base.certified_view());
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
    base.cert = certifier_.certify(crypto, base.certified_view());

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
        StateResponse msg = base;
        for (std::size_t j = start; j < end; ++j) {
            const std::uint32_t idx = to_send[j];
            msg.chunks.push_back({idx, *chunked.chunks[idx]});
            state_stats_.bytes_sent += chunked.chunks[idx]->size();
            ++state_stats_.chunks_sent;
        }
        send_to(outbox, request.replica, msg);
    }
}

void Replica::handle_state_response(enclave::CostedCrypto& crypto,
                                    net::Outbox& outbox,
                                    StateResponse&& response) {
    if (!rejoining_ && !awaiting_state_) return;
    if (response.replica >= static_cast<std::uint32_t>(config_.n())) return;
    if (response.replica == id_) return;
    if (!certifier_.verify(crypto, response.replica,
                           response.certified_view(), response.cert)) {
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

        if (static_cast<int>(voters.size()) >= config_.reply_quorum()) {
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
        if (!certifier_.verify(crypto, vote.replica, vote.certified_view(),
                               vote.cert)) {
            continue;
        }
        proof_voters.insert(vote.replica);
    }
    if (static_cast<int>(proof_voters.size()) < config_.reply_quorum()) {
        return;
    }

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
    for (StateResponse::Chunk& chunk : response.chunks) {
        const std::uint32_t idx = chunk.index;
        if (idx >= transfer_->manifest.size()) continue;
        if (!transfer_->missing.contains(idx)) continue;
        const crypto::Sha256Digest leaf = chunk_leaf_hash(crypto, chunk.data);
        if (!digests_equal(leaf, transfer_->manifest[idx])) continue;
        chunk_store_[store_key(leaf)] =
            std::make_shared<const Bytes>(std::move(chunk.data));
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
    view_changes_rx_.erase(view_changes_rx_.begin(),
                           view_changes_rx_.upper_bound(view_));
    if (last_stable > last_executed_) {
        last_executed_ = last_stable;
        // The snapshot is the state right after the checkpoint that reset
        // the peers' request counters, so ours resets too.
        executed_since_checkpoint_ = 0;
    }
    next_seq_ = std::max(next_seq_, last_stable + 1);
    if (last_stable > 0) {
        service_->restore(snapshot);
        own_chunks_[last_stable] = std::move(chunked);
        stabilize(last_stable, std::move(proof));
    }
    rebuild_in_flight();  // possibly unexecuted entries were dropped
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

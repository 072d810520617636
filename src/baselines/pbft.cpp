#include "baselines/pbft.hpp"

#include "common/assert.hpp"
#include "common/serialize.hpp"
#include "net/envelope.hpp"

namespace troxy::baselines::pbft {

void Config::validate() const {
    TROXY_ASSERT(n() == 3 * f + 1, "PBFT requires exactly 3f+1 replicas");
    TROXY_ASSERT(checkpoint_interval > 0, "checkpoint interval > 0");
}

// ------------------------------------------------------------- wire layer

Bytes seal_frame(enclave::CostedCrypto& crypto, const net::MacTable& macs,
                 sim::NodeId from, sim::NodeId to, PbftType type,
                 ByteView body) {
    Writer w;
    w.u8(static_cast<std::uint8_t>(type));
    w.raw(body);
    const crypto::HmacTag tag = macs.sign(crypto, from, to, w.data());
    w.raw(tag);
    return std::move(w).take();
}

std::optional<std::pair<PbftType, Bytes>> open_frame(
    enclave::CostedCrypto& crypto, const net::MacTable& macs,
    sim::NodeId from, sim::NodeId to, ByteView frame) {
    if (frame.size() < 1 + sizeof(crypto::HmacTag)) return std::nullopt;
    const ByteView content = frame.first(frame.size() - sizeof(crypto::HmacTag));
    const ByteView tag_bytes = frame.last(sizeof(crypto::HmacTag));
    crypto::HmacTag tag;
    std::copy(tag_bytes.begin(), tag_bytes.end(), tag.begin());
    if (!macs.verify(crypto, from, to, content, tag)) return std::nullopt;

    const auto type = static_cast<PbftType>(content[0]);
    switch (type) {
        case PbftType::Request:
        case PbftType::PrePrepare:
        case PbftType::Prepare:
        case PbftType::Commit:
        case PbftType::Reply:
        case PbftType::ReadOne:
        case PbftType::ViewChange:
        case PbftType::NewView:
            break;
        default:
            return std::nullopt;
    }
    return std::make_pair(type, Bytes(content.begin() + 1, content.end()));
}

namespace {

Bytes encode_request(const Request& request) {
    Writer w;
    request.encode(w);
    return std::move(w).take();
}

Bytes encode_reply(const Reply& reply) {
    Writer w;
    reply.encode(w);
    return std::move(w).take();
}

struct PhaseBody {  // shared by Prepare and Commit
    ViewNumber view = 0;
    SequenceNumber seq = 0;
    crypto::Sha256Digest digest{};
    std::uint32_t replica = 0;
};

Bytes encode_phase(const PhaseBody& body) {
    Writer w;
    w.u64(body.view);
    w.u64(body.seq);
    w.raw(body.digest);
    w.u32(body.replica);
    return std::move(w).take();
}

PhaseBody decode_phase(ByteView data) {
    Reader r(data);
    PhaseBody body;
    body.view = r.u64();
    body.seq = r.u64();
    r.read_into(body.digest);
    body.replica = r.u32();
    r.expect_done();
    return body;
}

}  // namespace

// ---------------------------------------------------------------- replica

PbftReplica::PbftReplica(net::Fabric& fabric, sim::Node& node, Config config,
                         std::uint32_t replica_id,
                         hybster::ServicePtr service,
                         std::shared_ptr<net::MacTable> macs,
                         const sim::CostProfile& profile)
    : fabric_(fabric),
      node_(node),
      config_(std::move(config)),
      id_(replica_id),
      service_(std::move(service)),
      macs_(std::move(macs)),
      profile_(profile) {
    config_.validate();
}

void PbftReplica::broadcast(enclave::CostedCrypto& crypto,
                            net::Outbox& outbox, PbftType type,
                            ByteView body) {
    for (std::uint32_t r = 0; r < static_cast<std::uint32_t>(config_.n());
         ++r) {
        if (r == id_) continue;
        const sim::NodeId to = config_.node_of(r);
        outbox.send(to, net::wrap(net::Channel::Pbft,
                                  seal_frame(crypto, *macs_, node_.id(), to,
                                             type, body)));
    }
}

void PbftReplica::on_message(sim::NodeId from, ByteView payload) {
    if (faults_.crashed) return;

    enclave::CostMeter meter;
    enclave::CostedCrypto crypto(profile_, meter);
    net::Outbox outbox(fabric_, node_);
    crypto.charge_dispatch();

    auto frame = open_frame(crypto, *macs_, from, node_.id(), payload);
    if (!frame) {
        outbox.flush(meter);
        return;
    }

    try {
        switch (frame->first) {
            case PbftType::Request: {
                Reader r(frame->second);
                Request request = Request::decode(r);
                r.expect_done();
                handle_request(crypto, outbox, from, std::move(request));
                break;
            }
            case PbftType::ReadOne: {
                Reader r(frame->second);
                Request request = Request::decode(r);
                r.expect_done();
                handle_read_one(crypto, outbox, from, std::move(request));
                break;
            }
            case PbftType::PrePrepare:
                handle_pre_prepare(crypto, outbox, from, frame->second);
                break;
            case PbftType::Prepare:
                handle_prepare(crypto, outbox, from, frame->second);
                break;
            case PbftType::Commit:
                handle_commit(crypto, outbox, from, frame->second);
                break;
            case PbftType::ViewChange:
                handle_view_change(crypto, outbox, from, frame->second);
                break;
            case PbftType::NewView:
                handle_new_view(crypto, outbox, from, frame->second);
                break;
            case PbftType::Reply:
                break;  // replicas never receive replies
        }
    } catch (const DecodeError&) {
        // malformed body from an authenticated-but-faulty peer: discard
    }

    outbox.flush(meter);
}

void PbftReplica::handle_request(enclave::CostedCrypto& crypto,
                                 net::Outbox& outbox, sim::NodeId from,
                                 Request&& request) {
    (void)from;
    // Retransmission of an executed request: resend the reply.
    const auto done = executed_replies_.find(request.id);
    if (done != executed_replies_.end()) {
        if (!faults_.drop_replies) {
            send_reply(crypto, outbox, request, Reply(done->second));
        }
        return;
    }

    if (!is_leader()) {
        forwarded_.emplace(request.id, request);
        const sim::NodeId leader = config_.node_of(config_.leader_of(view_));
        outbox.send(leader,
                    net::wrap(net::Channel::Pbft,
                              seal_frame(crypto, *macs_, node_.id(), leader,
                                         PbftType::Request,
                                         encode_request(request))));
        arm_progress_timer();
        return;
    }
    if (in_view_change_) return;

    // Suppress duplicate ordering of an in-flight request.
    for (const auto& [seq, entry] : log_) {
        if (entry.request && entry.request->id == request.id &&
            !entry.executed) {
            return;
        }
    }

    const SequenceNumber seq = next_seq_++;
    auto& entry = log_[seq];
    entry.view = view_;
    entry.digest = crypto.hash(request.signed_view());
    entry.request = request;

    Writer body;
    body.u64(view_);
    body.u64(seq);
    request.encode(body);

    if (!faults_.mute_agreement) {
        broadcast(crypto, outbox, PbftType::PrePrepare, body.data());
    }
    arm_progress_timer();
}

void PbftReplica::handle_pre_prepare(enclave::CostedCrypto& crypto,
                                     net::Outbox& outbox, sim::NodeId from,
                                     ByteView body) {
    if (config_.replica_of(from) !=
        static_cast<int>(config_.leader_of(view_))) {
        return;
    }
    if (in_view_change_) return;

    Reader r(body);
    const ViewNumber view = r.u64();
    const SequenceNumber seq = r.u64();
    Request request = Request::decode(r);
    r.expect_done();

    if (view != view_) return;
    if (seq <= last_executed_ && log_.find(seq) == log_.end()) return;

    auto& entry = log_[seq];
    if (entry.request) return;  // duplicate pre-prepare
    entry.view = view;
    entry.digest = crypto.hash(request.signed_view());
    entry.request = std::move(request);

    PhaseBody phase{view, seq, entry.digest, id_};
    entry.prepares.insert(id_);
    if (!faults_.mute_agreement) {
        broadcast(crypto, outbox, PbftType::Prepare, encode_phase(phase));
    }
    maybe_send_commit(crypto, outbox, seq);
    arm_progress_timer();
}

void PbftReplica::handle_prepare(enclave::CostedCrypto& crypto,
                                 net::Outbox& outbox, sim::NodeId from,
                                 ByteView body) {
    const PhaseBody phase = decode_phase(body);
    if (phase.view != view_ || in_view_change_) return;
    if (config_.replica_of(from) != static_cast<int>(phase.replica)) return;
    if (phase.replica == config_.leader_of(view_)) return;

    auto& entry = log_[phase.seq];
    if (entry.request &&
        !constant_time_equal(entry.digest, phase.digest)) {
        return;  // conflicting digest
    }
    entry.prepares.insert(phase.replica);
    maybe_send_commit(crypto, outbox, phase.seq);
}

void PbftReplica::maybe_send_commit(enclave::CostedCrypto& crypto,
                                    net::Outbox& outbox,
                                    SequenceNumber seq) {
    auto& entry = log_[seq];
    if (entry.committed_sent || !entry.request) return;
    if (static_cast<int>(entry.prepares.size()) < config_.prepared_quorum()) {
        return;
    }
    entry.committed_sent = true;
    entry.commits.insert(id_);
    PhaseBody phase{view_, seq, entry.digest, id_};
    if (!faults_.mute_agreement) {
        broadcast(crypto, outbox, PbftType::Commit, encode_phase(phase));
    }
    try_execute(crypto, outbox);
}

void PbftReplica::handle_commit(enclave::CostedCrypto& crypto,
                                net::Outbox& outbox, sim::NodeId from,
                                ByteView body) {
    const PhaseBody phase = decode_phase(body);
    if (phase.view != view_ || in_view_change_) return;
    if (config_.replica_of(from) != static_cast<int>(phase.replica)) return;

    auto& entry = log_[phase.seq];
    if (entry.request && !constant_time_equal(entry.digest, phase.digest)) {
        return;
    }
    entry.commits.insert(phase.replica);
    try_execute(crypto, outbox);
}

void PbftReplica::try_execute(enclave::CostedCrypto& crypto,
                              net::Outbox& outbox) {
    for (;;) {
        const SequenceNumber next = last_executed_ + 1;
        const auto it = log_.find(next);
        if (it == log_.end() || it->second.executed || !it->second.request ||
            static_cast<int>(it->second.commits.size()) <
                config_.commit_quorum()) {
            break;
        }
        LogEntry& entry = it->second;
        entry.executed = true;
        last_executed_ = next;

        const Request& request = *entry.request;
        forwarded_.erase(request.id);
        crypto.charge(service_->execution_cost(request.payload()));
        Bytes result = service_->execute(request.payload());

        Reply reply;
        reply.kind = Reply::Kind::Ordered;
        reply.view = view_;
        reply.seq = next;
        reply.request_id = request.id;
        reply.request_digest = entry.digest;
        reply.result = std::move(result);
        reply.replica = id_;

        executed_replies_[request.id] = reply;
        if (executed_replies_.size() > 65536) {
            executed_replies_.erase(executed_replies_.begin());
        }

        if (!faults_.drop_replies) {
            if (faults_.corrupt_replies && !reply.result.empty()) {
                reply.result[0] ^= 0xff;
            }
            send_reply(crypto, outbox, request, std::move(reply));
        }

        // Log truncation stands in for PBFT's checkpoint subprotocol: two
        // intervals of slack keep every plausibly-needed entry around.
        if (last_executed_ % config_.checkpoint_interval == 0 &&
            last_executed_ > 2 * config_.checkpoint_interval) {
            const SequenceNumber floor =
                last_executed_ - 2 * config_.checkpoint_interval;
            log_.erase(log_.begin(), log_.upper_bound(floor));
        }
        arm_progress_timer();
    }
}

void PbftReplica::send_reply(enclave::CostedCrypto& crypto,
                             net::Outbox& outbox, const Request& request,
                             Reply&& reply) {
    const sim::NodeId client = request.id.client;
    if (!macs_->has_key(node_.id(), client)) return;
    outbox.send(client, net::wrap(net::Channel::Pbft,
                                  seal_frame(crypto, *macs_, node_.id(),
                                             client, PbftType::Reply,
                                             encode_reply(reply))));
}

void PbftReplica::handle_read_one(enclave::CostedCrypto& crypto,
                                  net::Outbox& outbox, sim::NodeId from,
                                  Request&& request) {
    (void)from;
    crypto.charge(service_->execution_cost(request.payload()));
    Bytes result = service_->execute(request.payload());

    Reply reply;
    reply.kind = Reply::Kind::Optimistic;
    reply.view = view_;
    reply.seq = last_executed_;
    reply.request_id = request.id;
    reply.request_digest = crypto.hash(request.signed_view());
    reply.result = std::move(result);
    reply.replica = id_;

    if (!faults_.drop_replies) {
        if (faults_.corrupt_replies && !reply.result.empty()) {
            reply.result[0] ^= 0xff;
        }
        send_reply(crypto, outbox, request, std::move(reply));
    }
}

// ------------------------------------------------------------ view change

void PbftReplica::arm_progress_timer() {
    if (timer_armed_ || faults_.crashed) return;
    timer_armed_ = true;
    const SequenceNumber executed_at_arm = last_executed_;
    const ViewNumber view_at_arm = view_;
    const std::uint64_t generation = ++timer_generation_;

    fabric_.simulator().after(
        config_.view_change_timeout,
        [this, executed_at_arm, view_at_arm, generation]() {
            if (generation != timer_generation_) return;
            timer_armed_ = false;
            if (faults_.crashed || view_ != view_at_arm) return;
            const bool pending =
                !forwarded_.empty() ||
                std::any_of(log_.begin(), log_.end(), [](const auto& kv) {
                    return !kv.second.executed;
                });
            if (!pending) return;
            if (last_executed_ == executed_at_arm) {
                start_view_change(view_ + 1);
            } else {
                arm_progress_timer();
            }
        });
}

void PbftReplica::start_view_change(ViewNumber new_view) {
    if (new_view <= view_ || new_view <= highest_vc_sent_) return;
    highest_vc_sent_ = new_view;
    in_view_change_ = true;
    ++view_change_count_;

    enclave::CostMeter meter;
    enclave::CostedCrypto crypto(profile_, meter);
    net::Outbox outbox(fabric_, node_);

    Writer body;
    body.u64(new_view);
    body.u32(id_);
    std::uint32_t count = 0;
    for (const auto& [seq, entry] : log_) {
        if (entry.request) ++count;
    }
    body.u32(count);
    for (const auto& [seq, entry] : log_) {
        if (!entry.request) continue;
        body.u64(seq);
        entry.request->encode(body);
    }

    view_changes_rx_[new_view][id_] = body.data();
    broadcast(crypto, outbox, PbftType::ViewChange, body.data());
    outbox.flush(meter);
}

void PbftReplica::handle_view_change(enclave::CostedCrypto& crypto,
                                     net::Outbox& outbox, sim::NodeId from,
                                     ByteView body) {
    Reader r(body);
    const ViewNumber new_view = r.u64();
    const std::uint32_t sender = r.u32();
    if (new_view <= view_) return;
    if (config_.replica_of(from) != static_cast<int>(sender)) return;

    view_changes_rx_[new_view][sender] = Bytes(body.begin(), body.end());
    if (new_view > highest_vc_sent_) start_view_change(new_view);

    // New leader: assemble once 2f+1 view changes arrived.
    if (config_.leader_of(new_view) != id_) return;
    const auto& received = view_changes_rx_[new_view];
    if (static_cast<int>(received.size()) < config_.commit_quorum()) return;
    if (view_ >= new_view) return;

    std::map<SequenceNumber, Request> union_requests;
    for (const auto& [replica, vc_body] : received) {
        Reader vr(vc_body);
        vr.u64();  // new_view
        vr.u32();  // sender
        const std::uint32_t count = vr.u32();
        for (std::uint32_t i = 0; i < count; ++i) {
            const SequenceNumber seq = vr.u64();
            Request request = Request::decode(vr);
            if (seq > last_executed_) {
                union_requests.emplace(seq, std::move(request));
            }
        }
    }

    view_ = new_view;
    in_view_change_ = false;
    log_.clear();
    next_seq_ = last_executed_ + 1;

    Writer nv;
    nv.u64(new_view);
    nv.u64(last_executed_ + 1);
    nv.u32(static_cast<std::uint32_t>(union_requests.size()));
    // Re-propose with fresh consecutive sequence numbers.
    std::vector<Request> to_order;
    for (auto& [seq, request] : union_requests) {
        to_order.push_back(std::move(request));
    }
    for (const Request& request : to_order) {
        nv.u64(next_seq_);
        request.encode(nv);
        auto& entry = log_[next_seq_];
        entry.view = view_;
        entry.digest = crypto.hash(request.signed_view());
        entry.request = request;
        entry.prepares.insert(id_);
        ++next_seq_;
    }
    broadcast(crypto, outbox, PbftType::NewView, nv.data());
    reissue_forwarded(crypto, outbox);
    arm_progress_timer();
}

void PbftReplica::reissue_forwarded(enclave::CostedCrypto& crypto,
                                    net::Outbox& outbox) {
    const auto pending = forwarded_;
    for (const auto& [id, request] : pending) {
        bool in_log = false;
        for (const auto& [seq, entry] : log_) {
            if (entry.request && entry.request->id == id) {
                in_log = true;
                break;
            }
        }
        if (in_log || executed_replies_.contains(id)) continue;
        handle_request(crypto, outbox, node_.id(), Request(request));
    }
}

void PbftReplica::handle_new_view(enclave::CostedCrypto& crypto,
                                  net::Outbox& outbox, sim::NodeId from,
                                  ByteView body) {
    Reader r(body);
    const ViewNumber new_view = r.u64();
    const SequenceNumber start_seq = r.u64();
    (void)start_seq;
    if (new_view <= view_) return;
    if (config_.replica_of(from) !=
        static_cast<int>(config_.leader_of(new_view))) {
        return;
    }

    view_ = new_view;
    in_view_change_ = false;
    log_.clear();
    next_seq_ = last_executed_ + 1;

    const std::uint32_t count = r.u32();
    for (std::uint32_t i = 0; i < count; ++i) {
        const SequenceNumber seq = r.u64();
        Request request = Request::decode(r);

        Writer pp;
        pp.u64(view_);
        pp.u64(seq);
        request.encode(pp);
        handle_pre_prepare(crypto, outbox,
                           config_.node_of(config_.leader_of(view_)),
                           pp.data());
    }
    reissue_forwarded(crypto, outbox);
    arm_progress_timer();
}

// ----------------------------------------------------------------- client

PbftClient::PbftClient(net::Fabric& fabric, sim::Node& node, Config config,
                       std::shared_ptr<net::MacTable> macs,
                       const sim::CostProfile& profile,
                       sim::Duration retransmit_timeout)
    : fabric_(fabric),
      node_(node),
      config_(std::move(config)),
      macs_(std::move(macs)),
      profile_(profile),
      retransmit_timeout_(retransmit_timeout) {
    config_.validate();
}

void PbftClient::invoke(Bytes payload, bool is_read, Callback callback) {
    const std::uint64_t number = next_number_++;
    auto& pending = pending_[number];
    pending.payload = std::move(payload);
    pending.callback = std::move(callback);
    if (is_read) pending.flags |= Request::kFlagRead;

    enclave::CostMeter meter;
    enclave::CostedCrypto crypto(profile_, meter);
    net::Outbox outbox(fabric_, node_);
    send_request(crypto, outbox, number, false);
    outbox.flush(meter);
    arm_retransmit(number);
}

void PbftClient::read_one(Bytes payload, std::uint32_t replica,
                          Callback callback) {
    const std::uint64_t number = next_number_++;
    read_ones_[number] = std::move(callback);

    Request request;
    request.id.client = node_.id();
    request.id.number = number;
    request.flags = Request::kFlagRead | Request::kFlagOptimistic;
    request.assign(payload);

    enclave::CostMeter meter;
    enclave::CostedCrypto crypto(profile_, meter);
    net::Outbox outbox(fabric_, node_);
    const sim::NodeId to = config_.node_of(replica);
    outbox.send(to, net::wrap(net::Channel::Pbft,
                              seal_frame(crypto, *macs_, node_.id(), to,
                                         PbftType::ReadOne,
                                         encode_request(request))));
    outbox.flush(meter);
}

void PbftClient::send_request(enclave::CostedCrypto& crypto,
                              net::Outbox& outbox, std::uint64_t number,
                              bool broadcast) {
    const auto it = pending_.find(number);
    if (it == pending_.end()) return;
    Pending& pending = it->second;

    Request request;
    request.id.client = node_.id();
    request.id.number = number;
    request.flags = pending.flags;
    request.assign(pending.payload);
    const Bytes body = encode_request(request);

    for (std::uint32_t r = 0; r < static_cast<std::uint32_t>(config_.n());
         ++r) {
        if (!broadcast && r != believed_leader_) continue;
        const sim::NodeId to = config_.node_of(r);
        outbox.send(to, net::wrap(net::Channel::Pbft,
                                  seal_frame(crypto, *macs_, node_.id(), to,
                                             PbftType::Request, body)));
    }
}

void PbftClient::arm_retransmit(std::uint64_t number) {
    fabric_.simulator().after(retransmit_timeout_, [this, number]() {
        if (!pending_.contains(number)) return;
        enclave::CostMeter meter;
        enclave::CostedCrypto crypto(profile_, meter);
        net::Outbox outbox(fabric_, node_);
        send_request(crypto, outbox, number, true);
        outbox.flush(meter);
        arm_retransmit(number);
    });
}

void PbftClient::on_message(sim::NodeId from, ByteView payload) {
    const int replica = config_.replica_of(from);
    if (replica < 0) return;

    enclave::CostMeter meter;
    enclave::CostedCrypto crypto(profile_, meter);
    crypto.charge_dispatch();

    auto frame = open_frame(crypto, *macs_, from, node_.id(), payload);
    if (!frame || frame->first != PbftType::Reply) {
        node_.charge(meter.take());
        return;
    }

    try {
        Reader r(frame->second);
        Reply reply = Reply::decode(r);
        r.expect_done();
        if (reply.replica != static_cast<std::uint32_t>(replica)) {
            node_.charge(meter.take());
            return;
        }

        // Read-one replies complete immediately (single source).
        if (const auto ro = read_ones_.find(reply.request_id.number);
            ro != read_ones_.end()) {
            Callback callback = std::move(ro->second);
            read_ones_.erase(ro);
            node_.exec(meter.take(),
                       [callback = std::move(callback),
                        result = std::move(reply.result)]() mutable {
                           if (callback) callback(std::move(result));
                       });
            return;
        }

        const auto it = pending_.find(reply.request_id.number);
        if (it == pending_.end()) {
            node_.charge(meter.take());
            return;
        }
        Pending& pending = it->second;
        believed_leader_ = config_.leader_of(reply.view);

        Writer key;
        key.raw(reply.request_digest);
        key.bytes(reply.result);
        Bytes vote = std::move(key).take();

        const auto previous = pending.votes.find(reply.replica);
        if (previous != pending.votes.end()) {
            if (previous->second == vote) {
                node_.charge(meter.take());
                return;
            }
            --pending.tally[previous->second];
        }
        pending.votes[reply.replica] = vote;
        const int count = ++pending.tally[vote];

        if (count >= config_.reply_quorum()) {
            Callback callback = std::move(pending.callback);
            pending_.erase(it);
            node_.exec(meter.take(),
                       [callback = std::move(callback),
                        result = std::move(reply.result)]() mutable {
                           if (callback) callback(std::move(result));
                       });
            return;
        }
    } catch (const DecodeError&) {
    }
    node_.charge(meter.take());
}

}  // namespace troxy::baselines::pbft

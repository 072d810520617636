#include "troxy/shard_front.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "common/serialize.hpp"
#include "net/client_framing.hpp"
#include "net/envelope.hpp"
#include "net/outbox.hpp"

namespace troxy::troxy_core {

CrossLockTable::Admission CrossLockTable::admit(
    CommitId id, const hybster::KeyList& keys) {
    TROXY_ASSERT(!keys.empty(), "a commit must lock at least one key");
    TROXY_ASSERT(id != kNone, "commit id out of range");
    std::vector<Link> spare;
    if (!spare_links_.empty()) {
        spare = std::move(spare_links_.back());
        spare_links_.pop_back();
    }
    const auto [links, inserted] = keysets_.try_emplace(id, std::move(spare));
    TROXY_ASSERT(inserted, "commit id admitted twice");
    // Reserved up front: blocked_ views the link keys, which must not
    // move while this loop appends.
    links->reserve(keys.size());
    blocked_.clear();
    for (const std::string& key : keys) {
        const std::size_t slot = links->size();
        links->push_back({key, kNone});
        const auto [queue, fresh] = queues_.try_emplace(key);
        if (fresh) {
            queue->head = id;
        } else {
            blocked_.push_back(links->back().key);
            (*keysets_.find(queue->tail))[queue->tail_link].next = id;
        }
        queue->tail = id;
        queue->tail_link = slot;
    }
    return {blocked_.empty(), blocked_};
}

bool CrossLockTable::is_runnable(CommitId id) const {
    const std::vector<Link>* links = keysets_.find(id);
    TROXY_ASSERT(links != nullptr, "unknown commit id");
    for (const Link& link : *links) {
        const Queue* queue = queues_.find(link.key);
        if (queue == nullptr || queue->head != id) return false;
    }
    return true;
}

std::span<const CrossLockTable::CommitId> CrossLockTable::release(
    CommitId id) {
    std::vector<Link>* links = keysets_.find(id);
    TROXY_ASSERT(links != nullptr, "releasing unknown commit id");
    woken_.clear();
    for (const Link& link : *links) {
        Queue* queue = queues_.find(link.key);
        TROXY_ASSERT(queue != nullptr && queue->head == id,
                     "released commit must head every one of its queues");
        if (link.next == kNone) {
            queues_.erase(link.key);
        } else {
            queue->head = link.next;
            woken_.push_back(link.next);
        }
    }
    links->clear();
    spare_links_.push_back(std::move(*links));
    keysets_.erase(id);

    // Successors surface deduplicated and in ascending id order,
    // matching the admission total order.
    std::sort(woken_.begin(), woken_.end());
    woken_.erase(std::unique(woken_.begin(), woken_.end()), woken_.end());
    std::erase_if(woken_, [this](CommitId successor) {
        return !is_runnable(successor);
    });
    return woken_;
}

ShardFrontHost::ShardFrontHost(net::Fabric& fabric, sim::Node& node,
                               ShardMap map, std::vector<Backend> backends,
                               crypto::X25519Keypair channel_identity,
                               Classifier classifier,
                               const sim::CostProfile& profile,
                               Options options)
    : fabric_(fabric),
      node_(node),
      map_(std::move(map)),
      classifier_(std::move(classifier)),
      profile_(profile),
      options_(options),
      sessions_(channel_identity) {
    map_.validate();
    TROXY_ASSERT(static_cast<int>(backends.size()) == map_.shard_count(),
                 "one backend replica group per shard");
    shard_stats_.resize(backends.size());
    upstreams_.reserve(backends.size());
    for (std::size_t s = 0; s < backends.size(); ++s) {
        for (const sim::NodeId server : backends[s].servers) {
            server_to_shard_[server] = static_cast<int>(s);
        }
        upstreams_.push_back(std::make_unique<LegacyClient>(
            fabric_, node_, std::move(backends[s].servers),
            std::move(backends[s].pinned_keys), profile_,
            options_.upstream));
    }
}

void ShardFrontHost::attach() {
    fabric_.attach(node_.id(), [this](sim::NodeId from, Bytes message) {
        on_message(from, std::move(message));
    });
}

void ShardFrontHost::start() {
    for (auto& upstream : upstreams_) {
        upstream->start(nullptr);
    }
}

void ShardFrontHost::crash() {
    TROXY_ASSERT(!crashed_, "front already crashed");
    crashed_ = true;
    // The process stops receiving; everything volatile dies with it.
    // Upstream LegacyClients go dormant instead of being destroyed —
    // their armed watchdog timers hold raw pointers into the objects and
    // are fenced off by shutdown()'s generation bump.
    fabric_.detach(node_.id());
    for (auto& upstream : upstreams_) {
        upstream->shutdown();
    }
    sessions_.clear();
    forwards_.clear();
    free_forwards_.clear();
    ++forward_epoch_;
    commits_.clear();
    ready_ = {};
    locks_.clear();
    cross_inflight_ = 0;
}

void ShardFrontHost::restart() {
    TROXY_ASSERT(crashed_, "restart() needs a crashed front");
    crashed_ = false;
    ++restarts_;
    attach();
    start();  // fresh upstream sessions; clients re-handshake on contact
}

void ShardFrontHost::on_message(sim::NodeId from, Bytes message) {
    auto unwrapped = net::unwrap_view(message);
    if (unwrapped) {
        const auto it = server_to_shard_.find(from);
        if (it != server_to_shard_.end()) {
            // Upstream traffic from a shard replica; a coalescing host
            // may ship several client frames as one Bundle.
            LegacyClient& upstream = *upstreams_[
                static_cast<std::size_t>(it->second)];
            if (unwrapped->first == net::Channel::Bundle) {
                if (net::unbundle(unwrapped->second, bundle_views_)) {
                    for (const ByteView m : bundle_views_) {
                        auto u = net::unwrap_view(m);
                        if (u && u->first == net::Channel::Client) {
                            upstream.on_message(from, u->second);
                        }
                    }
                }
            } else if (unwrapped->first == net::Channel::Client) {
                upstream.on_message(from, unwrapped->second);
            }
        } else if (unwrapped->first == net::Channel::Client) {
            sessions_.serve_frame(
                fabric_, node_, profile_, from, unwrapped->second,
                [&](Session& session, ByteView app_request, auto&, auto&) {
                    handle_request(session, app_request);
                });
        }
    }
    fabric_.network().recycle(std::move(message));
}

void ShardFrontHost::handle_request(Session& session, ByteView app_request) {
    const hybster::RequestInfo info = classifier_(app_request);
    ++requests_;
    const int owner = map_.shard_of(info.state_key);
    if (info.is_read) {
        // Reads ride the owner shard's cache-quorum path; the closure is
        // irrelevant (nothing is written).
        forward_single(session, owner, /*is_read=*/true, app_request);
        return;
    }
    const ShardSet shards = map_.shards_of(info);
    if (shards.size() == 1) {
        forward_single(session, owner, /*is_read=*/false, app_request);
        return;
    }
    enqueue_cross(session, shards, owner, app_request, info);
}

void ShardFrontHost::forward_single(Session& session, int shard,
                                    bool is_read, ByteView app_request) {
    ShardStats& stats = shard_stats_[static_cast<std::size_t>(shard)];
    ++stats.forwarded;
    if (is_read) {
        ++stats.reads;
    } else {
        ++stats.writes;
    }
    std::uint32_t index = 0;
    if (free_forwards_.empty()) {
        index = static_cast<std::uint32_t>(forwards_.size());
        forwards_.emplace_back();
    } else {
        index = free_forwards_.back();
        free_forwards_.pop_back();
    }
    forwards_[index] = session.assign();
    auto on_reply = [this, index, shard = static_cast<std::uint16_t>(shard),
                     epoch = forward_epoch_](const Bytes& reply) {
        complete_forward(index, shard, epoch, reply);
    };
    static_assert(sizeof(on_reply) <= 2 * sizeof(void*),
                  "the reply callback must fit std::function's buffer");
    upstreams_[static_cast<std::size_t>(shard)]->send(app_request, on_reply);
}

void ShardFrontHost::complete_forward(std::uint32_t index,
                                      std::uint16_t shard,
                                      std::uint16_t epoch, ByteView reply) {
    ++shard_stats_[shard].replies;
    if (epoch != forward_epoch_) return;  // sent before the last crash
    const net::ClientSessions::Ticket to = forwards_[index];
    free_forwards_.push_back(index);
    released_ +=
        sessions_.release_records(fabric_, node_, profile_, to, reply);
}

void ShardFrontHost::enqueue_cross(Session& session, ShardSet shards,
                                   int owner, ByteView app_request,
                                   const hybster::RequestInfo& info) {
    for (std::size_t i = 0; i < shards.size(); ++i) {
        ShardStats& stats = shard_stats_[static_cast<std::size_t>(shards[i])];
        ++stats.forwarded;
        ++stats.writes;
        ++stats.cross_participations;
    }
    const CrossLockTable::CommitId id = next_commit_id_++;
    CrossCommit& commit = *commits_.try_emplace(id).first;
    commit.id = id;
    commit.to = session.assign();
    commit.request = take_spare_buffer();
    commit.request.assign(app_request.begin(), app_request.end());
    commit.owner_reply = take_spare_buffer();
    commit.shards = shards;
    // Canonical lock set: the classifier's full key closure, sorted and
    // deduplicated. Canonical order is what makes atomic admission a
    // total order over conflicting commits.
    const auto closure = info.keys();
    commit.keys.assign(closure.begin(), closure.end());
    std::sort(commit.keys.begin(), commit.keys.end());
    commit.keys.erase(std::unique(commit.keys.begin(), commit.keys.end()),
                      commit.keys.end());
    commit.owner = owner;
    commit.admitted_at = fabric_.simulator().now();

    const CrossLockTable::Admission admission =
        locks_.admit(commit.id, commit.keys);
    if (admission.runnable) {
        ready_.push(commit.id);
    } else {
        ++cross_lock_waits_;
        for (const std::string_view key : admission.blocked_on) {
            auto it = lock_waits_by_key_.find(key);
            if (it == lock_waits_by_key_.end()) {
                it = lock_waits_by_key_.emplace(std::string(key), 0).first;
            }
            ++it->second;
        }
    }
    cross_queue_peak_ =
        std::max<std::uint64_t>(cross_queue_peak_, commits_.size());
    pump_cross();
}

void ShardFrontHost::pump_cross() {
    const std::size_t depth = options_.cross_pipeline_depth;
    // Dispatch in admission order (lowest id first). At depth 1 the
    // oldest live commit is always runnable when the lane frees — every
    // commit admitted before it has completed — so this loop degenerates
    // to the serialized global FIFO.
    while (!ready_.empty() &&
           (depth == 0 || cross_inflight_ < depth)) {
        const CrossLockTable::CommitId id = ready_.top();
        ready_.pop();
        CrossCommit* commit = commits_.find(id);
        TROXY_ASSERT(commit != nullptr, "ready commit without record");
        ++cross_inflight_;
        cross_inflight_peak_ = std::max<std::uint64_t>(
            cross_inflight_peak_, cross_inflight_);
        cross_lock_wait_total_ +=
            fabric_.simulator().now() - commit->admitted_at;
        send_cross_step(*commit);
    }
}

void ShardFrontHost::send_cross_step(CrossCommit& commit) {
    // The full request goes to every touched shard: each shard's service
    // executes it against the keys it owns, so the owner of every key in
    // the closure sees the write in its ordered log.
    auto on_reply = [this, id = commit.id](const Bytes& reply) {
        advance_cross(id, reply);
    };
    static_assert(sizeof(on_reply) <= 2 * sizeof(void*),
                  "the reply callback must fit std::function's buffer");
    upstreams_[static_cast<std::size_t>(commit.shards[commit.next])]
        ->send(commit.request, on_reply);
}

void ShardFrontHost::advance_cross(CrossLockTable::CommitId id,
                                   const Bytes& reply) {
    CrossCommit* commit = commits_.find(id);
    if (commit == nullptr) return;  // pre-crash straggler
    if (commit->shards[commit->next] == commit->owner) {
        commit->owner_reply.assign(reply.begin(), reply.end());
    }
    ++commit->next;
    if (commit->next < commit->shards.size()) {
        send_cross_step(*commit);
        return;
    }
    // Every shard committed: release the owner's reply. Releasing only
    // now is what makes the write visible-atomic to this client — a
    // follow-up read of any touched key (routed to that key's owner
    // shard) lands after that shard's commit.
    ++cross_commits_;
    cross_latencies_.push_back(fabric_.simulator().now() -
                               commit->admitted_at);
    released_ += sessions_.release_records(fabric_, node_, profile_,
                                           commit->to, commit->owner_reply);
    for (Bytes* buffer : {&commit->request, &commit->owner_reply}) {
        if (spare_buffers_.size() < kMaxSpareBuffers) {
            buffer->clear();
            spare_buffers_.push_back(std::move(*buffer));
        }
    }
    commits_.erase(id);
    --cross_inflight_;
    for (const CrossLockTable::CommitId successor : locks_.release(id)) {
        ready_.push(successor);
    }
    pump_cross();
}

Bytes ShardFrontHost::take_spare_buffer() {
    if (spare_buffers_.empty()) return {};
    Bytes buffer = std::move(spare_buffers_.back());
    spare_buffers_.pop_back();
    return buffer;
}

namespace {

double percentile_ms(std::vector<sim::Duration> samples, double p) {
    if (samples.empty()) return 0.0;
    std::sort(samples.begin(), samples.end());
    const double rank = p * static_cast<double>(samples.size() - 1);
    const auto index = static_cast<std::size_t>(rank + 0.5);
    return sim::to_millis(samples[std::min(index, samples.size() - 1)]);
}

}  // namespace

ShardFrontHost::Status ShardFrontHost::status() const {
    Status status;
    status.requests = requests_;
    status.released = released_;
    status.cross_shard_commits = cross_commits_;
    status.cross_queue_peak = cross_queue_peak_;
    status.cross_inflight_peak = cross_inflight_peak_;
    status.cross_lock_waits = cross_lock_waits_;
    status.cross_lock_wait_ms_total = sim::to_millis(cross_lock_wait_total_);
    status.cross_p50_ms = percentile_ms(cross_latencies_, 0.50);
    status.cross_p99_ms = percentile_ms(cross_latencies_, 0.99);
    status.contended_keys.assign(lock_waits_by_key_.begin(),
                                 lock_waits_by_key_.end());
    std::sort(status.contended_keys.begin(), status.contended_keys.end(),
              [](const auto& a, const auto& b) {
                  if (a.second != b.second) return a.second > b.second;
                  return a.first < b.first;
              });
    status.connections = sessions_.accepted();
    status.router_fanout = static_cast<int>(upstreams_.size());
    for (const auto& upstream : upstreams_) {
        status.upstream_failovers += upstream->failovers();
    }
    status.shards = shard_stats_;
    return status;
}

}  // namespace troxy::troxy_core

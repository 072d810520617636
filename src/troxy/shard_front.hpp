// Sharded Troxy front: one transparent endpoint over S replica groups.
//
// The front terminates ordinary legacy secure channels exactly like a
// contact Troxy — the client does a 1-RTT handshake against one pinned
// server key and speaks its unmodified application protocol — and hides
// a partitioned deployment behind that single endpoint. Every decrypted
// request is classified (the same Classifier the Troxy enclave uses),
// routed by the ShardMap on its state_key, and forwarded over a
// per-shard upstream session: the front runs one LegacyClient per shard
// whose failover list is the shard's whole replica group, so
// shard-internal faults (leader crash, view change, contact failover)
// are absorbed by the machinery that already exists for unsharded
// clients. Replies are matched back to the originating downstream
// connection and released strictly in request order, preserving the
// stream semantics a legacy client relies on.
//
// Reads ride each shard's cache-quorum fast path untouched — the front
// just picks the shard whose Troxy cache slice owns the key. Writes
// whose classifier closure (extra_keys) spans a second shard take the
// cross-shard lane: a pipelined commit engine admits any number of
// NON-OVERLAPPING cross-shard commits concurrently through a per-key
// lock table (keys = the classifier's state_key + extra_keys closure,
// canonicalized by sorting). Each admitted commit independently walks
// its ordered shard sequence — full request to every touched shard in
// ascending shard order, one shard at a time — and the owner shard's
// reply is released only after the last shard committed, keeping the
// write visible-atomic to its client. Conflicting commits queue only
// behind the specific keys they share: admission enqueues a commit on
// every key's FIFO atomically, so for any two conflicting commits the
// earlier-admitted one is ahead in EVERY shared queue — waits-for edges
// always point from younger to older, the waits-for graph is acyclic,
// and the engine is deadlock-free by construction. Per-connection
// replies still release strictly in request-slot order, so pipelining
// commits never reorders a client's stream. With cross_pipeline_depth
// = 1 the engine degenerates to the serialized single-commit-in-flight
// lane (global FIFO, same dispatch instants), replaying the pre-
// pipelining configuration bit-identically.
//
// The front holds no protocol state — no log, no votes, no service
// state — so the tier replicates freely (SplitBFT's untrusted-router
// argument): a deployment runs F independent fronts over the same S
// groups with consistent-hash client assignment (FrontMap). Fronts
// share nothing; cross-front per-key ordering rides entirely on each
// key's owner shard totally ordering its writers in one log. A crashed
// front loses only connection state and in-flight forwards — its
// clients fail over to the next front on the ring and retransmit, the
// same at-least-once retry any ordinary web service relies on.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <queue>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/flat_map.hpp"
#include "crypto/x25519.hpp"
#include "net/fabric.hpp"
#include "net/client_sessions.hpp"
#include "sim/cost.hpp"
#include "sim/time.hpp"
#include "troxy/enclave.hpp"
#include "troxy/legacy_client.hpp"
#include "troxy/shard_router.hpp"

namespace troxy::troxy_core {

/// Per-key FIFO lock table for pipelined cross-shard commits.
///
/// A commit is enqueued on every key of its (canonicalized) lock set in
/// one atomic admission; it is runnable when it heads every one of its
/// queues and holds its keys until released. Because admission order is
/// a total order and every shared queue preserves it, a commit can only
/// ever wait on commits admitted before it — the waits-for graph is
/// acyclic and per-key dispatch order equals admission order.
class CrossLockTable {
  public:
    using CommitId = std::uint64_t;

    struct Admission {
        bool runnable = false;
        /// Keys whose queues already had a holder — what this commit is
        /// waiting behind (empty iff runnable). The views point into the
        /// table and hold until its next admit().
        std::span<const std::string_view> blocked_on;
    };

    /// Enqueues `id` on every key's FIFO. `keys` must be canonical
    /// (sorted, deduplicated) and non-empty; ids must be admitted in
    /// strictly increasing order (the admission total order).
    Admission admit(CommitId id, const hybster::KeyList& keys);

    /// Completes `id` (must be runnable): pops it from its queues and
    /// returns every commit that became runnable as a result, in
    /// ascending id order. The span holds until the next release().
    std::span<const CommitId> release(CommitId id);

    [[nodiscard]] bool is_runnable(CommitId id) const;
    /// Live commits (admitted, not yet released).
    [[nodiscard]] std::size_t size() const noexcept {
        return keysets_.size();
    }
    [[nodiscard]] std::size_t keys_locked() const noexcept {
        return queues_.size();
    }
    void clear() {
        queues_.clear();
        keysets_.clear();
    }

  private:
    static constexpr CommitId kNone = ~CommitId{0};

    /// One key's FIFO, threaded through the queued commits' links: the
    /// head holds the key, and each commit links to the one admitted
    /// after it on that key.
    struct Queue {
        CommitId head = 0;
        CommitId tail = 0;
        std::size_t tail_link = 0;  // index of the key in the tail's links
    };
    struct Link {
        std::string key;
        CommitId next = kNone;  // kNone while this commit is the tail
    };

    FlatMap<std::string, Queue> queues_;
    FlatMap<CommitId, std::vector<Link>> keysets_;
    /// Emptied link vectors of released commits, reused by admit().
    std::vector<std::vector<Link>> spare_links_;
    /// The last admit()'s blocked keys and the last release()'s woken
    /// commits, reused so neither call allocates once warm.
    std::vector<std::string_view> blocked_;
    std::vector<CommitId> woken_;
};

class ShardFrontHost {
  public:
    /// One shard's replica group as the front sees it: contact/failover
    /// node list plus the pinned channel key per replica.
    struct Backend {
        std::vector<sim::NodeId> servers;
        std::vector<crypto::X25519Key> pinned_keys;
    };

    struct Options {
        /// Upstream session knobs (per-shard LegacyClients). The tighter
        /// the timeout, the faster the front follows a shard's failover.
        LegacyClient::Options upstream;
        /// Cross-shard commits allowed in flight concurrently: 0 =
        /// unbounded (the pipelined lock-table engine), 1 = the
        /// serialized single-commit lane (bit-identical replay of the
        /// pre-pipelining flow), k = bounded pipelining.
        std::size_t cross_pipeline_depth = 0;
    };

    struct ShardStats {
        std::uint64_t forwarded = 0;  // requests routed to this shard
        std::uint64_t replies = 0;    // shard-local replies released
        std::uint64_t reads = 0;
        std::uint64_t writes = 0;
        /// Cross-shard commits this shard participated in.
        std::uint64_t cross_participations = 0;
    };

    struct Status {
        std::uint64_t requests = 0;           // classified + routed
        std::uint64_t released = 0;           // replies sent downstream
        std::uint64_t cross_shard_commits = 0;
        std::uint64_t cross_queue_peak = 0;   // live-commit high-water
        std::uint64_t cross_inflight_peak = 0;  // concurrent dispatches
        /// Commits that queued behind at least one locked key.
        std::uint64_t cross_lock_waits = 0;
        double cross_lock_wait_ms_total = 0.0;  // admission → dispatch
        /// End-to-end cross-commit latency (admission → owner-reply
        /// release), from every completed commit.
        double cross_p50_ms = 0.0;
        double cross_p99_ms = 0.0;
        /// Lock-wait count per key, most contended first (keys with at
        /// least one wait only).
        std::vector<std::pair<std::string, std::uint64_t>> contended_keys;
        std::uint64_t connections = 0;        // downstream channels accepted
        std::uint64_t upstream_failovers = 0; // sum over shard sessions
        int router_fanout = 0;                // upstream sessions (== S)
        std::vector<ShardStats> shards;
    };

    ShardFrontHost(net::Fabric& fabric, sim::Node& node, ShardMap map,
                   std::vector<Backend> backends,
                   crypto::X25519Keypair channel_identity,
                   Classifier classifier, const sim::CostProfile& profile,
                   Options options);

    /// Registers the fabric handlers (downstream client frames and
    /// upstream shard traffic share the front's node).
    void attach();

    /// Opens the S upstream sessions. Requests arriving before a shard's
    /// handshake completes queue inside that shard's LegacyClient.
    void start();

    /// Front crash: the process stops receiving (fabric detach), every
    /// downstream connection, in-flight forward and queued cross-shard
    /// commit dies. The shards are untouched — requests already on the
    /// wire may still execute (ordinary at-least-once exposure); clients
    /// fail over to another front and retransmit.
    void crash();
    /// Brings a crashed front back: re-attaches and opens fresh upstream
    /// sessions. Downstream clients re-handshake on contact.
    void restart();
    [[nodiscard]] bool crashed() const noexcept { return crashed_; }
    [[nodiscard]] std::uint64_t restarts() const noexcept {
        return restarts_;
    }

    [[nodiscard]] Status status() const;
    /// Raw cross-commit latency samples (admission → release), for
    /// merging percentiles across fronts; in no particular order.
    [[nodiscard]] const std::vector<sim::Duration>& cross_latencies()
        const noexcept {
        return cross_latencies_;
    }
    [[nodiscard]] sim::Node& node() noexcept { return node_; }
    [[nodiscard]] const ShardMap& map() const noexcept { return map_; }
    [[nodiscard]] LegacyClient& upstream(int shard) {
        return *upstreams_[static_cast<std::size_t>(shard)];
    }

  private:
    using Session = net::ClientSessions::Session;

    /// One live cross-shard commit: admitted into the lock table, then
    /// dispatched through its ordered two-shard (or N-shard) sequence.
    /// Its two buffers come from spare_buffers_ and go back there when
    /// the commit completes.
    struct CrossCommit {
        CrossLockTable::CommitId id = 0;
        net::ClientSessions::Ticket to;  // the owner reply's slot
        /// The request, sent to each shard in turn (each upstream session
        /// copies it into its own in-flight slot).
        Bytes request;
        ShardSet shards;          // forwarded one at a time, ascending
        hybster::KeyList keys;    // canonical lock set
        int owner = 0;            // shard whose reply the client sees
        std::size_t next = 0;
        Bytes owner_reply;
        sim::SimTime admitted_at = 0;
    };

    void on_message(sim::NodeId from, Bytes message);
    /// Routes one opened request. The view borrows the downstream
    /// channel's buffer; whatever must outlive the call copies it.
    void handle_request(Session& session, ByteView app_request);
    void forward_single(Session& session, int shard, bool is_read,
                        ByteView app_request);
    /// Releases forward `index`'s reply. A reply sent before the last
    /// crash (`epoch` behind) only counts: its entry was dropped.
    void complete_forward(std::uint32_t index, std::uint16_t shard,
                          std::uint16_t epoch, ByteView reply);
    void enqueue_cross(Session& session, ShardSet shards, int owner,
                       ByteView app_request,
                       const hybster::RequestInfo& info);
    /// Dispatches runnable commits while the depth budget allows, in
    /// admission order (lowest id first).
    void pump_cross();
    void send_cross_step(CrossCommit& commit);
    void advance_cross(CrossLockTable::CommitId id, const Bytes& reply);
    /// An empty buffer from spare_buffers_, or a fresh one.
    Bytes take_spare_buffer();

    net::Fabric& fabric_;
    sim::Node& node_;
    ShardMap map_;
    Classifier classifier_;
    const sim::CostProfile& profile_;
    Options options_;

    std::vector<std::unique_ptr<LegacyClient>> upstreams_;
    std::map<sim::NodeId, int> server_to_shard_;
    /// Reused split of an upstream Bundle frame.
    std::vector<ByteView> bundle_views_;

    /// Downstream sessions. Slots are assigned at classification time
    /// and released strictly in slot order, so pipelined replies keep
    /// the request order the legacy client's FIFO matching expects even
    /// when shards answer out of order; a client re-handshake fences off
    /// the old session's upstream completions.
    net::ClientSessions sessions_;

    /// Tickets of in-flight shard-local forwards. A forward's reply
    /// callback captures its index here rather than the 24-byte ticket,
    /// so the callback fits std::function's inline buffer; freed indices
    /// wait on free_forwards_ for the next forward. crash() drops every
    /// entry and bumps forward_epoch_, so a reply already scheduled
    /// before the crash cannot claim a reused entry (the epoch would
    /// have to wrap, 65,536 crashes, while that reply is pending).
    std::vector<net::ClientSessions::Ticket> forwards_;
    std::vector<std::uint32_t> free_forwards_;
    std::uint16_t forward_epoch_ = 0;

    // Pipelined cross-shard commit engine. Commit records are only
    // looked up by id (nothing iterates them), so they sit in a FlatMap.
    CrossLockTable locks_;
    FlatMap<CrossLockTable::CommitId, CrossCommit> commits_;
    /// Runnable, undispatched commits, lowest id on top. A commit turns
    /// runnable once (at admission or at its last predecessor's release),
    /// so no id is pushed twice.
    std::priority_queue<CrossLockTable::CommitId,
                        std::vector<CrossLockTable::CommitId>, std::greater<>>
        ready_;
    std::size_t cross_inflight_ = 0;
    CrossLockTable::CommitId next_commit_id_ = 0;
    /// Request and owner-reply buffers of completed commits, cleared,
    /// for the next admissions. Bounded: a burst beyond the bound frees
    /// what it does not keep.
    static constexpr std::size_t kMaxSpareBuffers = 512;
    std::vector<Bytes> spare_buffers_;

    bool crashed_ = false;
    std::uint64_t restarts_ = 0;

    std::uint64_t requests_ = 0;
    std::uint64_t released_ = 0;
    std::uint64_t cross_commits_ = 0;
    std::uint64_t cross_queue_peak_ = 0;
    std::uint64_t cross_inflight_peak_ = 0;
    std::uint64_t cross_lock_waits_ = 0;
    sim::Duration cross_lock_wait_total_ = 0;
    std::map<std::string, std::uint64_t, std::less<>> lock_waits_by_key_;
    /// status() sorts it in place (the order is all it changes), so the
    /// percentiles take no copy.
    mutable std::vector<sim::Duration> cross_latencies_;
    std::vector<ShardStats> shard_stats_;
};

}  // namespace troxy::troxy_core

// Hybster replica: BFT state machine replication in two profiles.
//
// Leader-based ordering: the leader accumulates requests into a Batch (cut
// at config.batch_size_max or after config.batch_delay), assigns it the
// next sequence number and broadcasts ONE certified PREPARE; every
// follower verifies each member request and broadcasts a certified COMMIT
// vote. Committed entries execute in sequence order, member by member,
// and the batch's REPLYs go to the host's deliver_replies hook in one
// call (a Troxy host authenticates them in the trusted subsystem and
// keeps the fast-read cache coherent, §IV-A). batch_size_max = 1 is the
// unbatched flow.
//
// The certifier the deployment hands the replica fixes its profile
// (hybster/certifier.hpp), and Config::validate ties it to the group size:
//
// * Hybrid (Hybster: 2f+1 replicas, TrinX). PREPAREs and COMMITs carry
//   trusted-counter certificates and followers check counter continuity
//   (value = seq - view_start + 1). An entry commits once f+1 replicas
//   (the leader's PREPARE counts as its COMMIT) vouch for the same batch:
//   two phases suffice because certified messages cannot equivocate.
// * PBFT (3f+1 replicas, link-MAC authenticators, no counter). The
//   PREPARE is the pre-prepare and the followers' COMMITs are the prepare
//   round: 2f matching ones make the entry prepared. Every replica then
//   broadcasts a commit-round COMMIT, and 2f+1 matching ones commit it.
//
// Commit, checkpoint stability and view-change assembly wait for the
// agreement quorum n - f; "at least one correct replica vouches"
// (state-transfer matches, the client's reply vote) stays f+1.
// Checkpoints every `checkpoint_interval` executed requests garbage-
// collect the log; certified VIEW-CHANGE/NEW-VIEW messages carrying the
// prepared batches replace an unresponsive leader (an uncut batch is
// folded back into the forwarded set and re-proposed); a restarted or
// lagging replica catches up through Merkle-chunked state transfer; and
// optimistic reads execute unordered (the PBFT profile's READ-ONE).
//
// The replica itself is *untrusted* code — it may be subjected to fault
// injection (crash, reply dropping/corruption) — while every certificate
// it emits goes through its certifier, so its misbehaviour is detectable
// exactly as in the paper's model.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <tuple>
#include <utility>
#include <vector>

#include "common/flat_map.hpp"
#include "hybster/certifier.hpp"
#include "hybster/config.hpp"
#include "hybster/messages.hpp"
#include "hybster/service.hpp"
#include "hybster/snapshot.hpp"
#include "net/envelope.hpp"
#include "net/outbox.hpp"
#include "sim/cost.hpp"

namespace troxy::hybster {

/// Injectable misbehaviour for experiments and tests. The replica is the
/// untrusted part of the machine; its trusted subsystem stays correct.
struct FaultProfile {
    bool crashed = false;          // drops everything (crash fault)
    bool drop_replies = false;     // executes but never sends replies
    bool corrupt_replies = false;  // flips bytes in the reply result
                                   // (after trusted authentication — the
                                   // voter must reject these)
    bool mute_agreement = false;   // sends no PREPARE/COMMIT (leader DoS)
};

/// A view's NewView as its ViewChange proofs determine it: the new
/// leader certifies it, and each follower recomputes it.
struct ViewDerivation {
    SequenceNumber start_seq = 0;  // above the highest stable checkpoint
    /// Slot i is start_seq + i: the reported Prepare of the highest view
    /// (ties: the lowest replica id), or nullptr for a no-op.
    std::vector<const Prepare*> slots;
};

/// Touches no replica state. nullopt unless `proofs` are at least `quorum`
/// ViewChanges for `view`, one per replica, whose slots fit one NewView;
/// the slots point into them.
std::optional<ViewDerivation> derive_new_view(
    int quorum, ViewNumber view, std::span<const ViewChange* const> proofs);

class Replica {
  public:
    struct Hooks {
        /// Verifies an incoming request's client certificate.
        std::function<bool(enclave::CostedCrypto&, const Request&)>
            verify_request;

        /// Authenticates and transmits the replies of executed requests:
        /// a whole executed batch in one call, a retransmitted reply or an
        /// optimistic read as a span of one. The hook owns transport
        /// (baseline: encrypt to each client's secure channel; Troxy:
        /// certify in the enclave, send to the contact replica) and must
        /// queue into the outbox. It may modify the replies.
        std::function<void(enclave::CostedCrypto&, net::Outbox&,
                           std::span<ExecutedReply>)>
            deliver_replies;
    };

    /// `certifier` fixes the profile: a TrinX for a 2f+1 hybrid group,
    /// link keys for a 3f+1 PBFT group.
    Replica(net::Fabric& fabric, sim::Node& node, Config config,
            std::uint32_t replica_id, ServicePtr service, Certifier certifier,
            const sim::CostProfile& profile, Hooks hooks);

    Replica(const Replica&) = delete;
    Replica& operator=(const Replica&) = delete;

    /// Entry point for a decoded Hybster message addressed to this node.
    void on_message(sim::NodeId from, Message&& message);
    /// Channel::Hybster payload entry, which every host uses: decodes,
    /// then forwards to the decoded entry. A Prepare's members decode
    /// into a recycled batch vector. A payload that fails to decode still
    /// costs the dispatch.
    void on_message(sim::NodeId from, ByteView payload);

    /// Local submission from a co-located component (the Troxy): orders
    /// the requests if leader, otherwise forwards them to the leader, in
    /// one metered step (one dispatch, one outbox flush), so a batching
    /// leader can cut them into a single Prepare. A `preformed` burst
    /// (e.g. the Troxy's conflicted fast-read fallbacks) enters the
    /// ordering pipeline as ONE batch: the leader cuts it into a single
    /// Prepare, split only at batch_size_max. All of handle_request's
    /// verification, retransmission and dedup logic applies per member.
    /// The requests are moved out of the span, so a caller can reuse the
    /// storage behind it.
    void submit(std::span<Request> requests, bool preformed = false);
    void submit(std::vector<Request> requests, bool preformed = false) {
        submit(std::span(requests), preformed);
    }

    /// Handles an optimistic (non-ordered) read: executes against the
    /// current state and replies immediately. Serves the PBFT-like
    /// baseline read optimization and Prophecy's READ-ONE.
    void execute_optimistic_read(const Request& request);

    /// Crash-recovery entry point: resets every piece of volatile state in
    /// place (the object must outlive a restart because scheduled timers
    /// capture `this`), installs a fresh service instance and starts the
    /// rejoin protocol via begin_rejoin(). The trusted subsystem (TrinX
    /// counters) is *not* reset — trusted state survives a crash of the
    /// untrusted part by design.
    void restart(ServicePtr fresh_service);

    /// Starts checkpoint state transfer: broadcast a StateRequest and,
    /// until f+1 peers agree on a snapshot, process nothing but
    /// StateResponses. After restoring, the replica forces a view change —
    /// a fresh view restarts everyone's ordering counters from a common
    /// origin and makes the new leader repropose the log tail above the
    /// checkpoint, which is how the rejoiner catches up to the quorum.
    void begin_rejoin();

    void set_faults(const FaultProfile& faults) noexcept { faults_ = faults; }

    [[nodiscard]] ViewNumber view() const noexcept { return view_; }
    [[nodiscard]] bool is_leader() const noexcept {
        return config_.leader_of(view_) == id_;
    }
    [[nodiscard]] SequenceNumber last_executed() const noexcept {
        return last_executed_;
    }
    [[nodiscard]] SequenceNumber last_stable() const noexcept {
        return last_stable_;
    }
    [[nodiscard]] std::uint64_t view_changes() const noexcept {
        return view_changes_;
    }
    [[nodiscard]] bool rejoining() const noexcept { return rejoining_; }
    [[nodiscard]] std::uint64_t state_transfers() const noexcept {
        return state_transfers_;
    }
    [[nodiscard]] const Config& config() const noexcept { return config_; }
    [[nodiscard]] std::uint32_t id() const noexcept { return id_; }
    [[nodiscard]] Service& service() noexcept { return *service_; }

    /// Cumulative execution-stage accounting (conflict-aware lanes).
    struct ExecStats {
        /// Committed batches run through the lane scheduler (only
        /// counted with execution_lanes > 1; one lane keeps the serial
        /// per-member charge).
        std::uint64_t scheduled_batches = 0;
        /// Members of those batches (noops excluded).
        std::uint64_t scheduled_requests = 0;
        /// Members that queued behind an earlier same-class member.
        std::uint64_t conflict_stalls = 0;
        /// Sum over batches of lanes carrying work (avg = /batches).
        std::uint64_t lanes_used_sum = 0;
        /// What the scheduled batches would have cost serially.
        sim::Duration serial_cost{0};
        /// Makespan actually charged for them.
        sim::Duration charged_cost{0};
        /// Leader: batches cut into Prepares (any lane count).
        std::uint64_t batches_cut = 0;
        /// Pre-formed bursts accepted via submit(..., preformed).
        std::uint64_t prebatched_submits = 0;
    };
    [[nodiscard]] const ExecStats& exec_stats() const noexcept {
        return exec_stats_;
    }

    /// Cumulative Merkle-incremental state-transfer accounting, both
    /// sides: as responder (sent/skipped/full) and as requester
    /// (received/reused/resumed).
    struct StateTransferStats {
        /// Responder: chunk payload bytes actually shipped.
        std::uint64_t bytes_sent = 0;
        /// Responder: what the served snapshots would have cost shipped
        /// whole (the monolithic-transfer baseline).
        std::uint64_t bytes_full = 0;
        std::uint64_t chunks_sent = 0;
        /// Responder: chunks withheld because the requester advertised
        /// their hashes.
        std::uint64_t chunks_skipped = 0;
        /// Requester: chunks received and verified against a manifest.
        std::uint64_t chunks_received = 0;
        /// Requester: manifest entries satisfied from the local durable
        /// chunk store instead of the wire.
        std::uint64_t chunks_reused = 0;
        /// Requester: transfers that continued past a retry with partial
        /// progress instead of restarting from byte zero.
        std::uint64_t transfers_resumed = 0;
    };
    [[nodiscard]] const StateTransferStats& state_stats() const noexcept {
        return state_stats_;
    }

    /// Wipes the durable chunk store — models losing the on-disk snapshot
    /// area in addition to the crash. Test/bench hook for measuring the
    /// full-transfer baseline.
    void clear_chunk_store() { chunk_store_.clear(); }

    /// Own checkpoint snapshots held: the stable one plus any newer ones
    /// still awaiting a quorum.
    [[nodiscard]] std::size_t retained_snapshots() const noexcept {
        return own_chunks_.size();
    }

    /// ViewChanges held for views up to `up_to`.
    [[nodiscard]] std::size_t retained_view_changes(
        ViewNumber up_to) const noexcept {
        std::size_t held = 0;
        for (const auto& [view, votes] : view_changes_rx_) {
            held += view <= up_to ? votes.size() : 0;
        }
        return held;
    }

    /// Log entries held: the sequence numbers above the stable checkpoint
    /// that this replica knows of.
    [[nodiscard]] std::size_t log_size() const noexcept {
        return log_.size();
    }

  private:
    struct LogEntry {
        std::optional<Prepare> prepare;
        /// One slot per replica id: the certified COMMIT it sent for this
        /// sequence number (PBFT profile: its prepare-round vote).
        std::vector<std::optional<Commit>> commits;
        /// PBFT profile only: one slot per replica id for its commit-round
        /// vote. Empty in the hybrid profile.
        std::vector<std::optional<Commit>> commit_round;
        bool executed = false;
    };
    using LogNode = std::map<SequenceNumber, LogEntry>::node_type;

    // --- message handlers (all charge costs to the passed meter) ---
    void handle_request(enclave::CostedCrypto& crypto, net::Outbox& outbox,
                        Request&& request);
    void handle_prepare(enclave::CostedCrypto& crypto, net::Outbox& outbox,
                        Prepare&& prepare);
    void handle_commit(enclave::CostedCrypto& crypto, net::Outbox& outbox,
                       Commit&& commit);
    void handle_checkpoint(enclave::CostedCrypto& crypto, net::Outbox& outbox,
                           CheckpointMsg&& checkpoint);
    void handle_view_change(enclave::CostedCrypto& crypto,
                            net::Outbox& outbox, ViewChange&& view_change);
    void handle_new_view(enclave::CostedCrypto& crypto, net::Outbox& outbox,
                         NewView&& new_view);

    // --- state transfer (crash-recovery rejoin + lag catch-up) ---
    void handle_state_request(enclave::CostedCrypto& crypto,
                              net::Outbox& outbox, StateRequest&& request);
    void handle_state_response(enclave::CostedCrypto& crypto,
                               net::Outbox& outbox, StateResponse&& response);
    void request_state_transfer(enclave::CostedCrypto& crypto,
                                net::Outbox& outbox);
    void begin_state_transfer(enclave::CostedCrypto& crypto,
                              net::Outbox& outbox);
    void adopt_state(enclave::CostedCrypto& crypto, net::Outbox& outbox,
                     ViewNumber view, SequenceNumber view_start,
                     SequenceNumber last_stable, Bytes snapshot,
                     ChunkedSnapshot chunked,
                     std::vector<CheckpointMsg> proof);
    /// Assembles the snapshot from the completed transfer's chunk set and
    /// adopts it.
    void complete_transfer(enclave::CostedCrypto& crypto,
                           net::Outbox& outbox);
    /// Makes checkpoint `seq` stable on `proof` (its f+1 certified
    /// votes) and bounds everything below it: truncates the log, drops
    /// older votes and own snapshots, and refills the durable chunk store
    /// from the stable snapshot when this replica holds it. The one place
    /// last_stable_ advances, whichever of our vote, a peer's vote or a
    /// state transfer completed the checkpoint.
    void stabilize(SequenceNumber seq, std::vector<CheckpointMsg> proof);
    void arm_state_transfer_timer();

    // --- ordering (leader batching) ---
    void enqueue_for_batch(enclave::CostedCrypto& crypto, net::Outbox& outbox,
                           const Request& request);
    void cut_batch(enclave::CostedCrypto& crypto, net::Outbox& outbox);
    void arm_batch_timer();
    void stash_pending_batch();
    [[nodiscard]] bool request_in_flight(const RequestId& id) const;
    void rebuild_in_flight();
    /// The log entry for `seq`, created on first use from a recycled node
    /// when one is spare.
    LogEntry& log_entry(SequenceNumber seq);
    /// Garbage-collects the log up to and including `seq` (a stable
    /// checkpoint): the nodes and batch vectors are kept for reuse with
    /// cleared slots.
    void truncate_log(SequenceNumber seq);
    /// How many log nodes, batch vectors and forwarded-request nodes each
    /// spare list keeps: an interval holds at most one entry per request,
    /// so two intervals cover the next interval plus the entries ordered
    /// ahead of the checkpoint.
    [[nodiscard]] std::size_t spare_limit() const noexcept {
        return 2 * config_.checkpoint_interval;
    }
    /// An empty batch vector, recycled when one is spare.
    std::vector<Request> take_spare_batch();
    /// Keeps `members`' capacity for a later batch (bounded by
    /// spare_limit()); its requests are released now.
    void recycle_batch(std::vector<Request>&& members);
    /// Records a request forwarded to the leader (a request already there
    /// stays as it is), in a recycled map node when one is spare.
    void remember_forwarded(Request request);
    /// Drops an executed request from forwarded_, keeping its node.
    void forget_forwarded(const RequestId& id);
    void try_execute(enclave::CostedCrypto& crypto, net::Outbox& outbox);
    void execute_entry(enclave::CostedCrypto& crypto, net::Outbox& outbox,
                       SequenceNumber seq, LogEntry& entry);
    /// The leader's PREPARE plus agreement-quorum − 1 matching COMMIT
    /// votes from followers. Hybrid profile: committed. PBFT profile: the
    /// prepare round is done.
    [[nodiscard]] bool prepared(const LogEntry& entry) const;
    [[nodiscard]] bool committed(const LogEntry& entry) const;
    /// PBFT profile: once `seq` is prepared, certifies and broadcasts this
    /// replica's commit-round vote (once).
    void maybe_commit_round(enclave::CostedCrypto& crypto,
                            net::Outbox& outbox, SequenceNumber seq,
                            LogEntry& entry);
    void maybe_checkpoint(enclave::CostedCrypto& crypto, net::Outbox& outbox);
    /// Certified checkpoint votes for one (seq, digest), by replica id.
    using CheckpointVotes = std::map<std::uint32_t, CheckpointMsg>;
    /// The quorum `votes` as a stability proof, built in the previous
    /// proof's buffer.
    std::vector<CheckpointMsg> quorum_proof(const CheckpointVotes& votes);

    // --- view change ---
    void start_view_change(ViewNumber new_view);
    void maybe_assemble_new_view(enclave::CostedCrypto& crypto,
                                 net::Outbox& outbox, ViewNumber view);
    /// Moves to `nv`'s view, leader and followers alike.
    void install_view(enclave::CostedCrypto& crypto, net::Outbox& outbox,
                      NewView& nv);
    void reissue_forwarded(enclave::CostedCrypto& crypto,
                           net::Outbox& outbox);
    void arm_progress_timer();

    // --- plumbing ---
    /// Builds the per-handler send buffer; coalesces destination bursts
    /// into Bundle frames when the config enables wire coalescing.
    [[nodiscard]] net::Outbox make_outbox() {
        return net::Outbox(fabric_, node_, config_.coalesce_wire,
                           &config_.transport);
    }
    /// Encode the concrete message (Prepare, Commit, ...) straight into
    /// pooled wire frames.
    template <typename T>
    void broadcast(net::Outbox& outbox, const T& message);
    template <typename T>
    void send_to(net::Outbox& outbox, std::uint32_t replica,
                 const T& message);
    /// PBFT profile: there are no counters, so a COMMIT's counter_value
    /// names its round instead.
    static constexpr CounterValue kPrepareRound = 1;
    static constexpr CounterValue kCommitRound = 2;
    [[nodiscard]] bool pbft() const noexcept { return !certifier_.hybrid(); }
    [[nodiscard]] CounterValue expected_counter(SequenceNumber seq) const;
    [[nodiscard]] static enclave::CounterId prepare_counter_id(ViewNumber view);
    [[nodiscard]] enclave::CounterId commit_counter_id() const;

    net::Fabric& fabric_;
    sim::Node& node_;
    Config config_;
    std::uint32_t id_;
    ServicePtr service_;
    Certifier certifier_;
    const sim::CostProfile& profile_;
    Hooks hooks_;
    FaultProfile faults_;
    /// Staging buffer for variable hash inputs (request signed views,
    /// batch digest concatenations); reused across messages.
    Bytes scratch_;

    ViewNumber view_ = 0;
    SequenceNumber view_start_ = 1;  // first sequence number of this view
    SequenceNumber next_seq_ = 1;    // leader: next to assign
    SequenceNumber last_executed_ = 0;
    SequenceNumber last_stable_ = 0;
    std::map<SequenceNumber, LogEntry> log_;
    /// Log nodes freed by truncate_log(), reused by log_entry(): their
    /// commit slots keep their capacity, so steady-state ordering
    /// allocates no log memory.
    std::vector<LogNode> spare_log_;
    /// Cleared batch buffers of truncated entries and of Prepares that
    /// were not installed: a leader refills pending_batch_ from them when
    /// it cuts, a follower decodes a Prepare's members into one.
    std::vector<std::vector<Request>> spare_batches_;
    /// An executed batch's replies on their way to deliver_replies;
    /// emptied after each call, its capacity kept.
    std::vector<ExecutedReply> executed_;

    // Leader batching: verified requests waiting for the current batch to
    // be cut. Non-empty only on the leader between an enqueue and the
    // size/delay-triggered cut; drained back into forwarded_ when a view
    // change interrupts an uncut batch.
    std::vector<Request> pending_batch_;
    std::uint64_t batch_timer_generation_ = 0;
    bool batch_timer_armed_ = false;

    // Index over pending_batch_ plus the members of every unexecuted
    // prepared log entry: the duplicate-suppression check on the leader's
    // submission hot path must not scan the log (O(log span × batch size)
    // per request at large batches). Updated at enqueue, prepare install
    // and execute; rebuilt wholesale on the rare paths that replace the
    // log (view change, state transfer, restart).
    FlatSet<RequestId> in_flight_;

    // True while submit() feeds a pre-formed burst through
    // handle_request: enqueue_for_batch accumulates without cutting (up
    // to batch_size_max) or arming the delay timer; the remainder is cut
    // as one batch when the burst ends.
    bool prebatching_ = false;

    ExecStats exec_stats_;

    // Requests executed since the last checkpoint cut. The checkpoint
    // interval counts requests (batch members), not sequence numbers, so
    // batching does not stretch the log span between checkpoints; all
    // replicas execute identical batches in identical order, hence they
    // trigger checkpoints at identical sequence numbers.
    std::uint64_t executed_since_checkpoint_ = 0;

    // Duplicate suppression + retransmit support: last reply per client.
    struct ClientRecord {
        std::uint64_t last_number = 0;
        std::optional<Reply> last_reply;
        std::optional<Request> last_request;
    };
    std::map<sim::NodeId, ClientRecord> clients_;

    // Checkpoint collection: seq → digest → certified vote per replica.
    // Full messages are kept (not just ids) so the f+1 votes behind the
    // stable checkpoint can be handed out as a state-transfer proof.
    std::map<SequenceNumber, std::map<crypto::Sha256Digest, CheckpointVotes>>
        checkpoint_votes_;
    /// Own chunked checkpoint snapshots: the stable one, which
    /// handle_state_request serves, and any newer ones not yet stable.
    /// stabilize() erases everything below the stable one.
    std::map<SequenceNumber, ChunkedSnapshot> own_chunks_;
    /// The f+1 certified votes that made last_stable_ stable; attached to
    /// StateResponses so one response suffices to prove the snapshot.
    std::vector<CheckpointMsg> stable_proof_;

    /// Durable chunk store (leaf hash → chunk bytes): models the
    /// *untrusted* on-disk snapshot area, so restart() deliberately keeps
    /// it. It needs no trust — every chunk a transfer consumes is
    /// re-verified against the certified Merkle root, so a corrupted or
    /// rolled-back disk can only cause a re-fetch, never a wrong state.
    /// Rebuilt from the newest stable checkpoint's chunks; extended by
    /// in-progress transfers (which is what makes them resumable).
    /// Values are shared with own_chunks_ and in-flight wire frames, so
    /// banking or rebuilding never copies chunk payloads.
    std::map<Bytes, std::shared_ptr<const Bytes>> chunk_store_;

    // Requests forwarded to the leader but not yet executed locally; a
    // non-empty set keeps the progress timer armed so an unresponsive
    // leader is eventually suspected, and pending requests are re-ordered
    // or re-forwarded after a view change (they may have died with the
    // old leader). Kept in RequestId order, which reissue_forwarded()
    // follows.
    std::map<RequestId, Request> forwarded_;
    /// Nodes of executed forwarded requests, their requests released;
    /// remember_forwarded() reuses them.
    std::vector<std::map<RequestId, Request>::node_type> spare_forwarded_;

    // View change state.
    std::map<ViewNumber, std::map<std::uint32_t, ViewChange>> view_changes_rx_;
    ViewNumber highest_view_change_sent_ = 0;
    bool in_view_change_ = false;
    std::uint64_t view_changes_ = 0;
    std::uint64_t timer_generation_ = 0;
    bool timer_armed_ = false;

    // State transfer. `rejoining_` gates everything but StateResponses
    // (post-restart the replica has no state to safely act on);
    // `awaiting_state_` alone marks a *live* replica that fell behind a
    // stable checkpoint and keeps participating while it waits.
    // A response carrying a checkpoint proof is adopted on its own;
    // proofless responses (last_stable == 0) are collected per coordinate
    // tuple (view, view_start, last_stable, snapshot digest) until f+1
    // responders match.
    bool rejoining_ = false;
    bool awaiting_state_ = false;
    std::uint64_t state_transfers_ = 0;
    std::uint64_t state_timer_generation_ = 0;
    std::map<std::tuple<ViewNumber, SequenceNumber, SequenceNumber, Bytes>,
             std::pair<std::set<std::uint32_t>, StateResponse>>
        state_responses_;

    /// A proven chunked transfer in progress. Survives retries (the
    /// resume path: a retried StateRequest advertises everything already
    /// received) and is only replaced by a transfer for a *newer* stable
    /// checkpoint; cleared on adoption and restart.
    struct TransferProgress {
        SequenceNumber seq = 0;
        crypto::Sha256Digest root{};
        std::vector<crypto::Sha256Digest> manifest;
        std::vector<CheckpointMsg> proof;
        ViewNumber view = 0;
        SequenceNumber view_start = 0;
        std::set<std::uint32_t> missing;  // manifest indices still needed
        std::uint64_t received = 0;
        bool resume_counted = false;
    };
    std::optional<TransferProgress> transfer_;
    StateTransferStats state_stats_;
};

}  // namespace troxy::hybster

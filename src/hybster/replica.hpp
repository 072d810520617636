// Hybster replica: hybrid-fault-model BFT state machine replication.
//
// Leader-based ordering with trusted-counter certificates (TrinX):
//
//   REQUEST → the leader accumulates requests into a Batch (cut when it
//   reaches config.batch_size_max or after config.batch_delay, whichever
//   comes first), assigns the batch the next sequence number and
//   broadcasts ONE PREPARE certified with its per-view ordering counter;
//   every follower validates the counter continuity (value = seq -
//   view_start + 1), verifies each member request, certifies a COMMIT
//   with its own counter and broadcasts it. An entry is committed once
//   f+1 distinct replicas (the leader's PREPARE counts as its COMMIT)
//   vouch for the same batch digest — sufficient in the hybrid fault
//   model because certified messages cannot equivocate. Committed entries
//   execute in sequence order, member by member; each replica emits one
//   REPLY per member through the host's deliver_reply hook (which in a
//   Troxy deployment authenticates it inside the trusted subsystem and
//   keeps the fast-read cache coherent, §IV-A). Batching amortizes the
//   trusted-counter certification — the dominant ordered-path cost —
//   across the batch; batch_size_max = 1 reproduces the unbatched flow.
//
// Checkpoints every `checkpoint_interval` executed *requests* (batch
// members) garbage-collect the log; view changes replace an unresponsive
// leader using certified VIEW-CHANGE/NEW-VIEW messages carrying the
// prepared-batch history (an uncut pending batch is folded back into the
// forwarded set and re-proposed in the new view).
//
// The replica itself is *untrusted* code — it may be subjected to fault
// injection (crash, reply dropping/corruption) — while every certificate
// it emits goes through the trusted TrinX subsystem, so its misbehaviour
// is detectable exactly as in the paper's model.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <set>
#include <tuple>
#include <unordered_set>
#include <utility>

#include "enclave/trinx.hpp"
#include "hybster/adaptive.hpp"
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

class Replica {
  public:
    struct Hooks {
        /// Verifies an incoming request's client certificate.
        std::function<bool(enclave::CostedCrypto&, const Request&)>
            verify_request;

        /// Authenticates and transmits a reply for an executed request.
        /// The hook owns transport (baseline: encrypt to the client's
        /// secure channel; Troxy: certify in the enclave, send to the
        /// contact replica) and must queue into the outbox.
        std::function<void(enclave::CostedCrypto&, net::Outbox&,
                           const Request&, Reply)>
            deliver_reply;

        /// One executed batch member awaiting delivery. The request
        /// pointer stays valid for the duration of the hook call.
        struct ExecutedReply {
            const Request* request = nullptr;
            Reply reply;
        };
        /// Batched variant: when set, an executed batch's replies are
        /// delivered in ONE call (a Troxy host certifies them all in a
        /// single enclave transition). Retransmissions and optimistic
        /// reads still go through deliver_reply.
        std::function<void(enclave::CostedCrypto&, net::Outbox&,
                           std::vector<ExecutedReply>&&)>
            deliver_replies;
    };

    Replica(net::Fabric& fabric, sim::Node& node, Config config,
            std::uint32_t replica_id, ServicePtr service,
            std::shared_ptr<enclave::TrinX> trinx,
            const sim::CostProfile& profile, Hooks hooks);

    Replica(const Replica&) = delete;
    Replica& operator=(const Replica&) = delete;

    /// Entry point for Channel::Hybster payloads addressed to this node.
    void on_message(sim::NodeId from, ByteView payload);

    /// Local submission from a co-located component (the Troxy): orders
    /// the request if leader, otherwise forwards it to the leader.
    void submit(const Request& request);

    /// Batched local submission: handles several pending client requests
    /// in one metered step (one dispatch, one outbox flush), letting a
    /// batching leader cut them into a single Prepare.
    void submit_all(std::vector<Request> requests);

    /// Pre-formed batch submission: a burst that should enter the
    /// ordering pipeline as ONE batch (e.g. the Troxy's conflicted
    /// fast-read fallbacks). On the leader the whole burst is cut into a
    /// single Prepare (split only at batch_size_max); on a follower the
    /// burst is forwarded in one metered step and rides one coalesced
    /// wire record. All of handle_request's verification, retransmission
    /// and dedup logic still applies per member.
    void submit_prebatched(std::vector<Request> requests);

    /// Handles an optimistic (non-ordered) read: executes against the
    /// current state and replies immediately. Used by the PBFT-like
    /// baseline read optimization.
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
    /// Smoothed served-load estimate of the leader's batch controller
    /// (requests per batch-delay window, ×100). For benches/Status.
    [[nodiscard]] std::uint64_t batch_ewma_x100() const noexcept {
        return batch_controller_.ewma_x100();
    }

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
        /// Pre-formed bursts accepted via submit_prebatched().
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

  private:
    struct LogEntry {
        std::optional<Prepare> prepare;
        std::map<std::uint32_t, Commit> commits;
        bool executed = false;
    };

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
    /// Ships one window of the chunk stream as a zero-copy FragmentChain
    /// (inline index/length prefixes over shared chunk buffers);
    /// materializes byte-identically to the flat StateResponse frame.
    void send_state_window(net::Outbox& outbox, const StateResponse& base,
                           const ChunkedSnapshot& chunked,
                           const std::vector<std::uint32_t>& to_send,
                           std::size_t start, std::size_t end,
                           std::uint32_t requester);
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
    /// Replaces the durable chunk store's contents with the chunks of the
    /// now-stable checkpoint.
    void rebuild_chunk_store(const ChunkedSnapshot& chunked);
    void arm_state_transfer_timer();

    // --- ordering (leader batching) ---
    void enqueue_for_batch(enclave::CostedCrypto& crypto, net::Outbox& outbox,
                           const Request& request);
    void cut_batch(enclave::CostedCrypto& crypto, net::Outbox& outbox);
    void arm_batch_timer();
    void stash_pending_batch();
    [[nodiscard]] bool request_in_flight(const RequestId& id) const;
    void rebuild_in_flight();
    void try_execute(enclave::CostedCrypto& crypto, net::Outbox& outbox);
    void execute_entry(enclave::CostedCrypto& crypto, net::Outbox& outbox,
                       SequenceNumber seq, LogEntry& entry);
    [[nodiscard]] bool committed(const LogEntry& entry) const;
    void maybe_checkpoint(enclave::CostedCrypto& crypto, net::Outbox& outbox);

    // --- view change ---
    void start_view_change(ViewNumber new_view);
    void maybe_assemble_new_view(enclave::CostedCrypto& crypto,
                                 net::Outbox& outbox, ViewNumber view);
    void reissue_forwarded(enclave::CostedCrypto& crypto,
                           net::Outbox& outbox);
    void arm_progress_timer();

    // --- plumbing ---
    /// Builds the per-handler send buffer; coalesces destination bursts
    /// into Bundle frames when the config enables wire coalescing.
    [[nodiscard]] net::Outbox make_outbox() {
        return net::Outbox(fabric_, node_, config_.coalesce_wire,
                           /*record_cost=*/0, config_.wire_zero_copy,
                           &config_.transport);
    }
    /// Encode the concrete message (Prepare, Commit, ...) straight into
    /// pooled wire frames.
    template <typename T>
    void broadcast(net::Outbox& outbox, const T& message);
    template <typename T>
    void send_to(net::Outbox& outbox, std::uint32_t replica,
                 const T& message);
    [[nodiscard]] CounterValue expected_counter(SequenceNumber seq) const;
    [[nodiscard]] enclave::CounterId prepare_counter_id() const;
    [[nodiscard]] enclave::CounterId commit_counter_id() const;

    net::Fabric& fabric_;
    sim::Node& node_;
    Config config_;
    std::uint32_t id_;
    ServicePtr service_;
    std::shared_ptr<enclave::TrinX> trinx_;
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

    // Leader batching: verified requests waiting for the current batch to
    // be cut. Non-empty only on the leader between an enqueue and the
    // size/delay-triggered cut; drained back into forwarded_ when a view
    // change interrupts an uncut batch.
    std::vector<Request> pending_batch_;
    std::uint64_t batch_timer_generation_ = 0;
    bool batch_timer_armed_ = false;
    /// Load tracker for config_.adaptive_batching: shrinks the effective
    /// cut boundary under light load (idle = single-request latency).
    AdaptiveBatchController batch_controller_;

    // Index over pending_batch_ plus the members of every unexecuted
    // prepared log entry: the duplicate-suppression check on the leader's
    // submission hot path must not scan the log (O(log span × batch size)
    // per request at large batches). Updated at enqueue, prepare install
    // and execute; rebuilt wholesale on the rare paths that replace the
    // log (view change, state transfer, restart).
    std::unordered_set<RequestId, RequestIdHash> in_flight_;

    // True while submit_prebatched() feeds a pre-formed burst through
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
    std::map<SequenceNumber,
             std::map<Bytes, std::map<std::uint32_t, CheckpointMsg>>>
        checkpoint_votes_;
    std::map<SequenceNumber, Bytes> own_checkpoints_;  // seq → snapshot
    /// Chunked form of own_checkpoints_ (same keys, pruned together):
    /// what handle_state_request serves from.
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
    // old leader).
    std::map<RequestId, Request> forwarded_;

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

// Static configuration of a Hybster group.
#pragma once

#include <cstdint>
#include <vector>

#include "common/assert.hpp"
#include "sim/cost.hpp"
#include "sim/node.hpp"
#include "sim/time.hpp"

namespace troxy::hybster {

using ViewNumber = std::uint64_t;
using SequenceNumber = std::uint64_t;

/// Wire cap on a Prepare's batch: followers reject larger batches.
inline constexpr std::uint32_t kMaxBatchSize = 1u << 16;

/// The replica pipeline knobs: ordering batch, wire coalescing, transport,
/// execution lanes and state transfer. Declared once here; Config and every
/// harness options struct that configures a replica group inherit them, so
/// a builder forwards the set with one slice assignment.
struct PipelineOptions {
    /// Maximum requests the leader orders under one Prepare/Commit round
    /// (one trusted-counter certification per batch). 1 = unbatched: the
    /// pre-batching message flow, request for request.
    std::size_t batch_size_max = 1;

    /// How long the leader holds an incomplete batch before cutting it
    /// (the max-delay bound: an idle system keeps single-request latency).
    /// 0 = cut immediately after every enqueue, i.e. batching disabled
    /// regardless of batch_size_max. Must stay well below
    /// view_change_timeout or followers will suspect a batching leader.
    sim::Duration batch_delay = 0;

    /// Coalesce each handler's outgoing burst into one Bundle frame per
    /// destination (one wire record instead of N). Off by default so the
    /// unbatched message flow stays byte-identical to the seed.
    bool coalesce_wire = false;

    /// Per-record transport send cost (syscall vs kernel-bypass doorbell)
    /// charged by each Outbox flush; a deployment builder also arms the
    /// network's in-flight bound from its credit_window. The default
    /// none() charges nothing — the seed's implicit model.
    sim::TransportProfile transport = sim::TransportProfile::none();

    /// Modeled execution lanes per replica (state-machine parallelism).
    /// A committed batch is partitioned into conflict classes by the
    /// service's touched-key sets; disjoint classes run on parallel
    /// lanes and the batch's charged CPU time is the makespan of a
    /// greedy schedule instead of the serial sum. 1 = today's serial
    /// execution, cost- and wire-identical.
    std::size_t execution_lanes = 1;

    /// Snapshot chunk size for Merkle-incremental state transfer: service
    /// checkpoints are split into chunks of this many bytes, hashed into
    /// a Merkle tree whose root is the certified checkpoint digest.
    std::size_t state_chunk_size = 4096;

    /// Maximum chunks shipped per StateResponse message; a transfer
    /// larger than this becomes a stream of responses.
    std::size_t state_chunks_per_message = 64;

    bool operator==(const PipelineOptions&) const = default;
};

struct Config : PipelineOptions {
    /// Tolerated Byzantine faults. The hybrid fault model needs 2f+1
    /// replicas (§III-B); the PBFT profile, which has no trusted counter,
    /// needs 3f+1.
    int f = 1;

    /// Node ids of the replicas, index == replica id.
    std::vector<sim::NodeId> replicas;

    /// Ordered requests per checkpoint. Counted in *requests* (batch
    /// members), not sequence numbers, so batching does not stretch the
    /// distance between checkpoints; with batch_size_max = 1 the two
    /// notions coincide.
    SequenceNumber checkpoint_interval = 128;

    /// How long a non-leader waits for an ordered request it knows about
    /// before suspecting the leader.
    sim::Duration view_change_timeout = sim::milliseconds(500);

    /// Shard identity in a partitioned deployment: this group serves the
    /// shard_id-th key range of shard_count. The defaults are the
    /// single-group identity, so unsharded deployments are untouched.
    /// Ships in the config (not derived) so per-group keys, counters and
    /// certificates can never be replayed across shards by a Byzantine
    /// router.
    int shard_id = 0;
    int shard_count = 1;

    [[nodiscard]] int n() const noexcept {
        return static_cast<int>(replicas.size());
    }

    /// Agreement quorum, n - f: f+1 of 2f+1 in the hybrid profile, 2f+1
    /// of 3f+1 in the PBFT profile. Commits, checkpoint stability and
    /// view-change assembly wait for it.
    [[nodiscard]] int quorum() const noexcept { return n() - f; }

    /// Matching votes that include at least one correct replica: f+1 in
    /// both profiles. Client reply votes and state-transfer matches wait
    /// for it.
    [[nodiscard]] int reply_quorum() const noexcept { return f + 1; }

    [[nodiscard]] std::uint32_t leader_of(ViewNumber view) const noexcept {
        return static_cast<std::uint32_t>(view %
                                          static_cast<ViewNumber>(n()));
    }

    [[nodiscard]] sim::NodeId node_of(std::uint32_t replica) const {
        TROXY_ASSERT(replica < replicas.size(), "replica id out of range");
        return replicas[replica];
    }

    /// Replica id for a node id, or -1 if the node is not a replica.
    [[nodiscard]] int replica_of(sim::NodeId node) const noexcept {
        for (std::size_t i = 0; i < replicas.size(); ++i) {
            if (replicas[i] == node) return static_cast<int>(i);
        }
        return -1;
    }

    /// Checks the knobs for a group of either profile (a client's view).
    void validate() const {
        TROXY_ASSERT(n() == 2 * f + 1 || n() == 3 * f + 1,
                     "a group has 2f+1 (hybrid) or 3f+1 (PBFT) replicas");
        TROXY_ASSERT(checkpoint_interval > 0, "checkpoint interval > 0");
        TROXY_ASSERT(batch_size_max >= 1, "batch size must be at least 1");
        // Followers drop batches above kMaxBatchSize members; a leader
        // allowed to cut bigger ones would emit Prepares every follower
        // discards.
        TROXY_ASSERT(batch_size_max <= kMaxBatchSize,
                     "batch size must not exceed the wire limit (65536)");
        TROXY_ASSERT(batch_delay < view_change_timeout,
                     "batch delay must stay below the view-change timeout");
        TROXY_ASSERT(execution_lanes >= 1,
                     "at least one execution lane is required");
        TROXY_ASSERT(state_chunk_size >= 64,
                     "state chunks below 64 bytes are all hash overhead");
        TROXY_ASSERT(state_chunks_per_message >= 1,
                     "a state response must carry at least one chunk");
        TROXY_ASSERT(shard_count >= 1,
                     "a deployment has at least one shard");
        TROXY_ASSERT(shard_id >= 0 && shard_id < shard_count,
                     "shard id must lie in [0, shard_count)");
    }

    /// Also ties the group size to the replica's certifier: trusted
    /// counters (hybrid) with 2f+1 replicas, link MACs (PBFT) with 3f+1.
    void validate(bool trusted_counters) const {
        validate();
        TROXY_ASSERT(n() == (trusted_counters ? 2 : 3) * f + 1,
                     "TrinX needs 2f+1 replicas, link MACs need 3f+1");
    }
};

}  // namespace troxy::hybster

// Untrusted replica host of a Troxy-backed machine.
//
// One of these runs per replica server. It owns the noncritical tasks the
// paper keeps outside the enclave (§III-C): socket/connection management,
// timers, and actual send/receive operations. It demultiplexes incoming
// traffic between the Hybster replica, the Troxy ecall interface, and the
// Troxy↔Troxy cache channel, and forwards whatever the Troxy tells it to
// transmit. Being untrusted, it can be subjected to fault injection — but
// everything security-relevant already happened inside the enclave.
#pragma once

#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/flat_map.hpp"
#include "enclave/attestation.hpp"
#include "hybster/replica.hpp"
#include "troxy/enclave.hpp"

namespace troxy::troxy_core {

/// The Troxy host's pipeline knobs: voter and fast-read batching, reply
/// certification and the enclave recovery schedule. Declared once here;
/// TroxyReplicaHost::Options and the harness options structs inherit them.
struct HostPipelineOptions {
    /// Voter batching: maximum replies ingested by one handle_replies
    /// ecall. 1 = one ecall per reply, the paper's flow.
    std::size_t voter_batch_max = 1;
    /// Fast-read batching: maximum buffered cache queries before the
    /// host ships them as query batches (one per remote).
    /// 1 = one wire message and one remote ecall per query, the
    /// paper's flow.
    std::size_t fastread_batch_max = 1;
    /// Certify a whole executed batch's replies in one
    /// authenticate_replies ecall instead of one transition per reply.
    bool batch_reply_auth = false;
    /// Recover the host's enclave every period (0 = only explicit
    /// recover_enclave() calls). Replica i of n first recovers at
    /// period · (1 + i/n), so a group recovers one enclave at a time
    /// instead of tearing all of them down in lockstep.
    sim::Duration enclave_recovery_period = 0;

    bool operator==(const HostPipelineOptions&) const = default;
};

class TroxyReplicaHost {
  public:
    struct Options : HostPipelineOptions {
        TroxyOptions troxy;
        /// Retransmit interval for ordered requests awaiting votes.
        sim::Duration vote_timeout = sim::milliseconds(2000);
        /// Remote-cache-query timeout before falling back to ordering.
        sim::Duration fast_read_timeout = sim::milliseconds(50);
        /// Coalesce this host's outgoing flush bursts into one Bundle
        /// frame per destination (one wire record per burst). Every caller
        /// sets it equal to hybster::PipelineOptions::coalesce_wire; this
        /// twin stays only because perfbench sets it by name, and goes
        /// with the next benchmark change.
        bool coalesce_wire = false;
        /// How long the host holds an incomplete query burst before
        /// flushing (bounds added fast-read latency).
        sim::Duration fastread_batch_delay = sim::microseconds(100);

        // --- proactive enclave recovery (SecureSMART-style) ---
        /// Attestation context for recovery re-handshakes. Recovery is
        /// disabled while the authority is absent.
        std::shared_ptr<enclave::AttestationAuthority> authority;
        /// Expected enclave measurement the re-handshake checks against.
        enclave::Measurement measurement{};
    };

    TroxyReplicaHost(net::Fabric& fabric, sim::Node& node,
                     hybster::Config config, std::uint32_t replica_id,
                     hybster::ServicePtr service,
                     std::shared_ptr<enclave::TrinX> trinx,
                     crypto::X25519Keypair channel_identity,
                     Classifier classifier,
                     const sim::CostProfile& replica_profile,
                     const sim::CostProfile& troxy_profile, Options options,
                     std::uint64_t seed);

    /// Registers this host as its node's message handler.
    void attach();

    [[nodiscard]] hybster::Replica& replica() noexcept { return *replica_; }
    [[nodiscard]] TroxyEnclave& troxy() noexcept { return *troxy_; }
    [[nodiscard]] sim::Node& node() noexcept { return node_; }

    /// Fault injection on the untrusted part.
    void set_faults(const hybster::FaultProfile& faults) {
        faults_ = faults;
        replica_->set_faults(faults);
    }
    [[nodiscard]] const hybster::FaultProfile& faults() const noexcept {
        return faults_;
    }

    /// Whole-host crash: the machine stops processing and loses all
    /// volatile state. Incoming traffic and pending timers are dropped;
    /// only restart() brings it back.
    void crash();

    /// Whole-host restart after a crash(): the enclave loses its volatile
    /// state (cache, connections, votes — §IV-B), the replica restarts
    /// empty with a fresh service instance and rejoins via checkpoint
    /// state transfer. Trusted monotonic state (TrinX counters, the
    /// Troxy's request numbering) survives, as rollback protection
    /// requires.
    void restart(hybster::ServicePtr fresh_service);

    [[nodiscard]] bool crashed() const noexcept { return faults_.crashed; }
    [[nodiscard]] std::uint64_t restarts() const noexcept {
        return restarts_;
    }

    /// Proactive enclave recovery (§SecureSMART): tears the TroxyEnclave
    /// instance down and, after a 2 ms downtime window, brings up a
    /// FRESH instance gated by an attestation re-handshake against
    /// options.authority. All volatile enclave state is gone — secure-
    /// channel session keys rotate (clients must re-handshake; the pinned
    /// channel identity is kept so they can), the cache re-warms — while
    /// the trusted counters re-bind through a certified TrinX handover
    /// that can only raise values, so the recovered subsystem can never
    /// re-certify an old view. Client frames arriving during the window
    /// are buffered by the host and replayed transparently. Returns false
    /// when recovery cannot start (no authority, crashed, or one already
    /// in flight).
    bool recover_enclave();
    [[nodiscard]] std::uint64_t enclave_recoveries() const noexcept {
        return enclave_recoveries_;
    }

    /// Enclave counters plus the host's replica, recovery and wire
    /// counters — what the benches record.
    struct Status {
        TroxyEnclave::Status troxy;
        /// Replica execution-lane occupancy / conflict-stall counters.
        hybster::Replica::ExecStats exec;
        /// Merkle-incremental state-transfer accounting (both sides).
        hybster::Replica::StateTransferStats state;
        /// Proactive enclave recoveries completed on this host.
        std::uint64_t enclave_recoveries = 0;
        /// Client frames buffered across recovery downtime windows.
        std::uint64_t recovery_buffered_frames = 0;
        /// Wire-buffer pool behaviour of the host's network (shared
        /// across the fabric — cluster-wide counters, not per host).
        sim::BufferPool::Stats pool;
        /// Transport wire-path counters (shared, cluster-wide).
        sim::WireStats wire;
    };
    [[nodiscard]] Status status() const;

  private:
    void on_message(sim::NodeId from, Bytes message);
    /// Channel dispatch over a borrowed view of the wire frame; the owning
    /// caller recycles the buffer afterwards.
    void dispatch_message(sim::NodeId from, ByteView message);
    /// Dispatches the messages of an unbundled frame: replies for the
    /// local voter are decoded into reply slots so the whole burst enters
    /// the enclave through as few handle_replies transitions as
    /// voter_batch_max allows, and every other Hybster message is decoded
    /// in place; any other message goes through on_message() as a pooled
    /// copy.
    void dispatch_burst(sim::NodeId from, std::span<const ByteView> messages);
    /// Carries out an ecall's actions, then hands the set back to the
    /// enclave for reuse.
    void apply(enclave::CostMeter& meter, TroxyActions&& actions);
    void arm_vote_timer(std::uint64_t number);
    void arm_fast_read_timer(std::uint64_t query_id);

    // --- proactive enclave recovery ---
    /// Attests and swaps in the fresh enclave instance at the end of the
    /// downtime window, then replays buffered client frames.
    void finish_enclave_recovery(Bytes handover);
    void arm_recovery_timer(sim::Duration delay);
    /// Recycles the frames buffered during a recovery that will never be
    /// replayed (a crash, or a refused re-attestation).
    void drop_recovery_buffer();

    // --- voter batching (untrusted buffering; the enclave re-verifies
    // every reply, so the host holding or reordering them is harmless) ---
    /// Decodes an encoded Reply into the next free reply slot; true when
    /// it is well formed and addressed to this node's voter, which counts
    /// the slot as used. A slot that fails either check stays free.
    bool buffer_reply(ByteView encoded);
    /// Enters every used slot into the voter, in handle_replies
    /// transitions of at most voter_batch_max replies each.
    void flush_reply_buffer();
    void arm_voter_flush_timer();

    // --- fast-read query batching (untrusted buffering; each query
    // carries an enclave-made certificate, so the host can delay or batch
    // but not alter them) ---
    /// Routes the structured queries an ecall surfaced into the query
    /// buffer, flushing it at the flush boundary.
    void route_cache_queries(
        net::Outbox& outbox,
        std::vector<std::pair<sim::NodeId, CacheQuery>>&& queries);
    /// Ships every buffered burst: one query batch per remote (a lone
    /// query goes out in the plain single-message form).
    void flush_fastread_buffer(net::Outbox& outbox);
    void arm_fastread_flush_timer();

    net::Fabric& fabric_;
    sim::Node& node_;
    hybster::Config config_;
    const sim::CostProfile& troxy_profile_;
    Options options_;
    hybster::FaultProfile faults_;

    std::unique_ptr<TroxyEnclave> troxy_;
    std::unique_ptr<hybster::Replica> replica_;

    // Enclave construction context, kept so proactive recovery can build
    // the replacement instance: same replica id, same trusted counters,
    // same pinned channel identity (clients reconnect without re-pinning),
    // fresh everything else.
    std::uint32_t replica_id_;
    std::shared_ptr<enclave::TrinX> trinx_;
    crypto::X25519Keypair channel_identity_;
    Classifier classifier_;
    std::uint64_t seed_;

    // Proactive recovery state. Retired instances' counters accumulate
    // here so status() spans recoveries instead of resetting with each
    // fresh enclave (gauges — cache size, pending work — stay live).
    TroxyEnclave::Status retired_troxy_stats_;
    bool enclave_recovering_ = false;
    std::uint64_t enclave_recoveries_ = 0;
    std::uint64_t recovery_generation_ = 0;
    std::uint64_t recovery_nonce_ = 0;
    std::uint64_t recovery_buffered_frames_ = 0;
    std::vector<std::pair<sim::NodeId, Bytes>> recovery_buffer_;

    // Timer bookkeeping (untrusted, liveness only).
    FlatSet<std::uint64_t> votes_in_flight_;
    FlatSet<std::uint64_t> fast_reads_in_flight_;
    std::uint64_t restarts_ = 0;

    // Voter batching state (emptied on crash — buffered replies die with
    // the untrusted process; the senders' retransmit path covers them).
    // Reply slots: the first reply_count_ hold replies awaiting the
    // voter; every slot keeps its result capacity across flushes, so a
    // warm host decodes replies without allocating.
    std::vector<hybster::Reply> reply_buffer_;
    std::size_t reply_count_ = 0;
    std::uint64_t voter_flush_generation_ = 0;
    bool voter_timer_armed_ = false;

    // Fast-read query batching state (cleared on crash — buffered queries
    // die with the untrusted process; the fast-read timeout at the enclave
    // falls the reads back to ordering).
    // Queries in arrival order; a flush groups them per remote (`to`).
    struct BufferedQuery {
        sim::NodeId to = 0;
        std::size_t order = 0;
        CacheQuery query;
    };
    std::vector<BufferedQuery> fastread_buffer_;
    /// The arriving cache message, decoded into lists reused across
    /// arrivals.
    CacheBurst cache_burst_;
    std::uint64_t fastread_flush_generation_ = 0;
    bool fastread_timer_armed_ = false;

    // When the enclave's one thread (TCS) becomes free: every ecall
    // mutates shared trusted state (voter tables, cache, session keys), so
    // etroxy and ctroxy alike serialize them under one lock.
    sim::SimTime tcs_free_at_ = 0;

    // Staging buffer for the signed view of a request under verification.
    Bytes verify_scratch_;
    /// Reused split of an incoming Bundle frame.
    std::vector<ByteView> bundle_views_;
    /// Ordering batches whose deferred submit has run, for the next
    /// action set (the Fabric::acquire_queue idiom). A saturated node
    /// holds many submits in flight, hence the generous count bound.
    static constexpr std::size_t kMaxSpareOrders = 256;
    static constexpr std::size_t kMaxSpareOrderCapacity = 16;
    std::vector<std::vector<hybster::Request>> spare_orders_;
};

}  // namespace troxy::troxy_core

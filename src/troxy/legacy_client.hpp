// Legacy client — completely BFT-unaware.
//
// This is the point of the whole system: the client below implements only
// (a) a TLS-like secure channel to *one* server and (b) its application
// protocol. It knows nothing about replicas, quorums, voting or
// certificates. Failover works like for any ordinary service: if the
// connection times out, the client reconnects to the next address from
// its location service (§II-C, §III-D).
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "common/ring_queue.hpp"
#include "common/rng.hpp"
#include "crypto/x25519.hpp"
#include "enclave/meter.hpp"
#include "net/fabric.hpp"
#include "net/secure_channel.hpp"
#include "sim/cost.hpp"

namespace troxy::troxy_core {

class LegacyClient {
  public:
    struct Options {
        /// Time without any reply before the client reconnects to the
        /// next server (location-service failover).
        sim::Duration connection_timeout = sim::milliseconds(3000);
        /// Capped exponential backoff for repeated failovers: each
        /// consecutive failover doubles the watchdog period until
        /// backoff_cap. A client facing a dead or partitioned cluster
        /// cycles its address list progressively slower instead of
        /// hammering every server at the base rate.
        sim::Duration backoff_cap = sim::milliseconds(12000);
        /// Relative jitter (±fraction) applied to each backoff period
        /// from the client's seeded stream, desynchronizing clients that
        /// failed over together.
        double backoff_jitter = 0.2;
        /// Coalesce a burst of send() calls issued in the same instant
        /// into ONE secure-channel record (one AEAD pass, one wire
        /// transmission). Off by default: each request keeps its own
        /// record, the pre-coalescing behaviour.
        bool coalesce_sends = false;
    };

    /// Receives the reply. The reference is valid only during the call:
    /// it borrows a completion buffer the client reuses for a later reply.
    using ReplyCallback = std::function<void(const Bytes& app_reply)>;

    /// `servers` is the failover list from the location service; the
    /// client pins one channel identity key per server.
    LegacyClient(net::Fabric& fabric, sim::Node& node,
                 std::vector<sim::NodeId> servers,
                 std::vector<crypto::X25519Key> pinned_keys,
                 const sim::CostProfile& profile, Options options);

    /// Connects to the first server; `ready` fires once the secure
    /// channel is established.
    void start(std::function<void()> ready);

    /// Sends an application request; the callback fires with the reply.
    /// Replies arrive in request order (stream semantics), so pipelining
    /// is allowed. The request bytes are copied here, into the in-flight
    /// slot that keeps them for retransmission, so the caller's buffer
    /// may change or die as soon as send() returns. A warm client copies
    /// into a slot buffer an earlier request left behind.
    void send(ByteView app_request, ReplyCallback callback);
    /// send() of a buffer the caller gives up: the slot adopts it instead
    /// of copying, so a caller that builds each request in a fresh buffer
    /// costs no second one, however deep its backlog grows.
    void send(Bytes&& app_request, ReplyCallback callback);

    /// Goes dormant without destroying the object: drops the channel,
    /// the in-flight queue and any pending coalesced flush, and fences every
    /// armed watchdog. Used when the owning process crashes — pending
    /// simulator timers hold raw pointers to this client, so the object
    /// must outlive them; start() brings it back with a fresh session.
    void shutdown();

    /// Tears the secure channel down and opens a fresh session to the
    /// same server: a full handshake with new session keys, exactly what
    /// the server sees when one user departs and another connects.
    /// In-flight requests carry over and are retransmitted on the new
    /// session (same as failover).
    void reconnect();
    [[nodiscard]] std::uint64_t sessions() const noexcept {
        return handshake_counter_;
    }

    /// Entry point for Channel::Client payloads addressed to this node.
    void on_message(sim::NodeId from, ByteView payload);

    [[nodiscard]] bool connected() const noexcept {
        return channel_ && channel_->established();
    }
    [[nodiscard]] std::uint64_t failovers() const noexcept {
        return failovers_;
    }
    /// Failovers since the last successful reply (the backoff exponent).
    [[nodiscard]] std::uint64_t consecutive_failovers() const noexcept {
        return consecutive_failovers_;
    }
    /// The watchdog period currently in force (after backoff and jitter).
    [[nodiscard]] sim::Duration current_backoff() const noexcept {
        return current_backoff_;
    }
    [[nodiscard]] std::size_t outstanding() const noexcept {
        return outstanding_.size();
    }
    [[nodiscard]] sim::NodeId current_server() const noexcept {
        return servers_[server_index_];
    }

  private:
    void connect();
    void failover();
    void arm_watchdog();
    /// Seals the unflushed newest requests into one coalesced record.
    void flush_sends();
    /// Seals the request just queued on outstanding_ into its own record
    /// and sends it, or leaves it for the coalesced flush.
    void transmit_newest();

    net::Fabric& fabric_;
    sim::Node& node_;
    std::vector<sim::NodeId> servers_;
    std::vector<crypto::X25519Key> pinned_keys_;
    const sim::CostProfile& profile_;
    Options options_;

    std::size_t server_index_ = 0;
    std::optional<net::SecureChannelClient> channel_;
    std::function<void()> ready_;

    /// One in-flight request. A retired slot keeps its request buffer
    /// (cleared) for the next send() that lands on it.
    struct Outstanding {
        Bytes request;
        ReplyCallback callback;
    };
    /// FIFO: replies match in order. A ring that keeps its capacity and
    /// its slots' request buffers, so a warm session queues and retires
    /// requests without allocating.
    RingQueue<Outstanding> outstanding_;
    /// Reply callbacks with their replies, run once the record's
    /// processing time has elapsed. Each reply is copied into its
    /// completion's buffer; a run list keeps its completions, buffers
    /// included, and waits on a spare list for the next record, so a warm
    /// client allocates none. A front's upstream session has many records
    /// in processing at once.
    struct Completion {
        ReplyCallback callback;
        Bytes reply;
    };
    struct CompletionList {
        std::vector<Completion> items;
        std::size_t used = 0;
    };
    static constexpr std::size_t kMaxSpareCompletions = 64;
    std::vector<CompletionList> spare_completions_;
    /// The newest requests on outstanding_ still waiting for the
    /// end-of-instant coalesced flush (options_.coalesce_sends only;
    /// zeroed on reconnect — outstanding_ owns retransmission), and the
    /// flush's reused list of their views.
    std::size_t unflushed_ = 0;
    std::vector<ByteView> flush_views_;
    bool send_flush_armed_ = false;
    std::uint64_t failovers_ = 0;
    std::uint64_t consecutive_failovers_ = 0;
    sim::Duration current_backoff_ = 0;
    Rng backoff_rng_;
    std::uint64_t handshake_counter_ = 0;
    std::uint64_t watchdog_generation_ = 0;
    sim::SimTime last_activity_ = 0;
};

}  // namespace troxy::troxy_core

// The Troxy: trusted server-side substitute for the client-side BFT
// library (§III).
//
// Everything in this class is conceptually *inside the SGX enclave*: the
// secure-channel session keys, the voter, the fast-read cache and the
// trusted-counter subsystem. The untrusted replica host interacts with it
// exclusively through the ecall methods below (each charges its enclave
// transition through the EnclaveGate), hands it raw bytes, and transmits
// whatever the Troxy returns — it can delay or drop, but never forge or
// alter without detection.
//
// Ecall inventory (the paper's implementation keeps the interface at 16
// entry points; ours needs 9):
//   accept_connection, close_connection, handle_request, handle_replies,
//   authenticate_replies, handle_cache_queries, handle_cache_responses,
//   fast_read_timeout, retransmit.
// Every stage that handles replies, queries or responses has exactly one
// entry point, and it takes a span: one enclave transition votes a whole
// burst of replies, certifies a whole executed batch, answers a whole
// cache-query burst, or applies a whole cache-response burst — amortizing
// the transition cost and the per-source MAC setup across the batch (§V:
// transitions dominate the enclave hot path). A lone item is a span of
// one and costs what the item alone costs.
// Key provisioning happens at enclave construction through the
// attestation flow (enclave/attestation.hpp), not through an ecall.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>

#include "common/flat_map.hpp"
#include "common/rng.hpp"
#include "crypto/x25519.hpp"
#include "enclave/gate.hpp"
#include "enclave/trinx.hpp"
#include "hybster/config.hpp"
#include "hybster/messages.hpp"
#include "hybster/service.hpp"
#include "net/client_sessions.hpp"
#include "sim/pool.hpp"
#include "troxy/cache.hpp"
#include "troxy/cache_messages.hpp"

namespace troxy::troxy_core {

/// App-specific trusted parsing: classifies a legacy request (read/write
/// plus the state key it touches). Runs inside the enclave (§IV-A).
using Classifier = std::function<hybster::RequestInfo(ByteView app_request)>;

struct TroxyOptions {
    /// Enables the fast-read cache (§IV).
    bool fast_reads = true;
    std::size_t cache_capacity_bytes = 32ull * 1024 * 1024;
    MissRateMonitor::Options monitor;
    sim::EnclaveCosts enclave_costs = sim::EnclaveCosts::sgx_v1();
    /// false = the paper's "ctroxy" variant: same native code path but
    /// running outside SGX (JNI call costs only, no SGX transitions/EPC).
    bool inside_enclave = true;
};

/// What the untrusted host must do after an ecall returns: transmit the
/// listed wire messages and/or hand a BFT request to the local replica.
/// Each ecall fills an action set the enclave recycles: the host hands
/// it back through TroxyEnclave::recycle once carried out, and its
/// vectors keep their capacity for the next ecall.
struct TroxyActions {
    std::vector<std::pair<sim::NodeId, Bytes>> sends;
    /// Fast-read cache queries surfaced in structured form so the
    /// untrusted host can buffer concurrent queries per destination and
    /// ship a burst as one query batch (it only forwards — the
    /// certificate inside each query was created in the enclave, so the
    /// host can delay or drop but not alter).
    std::vector<std::pair<sim::NodeId, CacheQuery>> cache_queries;
    /// BFT requests to hand to the local replica for ordering (one ecall
    /// can surface several client requests when a record closes a gap).
    std::vector<hybster::Request> to_order;
    /// The burst should enter the ordering pipeline as ONE pre-formed
    /// batch (conflicted fast-read fallbacks surfaced together by one
    /// cache-response transition): Replica::submit's `preformed` flag.
    bool to_order_preformed = false;
    /// Ordered-request numbers that now need a retransmit/vote timer.
    std::vector<std::uint64_t> arm_vote_timers;
    /// Fast-read query ids that now need a timeout timer.
    std::vector<std::uint64_t> arm_fast_read_timers;
    /// Completion notifications so the untrusted host can cancel timers
    /// without an extra ecall (reveals only what the outgoing client
    /// record already reveals).
    std::vector<std::uint64_t> completed_votes;
    std::vector<std::uint64_t> completed_fast_reads;

    /// Empties every list, keeping its capacity.
    void clear() noexcept;
};

class TroxyEnclave {
  public:
    /// Every frame the enclave emits in TroxyActions::sends is written
    /// into a wire buffer from `pool`, the host network's buffer pool.
    TroxyEnclave(sim::NodeId host_node, std::uint32_t replica_id,
                 hybster::Config config,
                 std::shared_ptr<enclave::TrinX> trinx,
                 crypto::X25519Keypair channel_identity,
                 Classifier classifier, const sim::CostProfile& profile,
                 TroxyOptions options, std::uint64_t seed,
                 sim::BufferPool& pool);

    // ------------------------------------------------------------ ecalls

    /// Secure-channel establishment for a new client connection; returns
    /// the ServerHello to transmit.
    TroxyActions accept_connection(enclave::CostMeter& meter,
                                   sim::NodeId client, ByteView hello);

    /// Tears down a client connection, wiping its session state.
    void close_connection(enclave::CostMeter& meter, sim::NodeId client);

    /// Decrypts one client record, classifies it, and either starts the
    /// fast-read protocol or emits an authenticated BFT request (§III-C
    /// task 2 — decrypt and translate atomically).
    TroxyActions handle_request(enclave::CostMeter& meter, sim::NodeId client,
                                ByteView record);

    /// Voter (§III-C task 3): ingests a burst of replica replies in ONE
    /// enclave transition; a request's vote completes once f+1 matching,
    /// Troxy-authenticated replies arrived. Certificate checks keep a
    /// running MAC per source replica (only a source's first reply pays
    /// the MAC setup), completed votes for many requests surface from the
    /// single transition, and all client replies released to one
    /// connection are sealed into one secure-channel record (one AEAD
    /// pass). The replies are left as they came: the voter copies each
    /// distinct result once, so the host can decode the next burst into
    /// the same Reply objects.
    TroxyActions handle_replies(enclave::CostMeter& meter,
                                std::span<hybster::Reply> replies);

    /// Reply authentication for the *local* replica (§IV-A change (1)):
    /// certifies a run of executed replies in ONE enclave transition,
    /// writing each certificate into its reply. The certificates share a
    /// running MAC (only the first reply pays the MAC setup). Cache
    /// maintenance is per reply: write replies invalidate their state key
    /// before the certificate — and hence the write's visibility — exists;
    /// read replies populate the local cache.
    void authenticate_replies(enclave::CostMeter& meter,
                              std::span<hybster::ExecutedReply> batch);

    /// Remote side of the fast read (get_remote_cache_entry, Fig. 4):
    /// answers a query burst in ONE enclave transition. Requester
    /// certificates share a running MAC per source replica; each query is
    /// still verified individually, so a bad query drops only itself.
    /// Responses going back to the same requester are encoded as one
    /// response batch (a lone response keeps the plain form).
    TroxyActions handle_cache_queries(enclave::CostMeter& meter,
                                      std::span<const CacheQuery> queries);

    /// Voting side: applies a response burst in ONE enclave transition. On
    /// f matches a fast read succeeds; a mismatch falls its request back to
    /// ordering. Responder certificates share a running MAC per source
    /// replica, each response is verified individually (one Byzantine
    /// response rejects — and falls back — only its own query), and all
    /// client replies released to one connection are sealed into one
    /// secure-channel record.
    TroxyActions handle_cache_responses(
        enclave::CostMeter& meter, std::span<const CacheResponse> responses);

    /// Fast-read liveness: an unresponsive remote Troxy must not stall
    /// the client; the read falls back to ordering.
    TroxyActions fast_read_timeout(enclave::CostMeter& meter,
                                   std::uint64_t query_id);

    /// Vote liveness: rebroadcasts an ordered request to all replicas so
    /// followers can suspect an unresponsive leader.
    TroxyActions retransmit(enclave::CostMeter& meter,
                            std::uint64_t request_number);

    /// Takes back an action set the host has carried out; a later ecall
    /// fills it again. Host memory only: no transition, no charge.
    void recycle(TroxyActions&& actions);

    // ----------------------------------------------------------- metrics

    struct Status {
        std::uint64_t fast_read_hits = 0;
        std::uint64_t fast_read_misses = 0;    // local cache miss
        std::uint64_t fast_read_conflicts = 0; // remote mismatch/timeout
        std::uint64_t ordered_requests = 0;
        std::uint64_t completed_votes = 0;
        std::uint64_t rejected_replies = 0;
        std::uint64_t reply_batches = 0;   // handle_replies invocations
        std::uint64_t batched_replies = 0; // replies they ingested
        std::uint64_t reply_auth_batches = 0;   // authenticate_replies calls
        std::uint64_t batch_authenticated_replies = 0;
        std::uint64_t cache_query_batches = 0;  // handle_cache_queries calls
        std::uint64_t batched_cache_queries = 0;
        std::uint64_t cache_response_batches = 0;
        std::uint64_t batched_cache_responses = 0;
        std::uint64_t cache_invalidations = 0;   // keys actually dropped
        /// Repeat invalidations skipped because an earlier write in the
        /// same batched transition already dropped the key.
        std::uint64_t invalidations_saved = 0;
        /// Invalidations skipped across transitions: the key was already
        /// invalidated earlier and nothing re-cached it since, so the
        /// cache provably does not hold it.
        std::uint64_t invalidations_saved_cross_batch = 0;
        /// Fallback bursts surfaced as one pre-formed ordering batch.
        std::uint64_t fallback_prebatches = 0;
        std::uint64_t prebatched_fallbacks = 0;  // members of those bursts
        double miss_rate = 0.0;
        bool fast_path_enabled = true;
        std::uint64_t mode_switches = 0;
        std::size_t cache_entries = 0;
        std::uint64_t enclave_transitions = 0;
        std::size_t pending_votes = 0;
        std::size_t pending_fast_reads = 0;
        std::size_t stuck_replies = 0;  // buffered out-of-order releases

        /// Adds `other`'s cumulative counters (not its gauges) to this
        /// one: how counters survive an enclave instance being replaced.
        void add_counters(const Status& other);
    };
    [[nodiscard]] Status status() const;

    [[nodiscard]] const enclave::EnclaveGate& gate() const noexcept {
        return gate_;
    }

    /// Simulates an enclave restart: all volatile trusted state is lost
    /// (the rollback "attack" of §IV-B — the cache empties, safety holds).
    void restart();

    /// Test-only introspection: the current cache entry for a state key
    /// (no LRU side effects would matter in tests). Real deployments have
    /// no such interface — it exists to let property tests check the
    /// write-invalidation quorum invariant directly.
    [[nodiscard]] const CacheEntry* debug_cache_entry(
        const std::string& state_key) {
        return cache_.get(state_key);
    }

  private:
    /// A pending vote's count. Every counted reply already carried the
    /// request digest, so equal results are matching votes; a replica
    /// that changes its result moves its vote. The storage is recycled
    /// through spare_tallies_, and a new result is copied into a sealed
    /// release's plaintext buffer from spare_results_, so a warm voter
    /// allocates nothing.
    struct Tally {
        /// Distinct results, each stored once however many replicas
        /// voted for it. A result nobody votes for any more is
        /// overwritten by the next new one, so at most n are kept.
        std::vector<Bytes> results;
        /// Per replica id: 1 + the index into `results` of its current
        /// vote; 0 while it has none.
        std::vector<std::uint32_t> votes;
    };

    struct PendingVote {
        net::ClientSessions::Ticket to;  // the client reply's slot
        crypto::Sha256Digest request_digest{};
        hybster::Request request;  // kept for retransmission
        Tally tally;
    };

    /// A fast read awaiting its f remote cache responses. Its two
    /// buffers come from spare_results_: on a hit the local result leaves
    /// as the client reply and returns through flush_releases; the
    /// request, and both on a fallback, return when the read ends.
    struct PendingFastRead {
        net::ClientSessions::Ticket to;  // the client reply's slot
        CacheEntry local;        // snapshot compared against responses
        Bytes app_request;       // for fallback ordering
        /// Bit r is set while replica r's response is outstanding.
        std::uint64_t awaiting = 0;
    };

    /// An empty action set for an ecall: the most recently recycled one,
    /// or a fresh one.
    TroxyActions take_actions();
    /// Appends the authenticated BFT request (and its vote timer) to
    /// `actions` and registers a write's key closure as pending; the
    /// vote classifies the kept request again when it completes.
    void order_request(enclave::CostedCrypto& crypto, TroxyActions& actions,
                       const net::ClientSessions::Ticket& to,
                       const hybster::RequestInfo& info,
                       ByteView app_request);
    void start_fast_read(enclave::CostedCrypto& crypto, TroxyActions& actions,
                         const net::ClientSessions::Ticket& to,
                         const hybster::RequestInfo& info,
                         ByteView app_request, const CacheEntry& entry);
    void fast_read_fallback(enclave::CostedCrypto& crypto,
                            TroxyActions& actions, std::uint64_t query_id);
    /// Voting core: validates one reply, updates the tally, and on quorum
    /// maintains the cache and collects the client reply for release.
    void ingest_reply(enclave::CostedCrypto& crypto, TroxyActions& actions,
                      const hybster::Reply& reply, bool first_from_source);
    /// Cache maintenance and certification of one executed reply.
    enclave::Certificate certify_executed_reply(enclave::CostedCrypto& crypto,
                                                const hybster::Request& request,
                                                const hybster::Reply& reply,
                                                bool first_in_batch);
    /// Drops a completed write's whole key set (RequestInfo::keys())
    /// from the fast-read cache. Within one ecall each distinct key is
    /// dropped once (its invalidated_unrecached_ stamp equals
    /// ecall_stamp_), and a cache_.put between two writes erases the key
    /// there so the second write re-invalidates.
    void invalidate_write_set(const hybster::RequestInfo& info);
    /// True when any key the (read) request touches has an own write
    /// still in flight.
    [[nodiscard]] bool has_pending_write(
        const hybster::RequestInfo& info) const;
    /// Remote-side core: verifies the requester certificate and builds
    /// the response; nullopt when the query must be dropped.
    std::optional<CacheResponse> answer_cache_query(
        enclave::CostedCrypto& crypto, const CacheQuery& query,
        bool first_from_source);
    /// Voting-side core: validates one remote response, completes or
    /// falls back its fast read; a completed read's reply is collected for
    /// release.
    void ingest_cache_response(enclave::CostedCrypto& crypto,
                               TroxyActions& actions,
                               const CacheResponse& response,
                               bool first_from_source);
    /// Queues a completed request's reply for its connection; replies
    /// leave strictly in per-connection order (TLS stream semantics), so a
    /// reply that closes a gap releases the buffered ones behind it too,
    /// and a reply of a replaced session is dropped. `app_reply` is a
    /// result buffer: it moves into the plan when it leaves at once, and
    /// otherwise returns to spare_results_.
    void collect_releases(const net::ClientSessions::Ticket& to,
                          Bytes&& app_reply);
    /// Seals release_plan_ into one record per connection, in ascending
    /// client id, and empties it; the plaintext buffers become spare
    /// results.
    void flush_releases(enclave::CostedCrypto& crypto, TroxyActions& actions);
    /// An empty buffer from spare_results_, or a fresh one.
    Bytes take_spare_result();
    /// Keeps `buffer` as a spare result while the list has room.
    void keep_spare_result(Bytes&& buffer);
    [[nodiscard]] crypto::Sha256Digest app_request_digest(
        enclave::CostedCrypto& crypto, ByteView app_request) const;
    /// True the first time the current ecall meets `replica` as a
    /// source: only that reply, query or response pays the MAC setup.
    bool first_from(std::uint32_t replica);

    sim::NodeId host_node_;
    std::uint32_t replica_id_;
    hybster::Config config_;
    std::shared_ptr<enclave::TrinX> trinx_;
    Classifier classifier_;
    const sim::CostProfile& profile_;
    TroxyOptions options_;
    sim::BufferPool& pool_;

    enclave::EnclaveGate gate_;
    FastReadCache cache_;
    MissRateMonitor monitor_;
    Rng rng_;

    /// The client connections: secure channels, slot windows and the
    /// generation fence of a reconnect.
    net::ClientSessions sessions_;
    FlatMap<std::uint64_t, PendingVote> pending_votes_;   // by request no.
    FlatMap<std::uint64_t, PendingFastRead> fast_reads_;  // by query id
    /// Keys with own writes still in flight: fast reads on them would
    /// almost certainly conflict, so they are conservatively ordered.
    FlatMap<std::string, int> pending_write_keys_;
    /// Keys invalidated and not re-cached since (every cache_.put erases
    /// its key): the cache provably holds none of them, so a repeat write
    /// skips the whole invalidation. The value is the ecall_stamp_ of the
    /// last ecall that invalidated (or skipped) the key, which makes the
    /// same table the per-ecall dedup set too.
    FlatMap<std::string, std::uint64_t> invalidated_unrecached_;
    /// Numbers the ecalls that dedup per ecall: the voting, reply-
    /// authentication and batched cache ecalls.
    std::uint64_t ecall_stamp_ = 0;
    /// Per replica id, the ecall_stamp_ of the last ecall it was a
    /// source in (see first_from).
    std::vector<std::uint64_t> source_stamp_;
    /// Per-connection plaintexts awaiting one seal at the end of the
    /// transition; `order` keeps each connection's release order through
    /// the sort by client.
    struct Release {
        sim::NodeId to = 0;  // the client
        std::size_t order = 0;
        Bytes plaintext;
    };
    std::vector<Release> release_plan_;
    std::vector<ByteView> release_views_;  // reused sealing input
    /// handle_cache_queries' answers, grouped per requester (`to`) in
    /// query order; reused across ecalls.
    struct Answer {
        sim::NodeId to = 0;
        std::size_t order = 0;
        CacheResponse response;
    };
    std::vector<Answer> answers_;
    /// start_fast_read's remote candidates; reused across fast reads.
    std::vector<std::uint32_t> candidates_;
    /// Recycled action sets, vote tallies and result buffers (the
    /// plaintexts flush_releases sealed and the buffers of ended fast
    /// reads; see recycle, Tally and PendingFastRead).
    /// Bounded: a burst beyond the bound frees what it does not keep.
    static constexpr std::size_t kMaxSpareActions = 4;
    static constexpr std::size_t kMaxSpareTallies = 256;
    static constexpr std::size_t kMaxSpareResults = 256;
    std::vector<TroxyActions> spare_actions_;
    std::vector<Tally> spare_tallies_;
    std::vector<Bytes> spare_results_;
    std::uint64_t next_request_number_ = 1;
    std::uint64_t next_query_id_ = 1;
    /// Staging buffer for variable certified views (request, reply and
    /// cache-query bytes); reused so hashing and MACs allocate nothing.
    Bytes scratch_;

    Status stats_;
};

}  // namespace troxy::troxy_core

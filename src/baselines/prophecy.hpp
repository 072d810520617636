// Prophecy middlebox (Sen et al., NSDI'10) — the transparent-proxy
// comparator of §VI-D / Table I.
//
// Like Troxy, Prophecy hides BFT from the client behind a proxy. Unlike
// Troxy it (i) is a *middlebox* — a whole trusted machine with its own
// OS and network stack between clients and replicas, and (ii) trades
// consistency for speed: its sketch cache stores the hash of the result
// of the latest *read*; the fast path sends the read to a single random
// replica and accepts the response if its hash matches the sketch. After
// a write the sketch is stale, so the fast path usually falls back to a
// full ordered read — but a lagging (correct-but-stale) replica matching
// a stale sketch returns a stale result: weak consistency (the reply
// "reflects the state of the latest read"). A fast-path replica that does
// not answer within 100 ms is treated like a mismatch.
//
// Runs on PBFT with 3f+1 replicas, per Table I: hybster::Replica in its
// PBFT profile, reached through the traditional BFT client library
// (hybster::Client) whose read_one() is the fast path.
#pragma once

#include <map>
#include <vector>

#include "crypto/x25519.hpp"
#include "hybster/client.hpp"
#include "net/client_sessions.hpp"
#include "troxy/enclave.hpp"  // reuse Classifier

namespace troxy::baselines {

class ProphecyMiddlebox {
  public:
    struct Options {
        std::size_t sketch_capacity = 1u << 16;
    };

    struct Stats {
        std::uint64_t fast_hits = 0;
        std::uint64_t sketch_misses = 0;
        std::uint64_t fast_conflicts = 0;
        /// Fast reads whose replica stayed silent past the timeout.
        std::uint64_t fast_timeouts = 0;
        std::uint64_t ordered = 0;
    };

    /// `pinned_keys[r]` and `replica_keys[r]` are replica r's channel
    /// identity and the middlebox's pairwise secret with it.
    ProphecyMiddlebox(net::Fabric& fabric, sim::Node& node,
                      hybster::Config config,
                      std::vector<crypto::X25519Key> pinned_keys,
                      std::vector<Bytes> replica_keys,
                      crypto::X25519Keypair channel_identity,
                      troxy_core::Classifier classifier,
                      const sim::CostProfile& profile, Options options,
                      std::uint64_t seed);

    /// Attaches to the fabric and opens the BFT client's channels to every
    /// replica. Requests are served from then on, not after every
    /// handshake completed: a replica that is down from the start only
    /// costs its share of fast reads a timeout.
    void attach();

    [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

  private:
    void on_message(sim::NodeId from, Bytes message);
    /// Assigns the request its slot in `client`'s session `generation`
    /// (dropped if that session was replaced meanwhile) and serves it.
    void handle_app_request(sim::NodeId client, std::uint64_t generation,
                            Bytes app_request);
    /// Orders the read and refreshes its sketch entry.
    void ordered_read_through(const net::ClientSessions::Ticket& to,
                              Bytes app_request);
    void release_reply(const net::ClientSessions::Ticket& to,
                       ByteView app_reply);

    net::Fabric& fabric_;
    sim::Node& node_;
    hybster::Config config_;
    troxy_core::Classifier classifier_;
    const sim::CostProfile& profile_;
    Options options_;

    hybster::Client bft_client_;
    net::ClientSessions sessions_;
    // sketch: hash(app request) → hash(result of latest read)
    std::map<Bytes, crypto::Sha256Digest> sketch_;
    Rng rng_;
    Stats stats_;
};

}  // namespace troxy::baselines

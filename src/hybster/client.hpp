// Traditional client-side BFT library — the component Troxy relocates to
// the server side.
//
// The client connects to every replica over a secure channel, attaches a
// per-replica authenticator to each request, sends the request to the
// current leader (broadcasting on retransmit so followers can trigger a
// view change against an unresponsive leader), and votes over the replies:
// a result is accepted once f+1 replies from distinct replicas carry the
// same request digest and result, each authenticated with the pairwise
// client↔replica secret (§II-A).
//
// With `optimistic_reads` the client additionally implements the
// PBFT-like read optimization the paper uses as baseline (§VI-C2): reads
// go to all replicas for immediate non-ordered execution; if the replies
// conflict (concurrent writes) the read is retried as a normal ordered
// request (§VI-C3). read_one() is Prophecy's READ-ONE: an optimistic read
// sent to one replica and accepted from that replica alone.
#pragma once

#include <functional>
#include <map>
#include <optional>

#include "crypto/x25519.hpp"
#include "enclave/meter.hpp"
#include "hybster/config.hpp"
#include "hybster/messages.hpp"
#include "net/fabric.hpp"
#include "net/outbox.hpp"
#include "net/secure_channel.hpp"
#include "sim/cost.hpp"

namespace troxy::hybster {

class Client {
  public:
    struct Options {
        /// Use the PBFT-like read optimization for read requests.
        bool optimistic_reads = false;
    };

    /// Called with the voted result and the view it was executed in.
    using Callback = std::function<void(Bytes result)>;

    /// `pinned_keys[r]` is replica r's channel identity key;
    /// `replica_keys[r]` the pairwise authentication secret with r.
    Client(net::Fabric& fabric, sim::Node& node, Config config,
           std::vector<crypto::X25519Key> pinned_keys,
           std::vector<Bytes> replica_keys, const sim::CostProfile& profile,
           Options options);

    /// Establishes secure channels to all replicas; `ready` fires once
    /// all handshakes completed.
    void start(std::function<void()> ready);

    /// Issues a request; `callback` fires once the result is trustworthy.
    void invoke(Bytes payload, bool is_read, Callback callback);

    /// READ-ONE: an optimistic read executed by `replica` alone, whose
    /// reply is accepted as is. Not retransmitted; returns the request
    /// number for cancel().
    std::uint64_t read_one(Bytes payload, std::uint32_t replica,
                           Callback callback);

    /// Forgets a pending request, so a late reply is dropped. False when
    /// its callback already ran.
    bool cancel(std::uint64_t number) { return pending_.erase(number) > 0; }

    /// Entry point for Channel::Client payloads addressed to this node.
    void on_message(sim::NodeId from, ByteView payload);

    [[nodiscard]] bool connected() const noexcept {
        return established_ == static_cast<int>(config_.n());
    }

    /// Number of optimistic reads that had to be retried ordered.
    [[nodiscard]] std::uint64_t read_conflicts() const noexcept {
        return read_conflicts_;
    }
    [[nodiscard]] std::uint64_t optimistic_attempts() const noexcept {
        return optimistic_attempts_;
    }

  private:
    struct Pending {
        Bytes payload;
        std::uint8_t flags = 0;
        Callback callback;
        /// replica → (digest ‖ result) key of its verified reply.
        std::map<std::uint32_t, Bytes> votes;
        std::map<Bytes, int> tally;
        bool done = false;
        std::uint64_t retransmits = 0;
        /// READ-ONE: the one replica asked and believed; -1 otherwise.
        int sole_replica = -1;
    };

    void send_request(enclave::CostedCrypto& crypto, net::Outbox& outbox,
                      std::uint64_t number, bool broadcast);
    void handle_reply(enclave::CostedCrypto& crypto, Reply&& reply);
    void finish(std::uint64_t number, Pending& pending, Bytes result);
    /// Takes `failed` by value: the caller's map entry is erased inside,
    /// so the state must be moved out before that.
    void retry_ordered(std::uint64_t number, Pending failed);
    void arm_retransmit(std::uint64_t number);
    [[nodiscard]] Request build_request(enclave::CostedCrypto& crypto,
                                        std::uint64_t number,
                                        const Pending& pending) const;

    net::Fabric& fabric_;
    sim::Node& node_;
    Config config_;
    std::vector<crypto::X25519Key> pinned_keys_;
    std::vector<Bytes> replica_keys_;
    const sim::CostProfile& profile_;
    Options options_;

    std::vector<std::optional<net::SecureChannelClient>> channels_;
    int established_ = 0;
    std::function<void()> ready_;

    std::uint64_t next_number_ = 1;
    std::map<std::uint64_t, Pending> pending_;
    std::uint32_t believed_leader_ = 0;
    std::uint64_t read_conflicts_ = 0;
    std::uint64_t optimistic_attempts_ = 0;
    std::uint64_t handshake_seed_ = 0;
};

}  // namespace troxy::hybster

// Server half of the legacy-client sessions.
//
// A legacy client keeps one plain secure channel to one server (§III).
// Every endpoint it can talk to — the Troxy enclave, the shard front, the
// Prophecy middlebox, the standalone server and the BL replica host —
// terminates that channel with this table, one session per client node.
// The table owns the one decision a reconnect needs: a second Hello from
// a node replaces its session, and the new session's generation fences
// off the old one's replies, which would otherwise fill the new session's
// slots (the client matches replies to requests in order).
//
// An endpoint that answers asynchronously takes a Ticket for each opened
// request and hands the reply back to release() with it; release() lets
// replies out strictly in slot order (TLS stream semantics). release()
// borrows the reply: it copies only a reply that must wait behind a gap,
// into a buffer the session's window keeps.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "common/serialize.hpp"
#include "crypto/x25519.hpp"
#include "enclave/meter.hpp"
#include "net/client_framing.hpp"
#include "net/outbox.hpp"
#include "net/secure_channel.hpp"
#include "sim/node.hpp"

namespace troxy::net {

class ClientSessions {
  public:
    /// Where a request's reply goes: the slot its session assigned it.
    struct Ticket {
        sim::NodeId client = 0;
        std::uint64_t generation = 0;
        std::uint64_t slot = 0;
    };

    /// One client's session. Every session in the table has completed
    /// its handshake: accept() drops one whose hello fails.
    struct Session {
        Session(sim::NodeId id, const crypto::X25519Keypair& identity,
                std::uint64_t stamp)
            : client(id), generation(stamp), channel(identity) {}

        /// The next request's ticket.
        Ticket assign() { return {client, generation, next_assign++}; }

        /// Replies banked behind a gap.
        [[nodiscard]] std::size_t banked() const noexcept { return banked_; }

        sim::NodeId client;
        std::uint64_t generation;  // unique across the table's lifetime
        SecureChannelServer channel;
        std::uint64_t next_assign = 0;   // slot of the next request
        std::uint64_t next_release = 0;  // slot of the next reply out

      private:
        friend class ClientSessions;

        /// Ring slots a session's window starts with on its first gap;
        /// a wider window doubles the ring.
        static constexpr std::size_t kInitialWindow = 8;

        /// Banks a copy of `reply` for `slot`, which lies past
        /// next_release.
        void bank(std::uint64_t slot, ByteView reply);
        /// Moves past the reply just released; returns the banked reply
        /// for the new next_release, or nullptr. The buffer stays valid
        /// until the next bank().
        const Bytes* advance();

        /// Release window: ring_[(head_ + slot - next_release) & mask]
        /// holds the reply for `slot`; empty entries have not arrived.
        /// Only a reply behind a gap enters it. The ring keeps its
        /// capacity once grown, and each entry keeps its buffer, so a
        /// warm window banks without allocating.
        struct Entry {
            Bytes reply;
            bool present = false;
        };
        std::vector<Entry> ring_;
        std::size_t head_ = 0;
        std::size_t banked_ = 0;
    };

    /// A record opened by open(): its session and its requests, which
    /// borrow the channel's buffer until the session's next record.
    struct Opened {
        Session* session = nullptr;  // null: no session, nothing opened
        std::span<const ByteView> requests;
    };

    /// `identity` is the provisioned channel keypair every session
    /// proves possession of.
    explicit ClientSessions(const crypto::X25519Keypair& identity)
        : identity_(identity) {}

    /// Handles a ClientHello from `client`, replacing any session it had
    /// and stamping the new one with a fresh generation. The handshake
    /// randomness is `seed_prefix` ‖ u64(handshake number). Returns the
    /// wrapped Channel::Client ServerHello frame, in a wire buffer from
    /// `pool`, or nullopt (and no session) when the hello is malformed.
    std::optional<Bytes> accept(enclave::CostedCrypto& crypto,
                                sim::NodeId client, ByteView hello,
                                ByteView seed_prefix, sim::BufferPool& pool);

    /// Opens one record of `client`'s session, charging its AEAD pass.
    /// A client without a session gets nothing and is charged nothing.
    Opened open(enclave::CostedCrypto& crypto, sim::NodeId client,
                ByteView record);

    /// Releases the reply for ticket `to`: dropped when the client is
    /// unknown, its session was replaced or the slot was already
    /// released, copied into the session's window when it arrives behind
    /// a gap, and otherwise passed to `emit(session, ByteView)` (a view of
    /// `reply` itself) followed by every banked successor it unblocks, in
    /// slot order. A view `emit` gets is valid only during that call.
    template <typename Emit>
    void release(const Ticket& to, ByteView reply, Emit&& emit) {
        const auto it = sessions_.find(to.client);
        if (it == sessions_.end() || it->second.generation != to.generation) {
            return;
        }
        Session& session = it->second;
        if (to.slot < session.next_release) return;
        if (to.slot != session.next_release) {
            session.bank(to.slot, reply);
            return;
        }
        emit(session, reply);
        while (const Bytes* banked = session.advance()) {
            emit(session, ByteView(*banked));
        }
    }

    /// Serves one Channel::Client payload from `from` for an endpoint
    /// outside the enclave, metered at `profile` on `node` with one
    /// Outbox flush: the dispatch charge first, then a Hello (re)opens
    /// the session and sends the ServerHello, and each request a Record
    /// opens goes to `on_request(session, request, crypto, outbox)`. The
    /// handshake seed prefix is u32(node id). A malformed frame is
    /// dropped uncharged.
    template <typename OnRequest>
    void serve_frame(Fabric& fabric, sim::Node& node,
                     const sim::CostProfile& profile, sim::NodeId from,
                     ByteView payload, OnRequest&& on_request) {
        const auto frame = unframe_client(payload);
        if (!frame) return;
        enclave::CostMeter meter;
        enclave::CostedCrypto crypto(profile, meter);
        Outbox outbox(fabric, node);
        crypto.charge_dispatch();
        switch (frame->first) {
            case ClientFrame::Hello: {
                FixedWriter<4> prefix;
                prefix.u32(node.id());
                if (auto hello = accept(crypto, from, frame->second,
                                        prefix.take(), outbox.pool())) {
                    outbox.send(from, std::move(*hello));
                }
                break;
            }
            case ClientFrame::Record: {
                const Opened opened = open(crypto, from, frame->second);
                for (const ByteView request : opened.requests) {
                    on_request(*opened.session, request, crypto, outbox);
                }
                break;
            }
            case ClientFrame::ServerHello:
                break;
        }
        outbox.flush(meter);
    }

    /// release() for an endpoint outside the enclave: every reply that
    /// leaves is sealed into its own record, its AEAD pass metered at
    /// `profile` on `node`, and sent in one Outbox flush. Returns the
    /// number of records sent.
    std::size_t release_records(Fabric& fabric, sim::Node& node,
                                const sim::CostProfile& profile,
                                const Ticket& to, ByteView reply);

    [[nodiscard]] Session* find(sim::NodeId client) {
        const auto it = sessions_.find(client);
        return it == sessions_.end() ? nullptr : &it->second;
    }
    void erase(sim::NodeId client) { sessions_.erase(client); }
    /// Drops every session (a crash or enclave restart). The counters
    /// keep running, so later seeds and generations never repeat.
    void clear() { sessions_.clear(); }

    /// Handshakes that succeeded since construction.
    [[nodiscard]] std::uint64_t accepted() const noexcept {
        return accepted_;
    }
    /// Replies banked behind a gap, over all sessions.
    [[nodiscard]] std::size_t waiting() const noexcept;

  private:
    crypto::X25519Keypair identity_;
    std::map<sim::NodeId, Session> sessions_;
    std::uint64_t handshake_counter_ = 0;
    std::uint64_t generation_counter_ = 0;
    std::uint64_t accepted_ = 0;
};

}  // namespace troxy::net

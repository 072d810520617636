#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "common/rng.hpp"
#include "net/client_framing.hpp"
#include "net/client_sessions.hpp"
#include "net/envelope.hpp"
#include "net/fabric.hpp"
#include "net/outbox.hpp"
#include "net/secure_channel.hpp"

namespace troxy::net {
namespace {

/// Owning copies of the messages unprotect() delivered: its views borrow
/// the channel's buffers only until the channel's next call.
std::vector<Bytes> owned(std::span<const ByteView> messages) {
    std::vector<Bytes> out;
    for (const ByteView m : messages) out.emplace_back(m.begin(), m.end());
    return out;
}

const sim::CostProfile kNative = sim::CostProfile::native();

// ------------------------------------------------------------------ fabric

TEST(Fabric, DeliversToAttachedHandler) {
    sim::Simulator sim;
    sim::Network network(sim);
    Fabric fabric(sim, network);

    Bytes received;
    sim::NodeId sender = 0;
    fabric.attach(2, [&](sim::NodeId from, Bytes message) {
        sender = from;
        received = std::move(message);
    });
    fabric.send(1, 2, to_bytes("hello"));
    sim.run();
    EXPECT_EQ(sender, 1u);
    EXPECT_EQ(received, to_bytes("hello"));
}

TEST(Fabric, DropsForDetachedEndpoint) {
    sim::Simulator sim;
    sim::Network network(sim);
    Fabric fabric(sim, network);

    int delivered = 0;
    fabric.attach(2, [&](sim::NodeId, Bytes) { ++delivered; });
    fabric.send(1, 2, to_bytes("a"));
    fabric.detach(2);  // crash before delivery
    sim.run();
    EXPECT_EQ(delivered, 0);
}

// ---------------------------------------------------------------- envelope

TEST(Envelope, WrapUnwrapRoundTrip) {
    const Bytes wrapped = wrap(Channel::TroxyCache, to_bytes("payload"));
    const auto unwrapped = unwrap_view(wrapped);
    ASSERT_TRUE(unwrapped.has_value());
    EXPECT_EQ(unwrapped->first, Channel::TroxyCache);
    EXPECT_EQ(to_string(unwrapped->second), "payload");
}

TEST(Envelope, RejectsUnknownChannelAndEmpty) {
    EXPECT_FALSE(unwrap_view(Bytes{}).has_value());
    EXPECT_FALSE(unwrap_view(Bytes{0xee, 1, 2}).has_value());
}

TEST(ClientFraming, RoundTrip) {
    sim::BufferPool pool;
    const Bytes framed =
        client_frame(ClientFrame::Record, to_bytes("data"), pool);
    const auto wrapped = unwrap_view(framed);
    ASSERT_TRUE(wrapped && wrapped->first == Channel::Client);
    const auto unframed = unframe_client(wrapped->second);
    ASSERT_TRUE(unframed.has_value());
    EXPECT_EQ(unframed->first, ClientFrame::Record);
    EXPECT_EQ(to_string(unframed->second), "data");
    EXPECT_FALSE(unframe_client(Bytes{}).has_value());
    EXPECT_FALSE(unframe_client(Bytes{9}).has_value());
}

// ---------------------------------------------------------- secure channel

struct Channels {
    SecureChannelClient client;
    SecureChannelServer server;
};

Channels establish() {
    const crypto::X25519Keypair identity =
        crypto::x25519_keypair_from_seed(to_bytes("server-identity"));
    Channels channels{
        SecureChannelClient(identity.public_key, to_bytes("client-seed")),
        SecureChannelServer(identity)};

    enclave::CostMeter meter;
    enclave::CostedCrypto crypto_ops(kNative, meter);
    auto server_hello = channels.server.accept(
        crypto_ops, channels.client.client_hello(), to_bytes("server-seed"));
    EXPECT_TRUE(server_hello.has_value());
    EXPECT_TRUE(channels.client.finish(*server_hello));
    return channels;
}

TEST(SecureChannel, HandshakeEstablishesBothSides) {
    Channels channels = establish();
    EXPECT_TRUE(channels.client.established());
    EXPECT_TRUE(channels.server.established());
}

TEST(SecureChannel, BidirectionalRecords) {
    Channels channels = establish();
    const Bytes request = to_bytes("GET /page/1");
    const auto at_server =
        owned(channels.server.unprotect(channels.client.protect(request)));
    ASSERT_EQ(at_server.size(), 1u);
    EXPECT_EQ(at_server[0], request);

    const Bytes reply = to_bytes("<html>page</html>");
    const auto at_client =
        owned(channels.client.unprotect(channels.server.protect(reply)));
    ASSERT_EQ(at_client.size(), 1u);
    EXPECT_EQ(at_client[0], reply);
}

TEST(SecureChannel, ManyRecordsInOrder) {
    Channels channels = establish();
    for (int i = 0; i < 50; ++i) {
        const Bytes msg = to_bytes("message " + std::to_string(i));
        const auto out =
            owned(channels.server.unprotect(channels.client.protect(msg)));
        ASSERT_EQ(out.size(), 1u);
        EXPECT_EQ(out[0], msg);
    }
}

TEST(SecureChannel, ReplayRejected) {
    Channels channels = establish();
    const Bytes record = channels.client.protect(to_bytes("once"));
    EXPECT_EQ(channels.server.unprotect(record).size(), 1u);
    // "each endpoint will never accept the same chunk of encrypted data
    // twice" (§III-D)
    EXPECT_TRUE(channels.server.unprotect(record).empty());
}

TEST(SecureChannel, ReplayOfBufferedRecordRejected) {
    Channels channels = establish();
    const Bytes first = channels.client.protect(to_bytes("1"));
    const Bytes second = channels.client.protect(to_bytes("2"));
    // `second` arrives early: buffered, not deliverable yet.
    EXPECT_TRUE(channels.server.unprotect(second).empty());
    // Replaying it while buffered must not deliver anything either.
    EXPECT_TRUE(channels.server.unprotect(second).empty());
    // The gap closes: both deliver, in order.
    const auto delivered = owned(channels.server.unprotect(first));
    ASSERT_EQ(delivered.size(), 2u);
    EXPECT_EQ(delivered[0], to_bytes("1"));
    EXPECT_EQ(delivered[1], to_bytes("2"));
    // And replaying after delivery is still rejected.
    EXPECT_TRUE(channels.server.unprotect(second).empty());
    EXPECT_TRUE(channels.server.unprotect(first).empty());
}

TEST(SecureChannel, OutOfOrderRecordsReassembled) {
    Channels channels = establish();
    std::vector<Bytes> records;
    for (int i = 0; i < 5; ++i) {
        records.push_back(
            channels.client.protect(to_bytes("m" + std::to_string(i))));
    }
    // Deliver in scrambled order; output must be the original order.
    std::vector<Bytes> delivered;
    for (const int index : {2, 0, 4, 1, 3}) {
        for (Bytes& msg : owned(channels.server.unprotect(
                 records[static_cast<std::size_t>(index)]))) {
            delivered.push_back(std::move(msg));
        }
    }
    ASSERT_EQ(delivered.size(), 5u);
    for (int i = 0; i < 5; ++i) {
        EXPECT_EQ(delivered[static_cast<std::size_t>(i)],
                  to_bytes("m" + std::to_string(i)));
    }
}

TEST(SecureChannel, RecordsBeyondWindowDropped) {
    Channels channels = establish();
    // Generate a record far beyond the receive window.
    Bytes far;
    for (std::uint64_t i = 0;
         i <= net::RecordProtection::kReceiveWindow; ++i) {
        far = channels.client.protect(to_bytes("x"));
    }
    EXPECT_TRUE(channels.server.unprotect(far).empty());
}

TEST(SecureChannel, TamperedRecordRejected) {
    Channels channels = establish();
    Bytes record = channels.client.protect(to_bytes("sensitive"));
    record[record.size() - 1] ^= 1;
    EXPECT_TRUE(channels.server.unprotect(record).empty());
}

TEST(SecureChannel, WrongServerIdentityDetected) {
    // The client pins one key; a man-in-the-middle with a different
    // identity cannot complete the handshake.
    const crypto::X25519Keypair real =
        crypto::x25519_keypair_from_seed(to_bytes("real-server"));
    const crypto::X25519Keypair mitm =
        crypto::x25519_keypair_from_seed(to_bytes("mitm"));

    SecureChannelClient client(real.public_key, to_bytes("seed"));
    SecureChannelServer attacker(mitm);

    enclave::CostMeter meter;
    enclave::CostedCrypto crypto_ops(kNative, meter);
    auto hello = attacker.accept(crypto_ops, client.client_hello(),
                                 to_bytes("attacker-seed"));
    ASSERT_TRUE(hello.has_value());
    EXPECT_FALSE(client.finish(*hello));
    EXPECT_FALSE(client.established());
}

TEST(SecureChannel, MalformedHandshakeRejected) {
    const crypto::X25519Keypair identity =
        crypto::x25519_keypair_from_seed(to_bytes("id"));
    SecureChannelServer server(identity);
    enclave::CostMeter meter;
    enclave::CostedCrypto crypto_ops(kNative, meter);
    EXPECT_FALSE(server.accept(crypto_ops, to_bytes("short"),
                               to_bytes("seed")).has_value());

    SecureChannelClient client(identity.public_key, to_bytes("seed"));
    EXPECT_FALSE(client.finish(to_bytes("bogus")));
}

TEST(SecureChannel, SessionsDifferAcrossHandshakes) {
    Channels a = establish();
    // Second handshake with a different client seed yields different keys:
    // a record from one session must not decrypt in the other.
    const crypto::X25519Keypair identity =
        crypto::x25519_keypair_from_seed(to_bytes("server-identity"));
    SecureChannelClient client2(identity.public_key, to_bytes("other-seed"));
    SecureChannelServer server2(identity);
    enclave::CostMeter meter;
    enclave::CostedCrypto crypto_ops(kNative, meter);
    auto hello = server2.accept(crypto_ops, client2.client_hello(),
                                to_bytes("server-seed-2"));
    ASSERT_TRUE(hello.has_value());
    ASSERT_TRUE(client2.finish(*hello));

    const Bytes record = client2.protect(to_bytes("cross"));
    EXPECT_TRUE(a.server.unprotect(record).empty());
}

// ----------------------------------------------- coalesced (multi-message)

TEST(SecureChannel, CoalescedRecordRoundTrip) {
    Channels channels = establish();
    const std::vector<Bytes> burst = {to_bytes("alpha"), to_bytes("beta"),
                                      to_bytes("gamma")};
    std::vector<ByteView> views(burst.begin(), burst.end());
    const Bytes record = channels.client.protect_many(views);
    const auto delivered = owned(channels.server.unprotect(record));
    ASSERT_EQ(delivered.size(), 3u);
    for (std::size_t i = 0; i < burst.size(); ++i) {
        EXPECT_EQ(delivered[i], burst[i]);
    }
}

TEST(SecureChannel, CoalescedRecordReplayRejectedAsAUnit) {
    Channels channels = establish();
    const std::vector<Bytes> burst = {to_bytes("a"), to_bytes("b")};
    std::vector<ByteView> views(burst.begin(), burst.end());
    const Bytes record = channels.client.protect_many(views);
    EXPECT_EQ(channels.server.unprotect(record).size(), 2u);
    // Replaying the whole coalesced record must deliver NONE of its
    // member messages — the anti-replay window tracks the record, and a
    // partial re-delivery would break exactly-once per message.
    EXPECT_TRUE(channels.server.unprotect(record).empty());
}

TEST(SecureChannel, CoalescedRecordTamperRejectsWholeBurst) {
    Channels channels = establish();
    const std::vector<Bytes> burst = {to_bytes("one"), to_bytes("two")};
    std::vector<ByteView> views(burst.begin(), burst.end());
    Bytes record = channels.client.protect_many(views);
    record[record.size() - 1] ^= 1;
    EXPECT_TRUE(channels.server.unprotect(record).empty());
}

TEST(SecureChannel, CoalescedAndSingleRecordsReassembleInOrder) {
    // Mixed stream: single records and coalesced bursts, delivered out of
    // order with one record lost and retransmitted last. Output must be
    // the exact send order with burst members contiguous.
    Channels channels = establish();
    std::vector<Bytes> records;
    records.push_back(channels.client.protect(to_bytes("m0")));
    {
        const std::vector<Bytes> burst = {to_bytes("m1"), to_bytes("m2"),
                                          to_bytes("m3")};
        std::vector<ByteView> views(burst.begin(), burst.end());
        records.push_back(channels.client.protect_many(views));
    }
    records.push_back(channels.client.protect(to_bytes("m4")));
    {
        const std::vector<Bytes> burst = {to_bytes("m5"), to_bytes("m6")};
        std::vector<ByteView> views(burst.begin(), burst.end());
        records.push_back(channels.client.protect_many(views));
    }

    std::vector<Bytes> delivered;
    // Arrival order: record 2, record 3 (buffered), replay of record 3
    // (dropped), record 0 (releases m0 only), then the "lost" record 1
    // retransmitted — releasing everything else in order.
    for (const int index : {2, 3, 3, 0, 1}) {
        for (Bytes& msg : owned(channels.server.unprotect(
                 records[static_cast<std::size_t>(index)]))) {
            delivered.push_back(std::move(msg));
        }
    }
    ASSERT_EQ(delivered.size(), 7u);
    for (int i = 0; i < 7; ++i) {
        EXPECT_EQ(delivered[static_cast<std::size_t>(i)],
                  to_bytes("m" + std::to_string(i)));
    }
}

TEST(SecureChannel, EmptyCoalescedRecordDeliversNothing) {
    // A forged count=0 plaintext cannot be produced by protect_many
    // (asserts non-empty), but unprotect must treat it as a no-op rather
    // than a protocol error.
    Channels channels = establish();
    const Bytes record = channels.client.protect_many(
        std::vector<ByteView>{ByteView(to_bytes("only"))});
    const auto delivered = owned(channels.server.unprotect(record));
    ASSERT_EQ(delivered.size(), 1u);
    EXPECT_EQ(delivered[0], to_bytes("only"));
}

TEST(SecureChannel, BorrowedViewsSurviveOpenBufferReuse) {
    crypto::ChaChaKey key{};
    key.fill(0x42);
    crypto::ChaChaNonce iv{};
    iv.fill(0x24);
    RecordProtection sender(key, iv);
    RecordProtection receiver(key, iv);

    const Bytes m0 = to_bytes("zero");
    const Bytes m1a = to_bytes("record one, first message");
    const Bytes m1b = to_bytes("record one, second");
    const Bytes m2(64, 0xee);  // longer: overwrites all of record 1
    const Bytes r0 = sender.protect(m0);
    const Bytes r1 = sender.protect_many(std::vector<ByteView>{m1a, m1b});
    const Bytes r2 = sender.protect(m2);

    // Record 1 arrives ahead of the gap and is copied into the reorder
    // buffer; record 2 is then opened in the same reused open buffer.
    EXPECT_TRUE(receiver.unprotect(r1).empty());
    EXPECT_TRUE(receiver.unprotect(r2).empty());
    // Record 0 closes the gap: its message is read from the open buffer,
    // records 1 and 2 come out of the reorder buffer with their bytes.
    const auto delivered = receiver.unprotect(r0);
    EXPECT_EQ(owned(delivered), (std::vector<Bytes>{m0, m1a, m1b, m2}));

    // Tampered, truncated, replayed and zero-count records deliver
    // nothing and leave the stream where it was.
    const Bytes r3 = sender.protect(to_bytes("three"));
    Bytes tampered = r3;
    tampered.back() ^= 0x01;
    EXPECT_TRUE(receiver.unprotect(tampered).empty());
    const ByteView truncated(r3.data(), r3.size() - 1);
    EXPECT_TRUE(receiver.unprotect(truncated).empty());
    EXPECT_TRUE(receiver.unprotect(r1).empty());
    EXPECT_TRUE(receiver.unprotect(r0).empty());
    // A correctly sealed record for sequence 3 whose burst count is 0.
    std::uint8_t aad[8];
    store_le(aad, 3, 8);
    Writer zero_count;
    zero_count.u64(3);
    zero_count.bytes(crypto::aead_seal(key, crypto::make_record_nonce(iv, 3),
                                       ByteView(aad, sizeof aad),
                                       Bytes{0x00, 0x00}));
    EXPECT_TRUE(receiver.unprotect(zero_count.data()).empty());
    EXPECT_EQ(owned(receiver.unprotect(r3)),
              std::vector<Bytes>{to_bytes("three")});
}

// --------------------------------------------------------- client sessions

/// A session table and the client-side channels that connect to it.
struct SessionRig {
    crypto::X25519Keypair identity =
        crypto::x25519_keypair_from_seed(to_bytes("sessions-identity"));
    ClientSessions sessions{identity};
    sim::BufferPool pool;
    enclave::CostMeter meter;
    enclave::CostedCrypto crypto{kNative, meter};

    /// Handshakes a fresh client channel as node `client`.
    SecureChannelClient connect(sim::NodeId client, const std::string& seed) {
        SecureChannelClient channel(identity.public_key, to_bytes(seed));
        const auto frame = sessions.accept(crypto, client,
                                           channel.client_hello(),
                                           to_bytes("prefix"), pool);
        EXPECT_TRUE(frame.has_value());
        if (!frame) return channel;
        const auto wrapped = unwrap_view(*frame);
        EXPECT_TRUE(wrapped && wrapped->first == Channel::Client);
        const auto hello = unframe_client(wrapped->second);
        EXPECT_TRUE(hello && hello->first == ClientFrame::ServerHello);
        EXPECT_TRUE(channel.finish(hello->second));
        return channel;
    }

    /// Releases `reply` for `slot` and returns what left, in order.
    std::vector<Bytes> release(sim::NodeId client, std::uint64_t generation,
                               std::uint64_t slot, const std::string& reply) {
        std::vector<Bytes> out;
        sessions.release({client, generation, slot}, to_bytes(reply),
                         [&](ClientSessions::Session&, Bytes&& ready) {
                             out.push_back(std::move(ready));
                         });
        return out;
    }
};

TEST(ClientSessions, SecondHelloReplacesTheSession) {
    SessionRig rig;
    SecureChannelClient first = rig.connect(7, "first");
    ClientSessions::Session* session = rig.sessions.find(7);
    ASSERT_NE(session, nullptr);
    const std::uint64_t old_generation = session->generation;
    EXPECT_EQ(session->assign().slot, 0u);

    SecureChannelClient second = rig.connect(7, "second");
    session = rig.sessions.find(7);
    ASSERT_NE(session, nullptr);
    EXPECT_GT(session->generation, old_generation);
    EXPECT_EQ(session->assign().slot, 0u);
    EXPECT_EQ(rig.sessions.accepted(), 2u);

    // The replaced session's keys open nothing any more.
    EXPECT_TRUE(
        rig.sessions.open(rig.crypto, 7, first.protect(to_bytes("old")))
            .requests.empty());
    const ClientSessions::Opened opened =
        rig.sessions.open(rig.crypto, 7, second.protect(to_bytes("new")));
    EXPECT_EQ(opened.session, session);
    EXPECT_EQ(owned(opened.requests), std::vector<Bytes>{to_bytes("new")});
}

TEST(ClientSessions, MalformedHelloDropsTheSession) {
    SessionRig rig;
    rig.connect(7, "client");
    EXPECT_FALSE(rig.sessions
                     .accept(rig.crypto, 7, to_bytes("short"),
                             to_bytes("prefix"), rig.pool)
                     .has_value());
    EXPECT_EQ(rig.sessions.find(7), nullptr);
    EXPECT_EQ(rig.sessions.accepted(), 1u);
}

TEST(ClientSessions, RecordBeforeTheHandshakeIsIgnoredUncharged) {
    SessionRig rig;
    const ClientSessions::Opened opened =
        rig.sessions.open(rig.crypto, 7, to_bytes("not a record yet"));
    EXPECT_EQ(opened.session, nullptr);
    EXPECT_TRUE(opened.requests.empty());
    EXPECT_EQ(rig.meter.total(), 0u);
}

TEST(ClientSessions, RepliesLeaveInSlotOrder) {
    SessionRig rig;
    rig.connect(7, "client");
    const std::uint64_t generation = rig.sessions.find(7)->generation;

    EXPECT_TRUE(rig.release(7, generation, 2, "r2").empty());
    EXPECT_EQ(rig.sessions.waiting(), 1u);
    EXPECT_EQ(rig.release(7, generation, 0, "r0"),
              std::vector<Bytes>{to_bytes("r0")});
    EXPECT_EQ(rig.sessions.waiting(), 1u);
    EXPECT_EQ(rig.release(7, generation, 1, "r1"),
              (std::vector<Bytes>{to_bytes("r1"), to_bytes("r2")}));
    EXPECT_EQ(rig.sessions.waiting(), 0u);
    EXPECT_EQ(rig.sessions.find(7)->next_release, 3u);
}

TEST(ClientSessions, StaleAndUnknownRepliesAreDropped) {
    SessionRig rig;
    rig.connect(7, "first");
    const std::uint64_t old_generation = rig.sessions.find(7)->generation;
    rig.connect(7, "second");
    const std::uint64_t generation = rig.sessions.find(7)->generation;

    // The replaced session's reply neither leaves nor waits in the new
    // session's window; neither does a reply for a client never seen.
    EXPECT_TRUE(rig.release(7, old_generation, 0, "stale").empty());
    EXPECT_TRUE(rig.release(8, generation, 0, "unknown").empty());
    EXPECT_EQ(rig.sessions.waiting(), 0u);
    EXPECT_EQ(rig.release(7, generation, 0, "fresh"),
              std::vector<Bytes>{to_bytes("fresh")});
}

TEST(ClientSessions, ReleasedSlotIsDroppedAndWideWindowsStayOrdered) {
    SessionRig rig;
    rig.connect(7, "first");
    const std::uint64_t generation = rig.sessions.find(7)->generation;

    // A second reply for a slot that already left is dropped: banked, it
    // would wait forever behind next_release.
    EXPECT_EQ(rig.release(7, generation, 0, "r0"),
              std::vector<Bytes>{to_bytes("r0")});
    EXPECT_TRUE(rig.release(7, generation, 0, "again").empty());
    EXPECT_EQ(rig.sessions.waiting(), 0u);

    // Slots 40 down to 2 bank behind the gap at slot 1 — a window wider
    // than the ring's starting size — and slot 1 lets all 40 out in
    // slot order.
    for (std::uint64_t slot = 40; slot >= 2; --slot) {
        EXPECT_TRUE(
            rig.release(7, generation, slot, "r" + std::to_string(slot))
                .empty());
    }
    EXPECT_EQ(rig.sessions.waiting(), 39u);
    std::vector<Bytes> expected;
    for (std::uint64_t slot = 1; slot <= 40; ++slot) {
        expected.push_back(to_bytes("r" + std::to_string(slot)));
    }
    EXPECT_EQ(rig.release(7, generation, 1, "r1"), expected);
    EXPECT_EQ(rig.sessions.waiting(), 0u);
    EXPECT_EQ(rig.sessions.find(7)->next_release, 41u);

    // A replaced session's banked replies go with it.
    EXPECT_TRUE(rig.release(7, generation, 42, "r42").empty());
    EXPECT_EQ(rig.sessions.waiting(), 1u);
    rig.connect(7, "second");
    EXPECT_EQ(rig.sessions.waiting(), 0u);
    const std::uint64_t fresh = rig.sessions.find(7)->generation;
    EXPECT_EQ(rig.release(7, fresh, 0, "fresh"),
              std::vector<Bytes>{to_bytes("fresh")});
}

TEST(ClientSessions, WaitingCountsBankedRepliesOfEverySession) {
    SessionRig rig;
    rig.connect(7, "seven");
    rig.connect(8, "eight");
    rig.release(7, rig.sessions.find(7)->generation, 1, "a");
    rig.release(7, rig.sessions.find(7)->generation, 2, "b");
    rig.release(8, rig.sessions.find(8)->generation, 3, "c");
    EXPECT_EQ(rig.sessions.waiting(), 3u);
    rig.sessions.erase(7);
    EXPECT_EQ(rig.sessions.waiting(), 1u);
    rig.sessions.clear();
    EXPECT_EQ(rig.sessions.waiting(), 0u);
}

TEST(ClientSessions, ServeFrameHandshakesAndOpensRecords) {
    sim::Simulator sim;
    sim::Network network(sim);
    Fabric fabric(sim, network);
    sim::Node node(sim, 1, "server", 1);
    std::vector<Bytes> to_client;
    fabric.attach(7, [&](sim::NodeId, Bytes m) {
        to_client.push_back(std::move(m));
    });
    SessionRig rig;
    std::vector<Bytes> requests;
    auto serve = [&](ByteView payload) {
        rig.sessions.serve_frame(
            fabric, node, kNative, 7, payload,
            [&](ClientSessions::Session&, ByteView request, auto&, auto&) {
                requests.emplace_back(request.begin(), request.end());
            });
        sim.run();
    };

    // A malformed frame costs nothing.
    serve(Bytes{9});
    EXPECT_EQ(node.busy_time(), 0);

    SecureChannelClient client(rig.identity.public_key, to_bytes("c"));
    const Bytes hello_frame = client_frame(
        ClientFrame::Hello, client.client_hello(), network.pool());
    serve(unwrap_view(hello_frame)->second);
    ASSERT_EQ(to_client.size(), 1u);
    const auto hello = unframe_client(unwrap_view(to_client[0])->second);
    ASSERT_TRUE(hello && hello->first == ClientFrame::ServerHello);
    ASSERT_TRUE(client.finish(hello->second));

    const sim::Duration after_hello = node.busy_time();
    const Bytes record = client.protect(to_bytes("q"));
    const Bytes record_frame =
        client_frame(ClientFrame::Record, record, network.pool());
    serve(unwrap_view(record_frame)->second);
    EXPECT_EQ(requests, std::vector<Bytes>{to_bytes("q")});
    // The dispatch and the record's AEAD pass.
    EXPECT_EQ(node.busy_time() - after_hello,
              kNative.dispatch() + kNative.aead(record.size()));
}

// ----------------------------------------------------------------- bundle

TEST(Envelope, BundleRoundTrip) {
    const std::vector<Bytes> frames = {
        wrap(Channel::Hybster, to_bytes("p1")),
        wrap(Channel::Client, to_bytes("p2")),
        wrap(Channel::Hybster, to_bytes("p3"))};
    const Bytes bundle = make_bundle(frames);
    const auto unwrapped = unwrap_view(bundle);
    ASSERT_TRUE(unwrapped.has_value());
    EXPECT_EQ(unwrapped->first, Channel::Bundle);
    std::vector<ByteView> inner;
    ASSERT_TRUE(unbundle(unwrapped->second, inner));
    ASSERT_EQ(inner.size(), 3u);
    for (std::size_t i = 0; i < frames.size(); ++i) {
        EXPECT_EQ(owned(inner)[i], frames[i]);
    }
}

TEST(Envelope, BundleRejectsMalformed) {
    std::vector<ByteView> inner;
    EXPECT_FALSE(unbundle(Bytes{}, inner));
    // count says 2 but only one message follows
    Writer w;
    w.u16(2);
    w.bytes(to_bytes("only"));
    EXPECT_FALSE(unbundle(w.data(), inner));
    // zero messages is not a valid bundle
    Writer empty;
    empty.u16(0);
    EXPECT_FALSE(unbundle(empty.data(), inner));
    // trailing garbage after the declared messages
    Writer trailing;
    trailing.u16(1);
    trailing.bytes(to_bytes("msg"));
    trailing.u8(0xff);
    EXPECT_FALSE(unbundle(trailing.data(), inner));
}

// ----------------------------------------------------------------- outbox

TEST(Outbox, FlushSendsAfterMeteredCost) {
    sim::Simulator sim;
    sim::Network network(sim);
    sim::LinkSpec instant;
    instant.latency = sim::LatencyModel::constant(0);
    instant.bandwidth_bits_per_sec = 1e15;
    network.set_default_link(instant);
    Fabric fabric(sim, network);
    sim::Node node(sim, 1, "n", 1);

    sim::SimTime delivered_at = 0;
    fabric.attach(2, [&](sim::NodeId, Bytes) { delivered_at = sim.now(); });

    Outbox outbox(fabric, node);
    outbox.send(2, to_bytes("x"));
    enclave::CostMeter meter;
    meter.add(sim::microseconds(500));
    outbox.flush(meter);
    sim.run();
    EXPECT_GE(delivered_at, sim::microseconds(500));
    EXPECT_EQ(meter.total(), 0u);  // flush consumed the meter
}

TEST(Outbox, DeferredCallbacksRunAtFlushTime) {
    sim::Simulator sim;
    sim::Network network(sim);
    Fabric fabric(sim, network);
    sim::Node node(sim, 1, "n", 1);

    Outbox outbox(fabric, node);
    sim::SimTime ran_at = 0;
    outbox.defer([&] { ran_at = sim.now(); });
    enclave::CostMeter meter;
    meter.add(sim::microseconds(100));
    outbox.flush(meter);
    sim.run();
    EXPECT_EQ(ran_at, sim::microseconds(100));
}

TEST(Outbox, CoalescesDestinationBurstsIntoOneBundle) {
    sim::Simulator sim;
    sim::Network network(sim);
    Fabric fabric(sim, network);
    sim::Node node(sim, 1, "n", 1);

    std::vector<Bytes> at_two;
    std::vector<Bytes> at_three;
    fabric.attach(2, [&](sim::NodeId, Bytes m) {
        at_two.push_back(std::move(m));
    });
    fabric.attach(3, [&](sim::NodeId, Bytes m) {
        at_three.push_back(std::move(m));
    });

    Outbox outbox(fabric, node, /*coalesce=*/true);
    outbox.send(2, wrap(Channel::Hybster, to_bytes("a")));
    outbox.send(2, wrap(Channel::Hybster, to_bytes("b")));
    outbox.send(3, wrap(Channel::Hybster, to_bytes("solo")));
    outbox.send(2, wrap(Channel::Hybster, to_bytes("c")));
    enclave::CostMeter meter;
    outbox.flush(meter);
    sim.run();

    // The three messages to node 2 travelled as ONE Bundle frame.
    ASSERT_EQ(at_two.size(), 1u);
    const auto unwrapped = unwrap_view(at_two[0]);
    ASSERT_TRUE(unwrapped.has_value());
    EXPECT_EQ(unwrapped->first, Channel::Bundle);
    std::vector<ByteView> inner;
    ASSERT_TRUE(unbundle(unwrapped->second, inner));
    ASSERT_EQ(inner.size(), 3u);
    EXPECT_EQ(owned(inner)[0], wrap(Channel::Hybster, to_bytes("a")));
    EXPECT_EQ(owned(inner)[1], wrap(Channel::Hybster, to_bytes("b")));
    EXPECT_EQ(owned(inner)[2], wrap(Channel::Hybster, to_bytes("c")));

    // A single-message destination keeps its original frame byte-for-byte
    // (batch-1 wire traffic is identical to the uncoalesced path).
    ASSERT_EQ(at_three.size(), 1u);
    EXPECT_EQ(at_three[0], wrap(Channel::Hybster, to_bytes("solo")));
}

// A coalesced flush of k frames to one peer copies them into one Bundle
// and banks each member buffer in the network pool; the Bundle itself is
// drawn from the pool, so a pool stocked with one buffer of its class
// serves it without allocating.
TEST(Outbox, CoalescedMembersReturnToThePool) {
    sim::Simulator sim;
    sim::Network network(sim);
    Fabric fabric(sim, network);
    sim::Node node(sim, 1, "n", 1);
    std::vector<Bytes> arrived;
    fabric.attach(2, [&](sim::NodeId, Bytes m) {
        arrived.push_back(std::move(m));
    });

    constexpr std::size_t kMembers = 3;
    std::vector<Bytes> members;
    for (std::size_t i = 0; i < kMembers; ++i) {
        members.push_back(
            wrap(Channel::Hybster, Bytes(199, static_cast<std::uint8_t>(i))));
    }
    const Bytes expected = make_bundle(members);
    Bytes stock;
    stock.reserve(sim::BufferPool::kClassSizes[2]);  // the Bundle's class
    ASSERT_GT(stock.capacity(), expected.size());
    network.pool().release(std::move(stock));
    const sim::BufferPool::Stats before = network.pool().stats();

    Outbox outbox(fabric, node, /*coalesce=*/true);
    for (Bytes& member : members) outbox.send(2, std::move(member));
    enclave::CostMeter meter;
    outbox.flush(meter);

    const sim::BufferPool::Stats after = network.pool().stats();
    EXPECT_EQ(after.recycled - before.recycled, kMembers);
    EXPECT_EQ(after.hits - before.hits, 1u);
    EXPECT_EQ(after.misses, before.misses);
    sim.run();
    ASSERT_EQ(arrived.size(), 1u);
    EXPECT_EQ(arrived[0], expected);
}

/// A transport whose only charge is a 100 µs entry per wire record.
sim::TransportProfile per_record_transport() {
    sim::TransportProfile transport;
    transport.tx_base_ns = 100000;
    transport.tx_per_byte_ns = 0;
    return transport;
}

TEST(Outbox, RecordCostChargedPerBurstNotPerMessage) {
    // Four messages to two destinations cost two records when coalescing,
    // four when not — the meter (observable as the send delay) must match
    // the emitted record count.
    const auto run_case = [](bool coalesce) {
        sim::Simulator sim;
        sim::Network network(sim);
        sim::LinkSpec instant;
        instant.latency = sim::LatencyModel::constant(0);
        instant.bandwidth_bits_per_sec = 1e15;
        network.set_default_link(instant);
        Fabric fabric(sim, network);
        sim::Node node(sim, 1, "n", 1);
        sim::SimTime delivered_at = 0;
        fabric.attach(2, [&](sim::NodeId, Bytes) {
            delivered_at = sim.now();
        });
        fabric.attach(3, [&](sim::NodeId, Bytes) {});

        const sim::TransportProfile transport = per_record_transport();
        Outbox outbox(fabric, node, coalesce, &transport);
        outbox.send(2, wrap(Channel::Hybster, to_bytes("a")));
        outbox.send(2, wrap(Channel::Hybster, to_bytes("b")));
        outbox.send(3, wrap(Channel::Hybster, to_bytes("c")));
        outbox.send(3, wrap(Channel::Hybster, to_bytes("d")));
        enclave::CostMeter meter;
        outbox.flush(meter);
        sim.run();
        return delivered_at;
    };
    // (±1 time unit of wire serialization on top of the metered cost)
    const sim::SimTime coalesced = run_case(true);    // 2 bursts
    const sim::SimTime uncoalesced = run_case(false);  // 4 records
    EXPECT_GE(coalesced, sim::microseconds(200));
    EXPECT_LE(coalesced, sim::microseconds(200) + 2);
    EXPECT_GE(uncoalesced, sim::microseconds(400));
    EXPECT_LE(uncoalesced, sim::microseconds(400) + 2);
}

TEST(Outbox, BatchOfOneCostParity) {
    // A flush whose coalesced group holds a single message must charge
    // exactly the non-coalesced cost: same record count, no Bundle
    // surcharge, byte-identical wire frame, identical delivery time.
    const auto run_case = [](bool coalesce) {
        sim::Simulator sim;
        sim::Network network(sim);
        sim::LinkSpec instant;
        instant.latency = sim::LatencyModel::constant(0);
        instant.bandwidth_bits_per_sec = 1e15;
        network.set_default_link(instant);
        Fabric fabric(sim, network);
        sim::Node node(sim, 1, "n", 1);
        sim::SimTime delivered_at = 0;
        Bytes frame;
        fabric.attach(2, [&](sim::NodeId, Bytes m) {
            delivered_at = sim.now();
            frame = std::move(m);
        });
        const sim::TransportProfile transport = per_record_transport();
        Outbox outbox(fabric, node, coalesce, &transport);
        outbox.send(2, wrap(Channel::Hybster, to_bytes("only")));
        enclave::CostMeter meter;
        outbox.flush(meter);
        sim.run();
        return std::make_pair(delivered_at, frame);
    };
    const auto [coalesced_at, coalesced_frame] = run_case(true);
    const auto [plain_at, plain_frame] = run_case(false);
    EXPECT_EQ(coalesced_at, plain_at);
    EXPECT_EQ(coalesced_frame, plain_frame);
    EXPECT_EQ(plain_frame, wrap(Channel::Hybster, to_bytes("only")));
}

// ------------------------------------------------- scatter-gather bundles

TEST(Envelope, BundleZeroLengthMessageRoundTrip) {
    const std::vector<Bytes> frames = {
        Bytes{}, wrap(Channel::Hybster, to_bytes("x")), Bytes{}};
    const Bytes bundle = make_bundle(frames);
    const auto unwrapped = unwrap_view(bundle);
    ASSERT_TRUE(unwrapped.has_value());
    std::vector<ByteView> inner;
    ASSERT_TRUE(unbundle(unwrapped->second, inner));
    ASSERT_EQ(inner.size(), 3u);
    EXPECT_TRUE(inner[0].empty());
    EXPECT_EQ(owned(inner)[1], frames[1]);
    EXPECT_TRUE(inner[2].empty());
}

TEST(Envelope, BundleCountAtU16Limit) {
    // 65535 zero-length members: the count field is at its ceiling and
    // the frame still splits back into every member.
    std::vector<Bytes> frames(kMaxBundleMessages);
    const Bytes bundle = make_bundle(frames);
    const auto unwrapped = unwrap_view(bundle);
    ASSERT_TRUE(unwrapped.has_value());
    std::vector<ByteView> inner;
    ASSERT_TRUE(unbundle(unwrapped->second, inner));
    EXPECT_EQ(inner.size(), kMaxBundleMessages);
}

TEST(Envelope, BundleTruncatedLengthPrefixRejectedAsUnit) {
    // Cut the frame two bytes into the second message's length prefix:
    // the whole bundle is rejected — the intact first message is NOT
    // delivered on its own.
    const std::vector<Bytes> frames = {to_bytes("aa"), to_bytes("bb")};
    const Bytes bundle = make_bundle(frames);
    const auto unwrapped = unwrap_view(bundle);
    ASSERT_TRUE(unwrapped.has_value());
    const ByteView payload = unwrapped->second;
    // payload = u16 count ‖ u32 len ‖ "aa" ‖ u32 len ‖ "bb"
    const Bytes truncated(payload.begin(), payload.begin() + 2 + 4 + 2 + 2);
    std::vector<ByteView> inner;
    EXPECT_FALSE(unbundle(truncated, inner));
    // truncating inside a message body is rejected the same way
    const Bytes short_body(payload.begin(), payload.begin() + 2 + 4 + 1);
    EXPECT_FALSE(unbundle(short_body, inner));
}

TEST(Envelope, BundleSplitEncodeRoundTripProperty) {
    // Random message vectors: unbundle on the make_bundle frame
    // reproduces the inputs, also into a vector an earlier (larger or
    // smaller) split left filled.
    Rng rng(0x77a7);
    std::vector<ByteView> inner;
    for (int iter = 0; iter < 50; ++iter) {
        const std::size_t count = 1 + rng.next_below(20);
        std::vector<Bytes> frames;
        frames.reserve(count);
        for (std::size_t i = 0; i < count; ++i) {
            Bytes m(rng.next_below(300));
            for (auto& b : m) {
                b = static_cast<std::uint8_t>(rng.next_below(256));
            }
            frames.push_back(std::move(m));
        }
        const Bytes reference = make_bundle(frames);
        const auto unwrapped = unwrap_view(reference);
        ASSERT_TRUE(unwrapped.has_value());
        ASSERT_TRUE(unbundle(unwrapped->second, inner));
        EXPECT_EQ(owned(inner), frames);
    }
}

TEST(Network, CreditWindowStallsAndPreservesOrder) {
    sim::Simulator sim;
    sim::Network network(sim);
    network.set_credit_window(1);
    Fabric fabric(sim, network);

    std::vector<Bytes> received;
    fabric.attach(2, [&](sim::NodeId, Bytes m) {
        received.push_back(std::move(m));
    });
    fabric.send(1, 2, to_bytes("a"));
    fabric.send(1, 2, to_bytes("b"));
    fabric.send(1, 2, to_bytes("c"));
    sim.run();

    // With one credit per directed pair the second and third send had to
    // wait for a delivery each; everything still arrives, in order.
    ASSERT_EQ(received.size(), 3u);
    EXPECT_EQ(received[0], to_bytes("a"));
    EXPECT_EQ(received[1], to_bytes("b"));
    EXPECT_EQ(received[2], to_bytes("c"));
    EXPECT_EQ(network.wire_stats().credit_stalls, 2u);
}

TEST(Outbox, TransportChargesOnlyStagedBytesOnZeroCopyPath) {
    // Transport profile: per-record entry plus per-byte staging. Without
    // scatter-gather the coalesced burst stages the whole frame; with it
    // the burst stages its framing only, so its flush completes earlier
    // by the referenced-bytes share of the per-byte cost. A lone frame
    // is staged whole either way.
    const auto run_case = [](bool scatter_gather, int messages) {
        sim::Simulator sim;
        sim::Network network(sim);
        sim::LinkSpec instant;
        instant.latency = sim::LatencyModel::constant(0);
        instant.bandwidth_bits_per_sec = 1e15;
        network.set_default_link(instant);
        Fabric fabric(sim, network);
        sim::Node node(sim, 1, "n", 1);
        sim::SimTime delivered_at = 0;
        fabric.attach(2, [&](sim::NodeId, Bytes) {
            delivered_at = sim.now();
        });
        sim::TransportProfile transport;
        transport.tx_base_ns = 1000.0;
        transport.tx_per_byte_ns = 1.0;
        transport.scatter_gather = scatter_gather;
        Outbox outbox(fabric, node, /*coalesce=*/true, &transport);
        for (int i = 0; i < messages; ++i) {
            outbox.send(2, wrap(Channel::Hybster,
                                Bytes(100, static_cast<std::uint8_t>(i))));
        }
        enclave::CostMeter meter;
        outbox.flush(meter);
        sim.run();
        return delivered_at;
    };
    // (±2 time units of wire serialization on top of the metered cost)
    const auto expect_near = [](sim::SimTime at, sim::SimTime metered) {
        EXPECT_GE(at, metered);
        EXPECT_LE(at, metered + 2);
    };
    // Frame: 3-byte Bundle head + 2 x (4-byte prefix + 101-byte message).
    // Copying stages all 213 bytes; scatter-gather stages the 11 header
    // bytes.
    expect_near(run_case(false, 2), 1000 + 213);
    expect_near(run_case(true, 2), 1000 + 11);
    // A singleton keeps its 101-byte frame and stages all of it.
    expect_near(run_case(false, 1), 1000 + 101);
    expect_near(run_case(true, 1), 1000 + 101);
}

}  // namespace
}  // namespace troxy::net

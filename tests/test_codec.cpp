// Hot-path codec tests: golden wire bytes and truncation/corruption.
//
// Golden bytes: the codec and certification inputs must stay bit-exact.
// The constants below pin the exact bytes of the per-message encodings,
// the certified and signed views, and the TrinX certificates under a
// fixed key, with fast crypto both off (real SHA-256/HMAC) and on (the
// word-stride stand-in the benchmarks use), together with the modelled
// cost the certifications charge. Any codec rewrite must reproduce them
// bit for bit: the wire format, every certificate and every simulated
// charge are part of the seed-replay contract.
//
// Truncation: every strict prefix of an encoded message must fail to
// decode, and every prefix or single-byte flip of a sealed record must
// deliver nothing, which drives the fixed-size and borrowed Reader paths
// through every bounds check (the sanitizer build runs these too).
//
// Counts and mutants: a frame claiming more list elements than it
// carries is refused before the decoder reserves room for them, and
// seeded flips, cuts and count overwrites of every golden encoding
// decode canonically or are refused, at a bounded allocation cost.
//
// Allocations: a Request is one shared body, a warm ordered-write
// cluster stays under a fixed allocation ceiling per request and draws
// every frame from the network pool, and an Outbox reuses the queue an
// earlier flush handed back to its Fabric.
#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <new>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "apps/echo_service.hpp"
#include "apps/kv_service.hpp"
#include "apps/mail_service.hpp"
#include "bench_support/cluster.hpp"
#include "bench_support/stats.hpp"
#include "bench_support/workload.hpp"
#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "crypto/fastmode.hpp"
#include "crypto/sha256.hpp"
#include "crypto/x25519.hpp"
#include "enclave/meter.hpp"
#include "enclave/trinx.hpp"
#include "hybster/messages.hpp"
#include "hybster/replica.hpp"
#include "net/client_sessions.hpp"
#include "net/envelope.hpp"
#include "net/fabric.hpp"
#include "net/outbox.hpp"
#include "net/secure_channel.hpp"
#include "sim/network.hpp"
#include "sim/node.hpp"
#include "sim/simulator.hpp"
#include "troxy/cache_messages.hpp"
#include "troxy/shard_front.hpp"
#include "troxy/shard_router.hpp"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

// Counts heap allocations, and the bytes they request, while a test
// enables it. Only the plain forms are replaced; the defaults of the
// other forms allocate with malloc and free with free as well.
namespace {
bool g_count_allocs = false;
std::uint64_t g_allocs = 0;
std::uint64_t g_alloc_bytes = 0;
}  // namespace

void* operator new(std::size_t size) {
    if (g_count_allocs) {
        ++g_allocs;
        g_alloc_bytes += size;
    }
    if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
    throw std::bad_alloc();
}
// GCC pairs these frees with the operator new calls they inline into.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace troxy::hybster {
namespace {

/// Heap allocations made while running `body`.
template <typename Body>
std::uint64_t allocations_in(Body&& body) {
    g_allocs = 0;
    g_count_allocs = true;
    body();
    g_count_allocs = false;
    return g_allocs;
}

/// Hex of any contiguous byte container (owning buffer or fixed array).
template <typename View>
std::string hex_of(const View& view) {
    return hex_encode(ByteView(view.data(), view.size()));
}

/// Owning copies of the messages unprotect() delivered: its views borrow
/// the receiver's buffers only until its next call.
std::vector<Bytes> owned(std::span<const ByteView> messages) {
    std::vector<Bytes> out;
    for (const ByteView m : messages) out.emplace_back(m.begin(), m.end());
    return out;
}

Certificate pattern_cert(std::uint8_t base) {
    Certificate cert;
    for (std::size_t i = 0; i < cert.size(); ++i) {
        cert[i] = static_cast<std::uint8_t>(base + i);
    }
    return cert;
}

Request make_request(std::uint32_t client, std::uint64_t number,
                     std::uint8_t flags, const char* payload) {
    Request r;
    r.id = {client, number};
    r.flags = flags;
    r.assign(to_bytes(payload), 1);
    r.auth_slots()[0] = pattern_cert(0x10);
    return r;
}

// The golden messages. Digests inside them depend on the fast-crypto
// mode, so each is built under the mode its encoding is checked in.

Request golden_request() {
    return make_request(7, 42, 0x01, "golden-request");
}

/// A Prepare of `members` (1 or 2) golden requests.
Prepare golden_prepare(std::size_t members = 2) {
    Prepare prepare;
    prepare.view = 3;
    prepare.seq = 17;
    prepare.replica = 0;
    prepare.counter_value = 17;
    prepare.batch.requests.push_back(golden_request());
    if (members > 1) {
        prepare.batch.requests.push_back(make_request(9, 5, 0x00, "second"));
    }
    prepare.cert = pattern_cert(0x40);
    return prepare;
}

Commit golden_commit() {
    Commit commit;
    commit.view = 3;
    commit.seq = 17;
    commit.replica = 2;
    commit.counter_value = 17;
    commit.batch_size = 2;
    commit.batch_digest = golden_prepare().batch.digest();
    commit.cert = pattern_cert(0x60);
    return commit;
}

/// The golden Commit at PBFT width: a four-replica link-MAC
/// authenticator, the sender's own slot zero.
Commit pbft_commit() {
    Commit commit = golden_commit();
    commit.counter_value = 2;  // the commit round
    commit.cert = Authenticator::zeros(4);
    for (std::size_t i = 0; i < 4; ++i) {
        if (i != commit.replica) {
            commit.cert[i] = pattern_cert(static_cast<std::uint8_t>(0x20 * i));
        }
    }
    return commit;
}

Reply golden_reply() {
    const Request request = golden_request();
    Reply reply;
    reply.kind = Reply::Kind::Ordered;
    reply.view = 3;
    reply.seq = 17;
    reply.request_id = request.id;
    reply.request_digest = request.digest();
    reply.result = to_bytes("golden-result");
    reply.replica = 1;
    reply.cert = pattern_cert(0x80);
    return reply;
}

CheckpointMsg golden_checkpoint() {
    CheckpointMsg checkpoint;
    checkpoint.seq = 128;
    checkpoint.state_digest = crypto::sha256(to_bytes("state"));
    checkpoint.replica = 2;
    checkpoint.cert = pattern_cert(0xa0);
    return checkpoint;
}

ViewChange golden_view_change() {
    ViewChange vc;
    vc.new_view = 4;
    vc.replica = 1;
    vc.last_stable = 16;
    vc.prepared.push_back(golden_prepare(1));
    vc.cert = pattern_cert(0xb0);
    return vc;
}

NewView golden_new_view() {
    NewView nv;
    nv.view = 4;
    nv.replica = 1;
    nv.start_seq = 17;
    nv.proofs.push_back(golden_view_change());
    Prepare fresh = golden_prepare(1);
    fresh.view = 4;
    fresh.replica = 1;
    nv.reproposed.push_back(fresh);
    nv.cert = pattern_cert(0xd0);
    return nv;
}

StateRequest golden_state_request() {
    StateRequest sr;
    sr.replica = 2;
    sr.have = 128;
    sr.have_chunks.push_back(crypto::sha256(to_bytes("chunk-a")));
    sr.cert = pattern_cert(0xe0);
    return sr;
}

StateResponse golden_state_response() {
    StateResponse sr;
    sr.replica = 1;
    sr.view = 3;
    sr.view_start = 10;
    sr.last_stable = 128;
    sr.root = crypto::sha256(to_bytes("root"));
    sr.manifest.push_back(crypto::sha256(to_bytes("chunk-a")));
    sr.manifest.push_back(crypto::sha256(to_bytes("chunk-b")));
    sr.chunks.push_back({1, to_bytes("chunk-b")});
    sr.proof.push_back(golden_checkpoint());
    sr.cert = pattern_cert(0xf0);
    return sr;
}

/// Every golden value, computed under the current fast-crypto mode.
std::map<std::string, std::string> golden_values() {
    std::map<std::string, std::string> out;

    const Request request = golden_request();
    out["request.encoded"] = hex_of(encode_message(Message(request)));
    out["request.signed_view"] = hex_of(request.signed_view());
    out["request.digest"] = hex_of(request.digest());

    const Prepare prepare = golden_prepare();
    out["prepare.encoded"] = hex_of(encode_message(Message(prepare)));
    out["prepare.certified_view"] = hex_of(prepare.certified_view());

    const Commit commit = golden_commit();
    out["commit.encoded"] = hex_of(encode_message(Message(commit)));
    out["commit.certified_view"] = hex_of(commit.certified_view());
    out["commit.pbft.encoded"] = hex_of(encode_message(pbft_commit()));

    const Reply reply = golden_reply();
    out["reply.encoded"] = hex_of(encode_message(Message(reply)));
    out["reply.certified_view"] = hex_of(reply.certified_view());

    const CheckpointMsg checkpoint = golden_checkpoint();
    out["checkpoint.encoded"] = hex_of(encode_message(Message(checkpoint)));
    out["checkpoint.certified_view"] = hex_of(checkpoint.certified_view());

    const ViewChange view_change = golden_view_change();
    out["view_change.encoded"] = hex_of(encode_message(view_change));
    out["view_change.certified_view"] =
        hex_of(view_change.certified_view());
    const NewView new_view = golden_new_view();
    out["new_view.encoded"] = hex_of(encode_message(new_view));
    out["new_view.certified_view"] = hex_of(new_view.certified_view());
    const StateRequest state_request = golden_state_request();
    out["state_request.encoded"] = hex_of(encode_message(state_request));
    out["state_request.certified_view"] =
        hex_of(state_request.certified_view());
    const StateResponse state_response = golden_state_response();
    out["state_response.encoded"] = hex_of(encode_message(state_response));
    out["state_response.certified_view"] =
        hex_of(state_response.certified_view());

    enclave::TrinX trinx(5, Bytes(32, 0x11));
    enclave::CostMeter meter;
    enclave::CostedCrypto crypto(sim::CostProfile::java(), meter);
    const auto continuing = trinx.certify_continuing(
        crypto, 2, prepare.certified_view());
    out["trinx.continuing.value"] = std::to_string(continuing.value);
    out["trinx.continuing.cert"] = hex_of(continuing.certificate);
    out["trinx.continuing.charge_ns"] = std::to_string(meter.take());
    const Certificate independent =
        trinx.certify_independent(crypto, reply.certified_view());
    out["trinx.independent.cert"] = hex_of(independent);
    out["trinx.independent.charge_ns"] = std::to_string(meter.take());

    enclave::TrinX verifier(1, Bytes(32, 0x11));
    const bool verified = verifier.verify_continuing(
        crypto, 5, 2, continuing.value, prepare.certified_view(),
        continuing.certificate);
    out["trinx.verify_continuing"] = verified ? "ok" : "rejected";
    out["trinx.verify_continuing.charge_ns"] = std::to_string(meter.take());
    out["trinx.handover"] = hex_of(trinx.export_handover(crypto));
    out["trinx.handover.charge_ns"] = std::to_string(meter.take());
    return out;
}

/// Runs golden_values() with fast crypto set as asked, then restores it.
std::map<std::string, std::string> golden_values_with(bool fast) {
    const bool previous = crypto::fast_crypto();
    crypto::set_fast_crypto(fast);
    auto values = golden_values();
    crypto::set_fast_crypto(previous);
    return values;
}

void expect_golden(const std::map<std::string, std::string>& actual,
                   const std::map<std::string, std::string>& expected) {
    ASSERT_EQ(actual.size(), expected.size());
    for (const auto& [name, value] : expected) {
        const auto it = actual.find(name);
        ASSERT_NE(it, actual.end()) << name;
        EXPECT_EQ(it->second, value) << name;
    }
}

// Values under real SHA-256 and HMAC-SHA256.
const std::map<std::string, std::string> kReal = {
    {"checkpoint.certified_view",
     "80000000000000004ba69735ca53765ed6a709edb56c6ea236b7193a3b29a6b3"
     "90c346f0f4340e4e02000000"},
    {"checkpoint.encoded",
     "0780000000000000004ba69735ca53765ed6a709edb56c6ea236b7193a3b29a6"
     "b390c346f0f4340e4e02000000a0a1a2a3a4a5a6a7a8a9aaabacadaeafb0b1b2"
     "b3b4b5b6b7b8b9babbbcbdbebf"},
    {"commit.certified_view",
     "0300000000000000110000000000000002000000020000009f1a24a2b4707de0"
     "111ee98e16991ce5013bc57a8d97f5a645647bc434884df1"},
    {"commit.encoded",
     "0303000000000000001100000000000000020000001100000000000000020000"
     "009f1a24a2b4707de0111ee98e16991ce5013bc57a8d97f5a645647bc434884d"
     "f1606162636465666768696a6b6c6d6e6f707172737475767778797a7b7c7d7e"
     "7f"},
    {"commit.pbft.encoded",
     "0303000000000000001100000000000000020000000200000000000000020000"
     "009f1a24a2b4707de0111ee98e16991ce5013bc57a8d97f5a645647bc434884d"
     "f1000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e"
     "1f202122232425262728292a2b2c2d2e2f303132333435363738393a3b3c3d3e"
     "3f00000000000000000000000000000000000000000000000000000000000000"
     "00606162636465666768696a6b6c6d6e6f707172737475767778797a7b7c7d7e"
     "7f"},
    {"new_view.certified_view",
     "0400000000000000010000001100000000000000010000000400000000000000"
     "0100000010000000000000000100000003000000000000001100000000000000"
     "00000000110000000000000001000000070000002a00000000000000010e0000"
     "00676f6c64656e2d7265717565737401101112131415161718191a1b1c1d1e1f"
     "202122232425262728292a2b2c2d2e2f404142434445464748494a4b4c4d4e4f"
     "505152535455565758595a5b5c5d5e5fb0b1b2b3b4b5b6b7b8b9babbbcbdbebf"
     "c0c1c2c3c4c5c6c7c8c9cacbcccdcecf01000000040000000000000011000000"
     "0000000001000000110000000000000001000000070000002a00000000000000"
     "010e000000676f6c64656e2d7265717565737401101112131415161718191a1b"
     "1c1d1e1f202122232425262728292a2b2c2d2e2f404142434445464748494a4b"
     "4c4d4e4f505152535455565758595a5b5c5d5e5f"},
    {"new_view.encoded",
     "0604000000000000000100000011000000000000000100000004000000000000"
     "0001000000100000000000000001000000030000000000000011000000000000"
     "0000000000110000000000000001000000070000002a00000000000000010e00"
     "0000676f6c64656e2d7265717565737401101112131415161718191a1b1c1d1e"
     "1f202122232425262728292a2b2c2d2e2f404142434445464748494a4b4c4d4e"
     "4f505152535455565758595a5b5c5d5e5fb0b1b2b3b4b5b6b7b8b9babbbcbdbe"
     "bfc0c1c2c3c4c5c6c7c8c9cacbcccdcecf010000000400000000000000110000"
     "000000000001000000110000000000000001000000070000002a000000000000"
     "00010e000000676f6c64656e2d7265717565737401101112131415161718191a"
     "1b1c1d1e1f202122232425262728292a2b2c2d2e2f404142434445464748494a"
     "4b4c4d4e4f505152535455565758595a5b5c5d5e5fd0d1d2d3d4d5d6d7d8d9da"
     "dbdcdddedfe0e1e2e3e4e5e6e7e8e9eaebecedeeef"},
    {"prepare.certified_view",
     "0300000000000000110000000000000000000000020000009f1a24a2b4707de0"
     "111ee98e16991ce5013bc57a8d97f5a645647bc434884df1"},
    {"prepare.encoded",
     "0203000000000000001100000000000000000000001100000000000000020000"
     "00070000002a00000000000000010e000000676f6c64656e2d72657175657374"
     "01101112131415161718191a1b1c1d1e1f202122232425262728292a2b2c2d2e"
     "2f09000000050000000000000000060000007365636f6e640110111213141516"
     "1718191a1b1c1d1e1f202122232425262728292a2b2c2d2e2f40414243444546"
     "4748494a4b4c4d4e4f505152535455565758595a5b5c5d5e5f"},
    {"reply.certified_view",
     "0003000000000000001100000000000000070000002a00000000000000a84ff7"
     "5732d1bb14893d509d9742b8592918c72c11d2fd67716b0aeb2ff3e5f40d0000"
     "00676f6c64656e2d726573756c7401000000"},
    {"reply.encoded",
     "040003000000000000001100000000000000070000002a00000000000000a84f"
     "f75732d1bb14893d509d9742b8592918c72c11d2fd67716b0aeb2ff3e5f40d00"
     "0000676f6c64656e2d726573756c7401000000808182838485868788898a8b8c"
     "8d8e8f909192939495969798999a9b9c9d9e9f"},
    {"request.digest",
     "a84ff75732d1bb14893d509d9742b8592918c72c11d2fd67716b0aeb2ff3e5f4"},
    {"request.encoded",
     "01070000002a00000000000000010e000000676f6c64656e2d72657175657374"
     "01101112131415161718191a1b1c1d1e1f202122232425262728292a2b2c2d2e"
     "2f"},
    {"request.signed_view",
     "070000002a00000000000000010e000000676f6c64656e2d72657175657374"},
    {"state_request.certified_view",
     "0802000000800000000000000001000000ba6e04391775aa27f39df72198b639"
     "4dbf99fc52a39f26acbd5f3d78983b745c"},
    {"state_request.encoded",
     "0802000000800000000000000001000000ba6e04391775aa27f39df72198b639"
     "4dbf99fc52a39f26acbd5f3d78983b745ce0e1e2e3e4e5e6e7e8e9eaebecedee"
     "eff0f1f2f3f4f5f6f7f8f9fafbfcfdfeff"},
    {"state_response.certified_view",
     "090100000003000000000000000a000000000000008000000000000000481349"
     "4d137e1631bba301d5acab6e7bb7aa74ce1185d456565ef51d737677b2"},
    {"state_response.encoded",
     "090100000003000000000000000a000000000000008000000000000000481349"
     "4d137e1631bba301d5acab6e7bb7aa74ce1185d456565ef51d737677b2020000"
     "00ba6e04391775aa27f39df72198b6394dbf99fc52a39f26acbd5f3d78983b74"
     "5c0f276ace01c571d7587f5417db6f19cb95c1ce4891f3cee9852d278ca385c4"
     "420100000001000000070000006368756e6b2d620180000000000000004ba697"
     "35ca53765ed6a709edb56c6ea236b7193a3b29a6b390c346f0f4340e4e020000"
     "00a0a1a2a3a4a5a6a7a8a9aaabacadaeafb0b1b2b3b4b5b6b7b8b9babbbcbdbe"
     "bff0f1f2f3f4f5f6f7f8f9fafbfcfdfeff000102030405060708090a0b0c0d0e"
     "0f"},
    {"trinx.continuing.cert",
     "deb5cfc7a0a9ae7df8f0b9770db47564d764b1bce0d24d56332e73841a8863bd"},
    {"trinx.continuing.charge_ns", "4630"},
    {"trinx.continuing.value", "1"},
    {"trinx.handover",
     "1000000001000000020000000100000000000000d7f2cb933691cab964b5c5c0"
     "c960881ad7a3d848dd2eda78ded637b3c1674946"},
    {"trinx.handover.charge_ns", "4318"},
    {"trinx.independent.cert",
     "26a2593889db86b2ad4efae27bfe402c2c25ebf1dc35f678421755599d8f8f9a"},
    {"trinx.independent.charge_ns", "4714"},
    {"trinx.verify_continuing", "ok"},
    {"trinx.verify_continuing.charge_ns", "4630"},
    {"view_change.certified_view",
     "0400000000000000010000001000000000000000010000000300000000000000"
     "110000000000000000000000110000000000000001000000070000002a000000"
     "00000000010e000000676f6c64656e2d72657175657374011011121314151617"
     "18191a1b1c1d1e1f202122232425262728292a2b2c2d2e2f4041424344454647"
     "48494a4b4c4d4e4f505152535455565758595a5b5c5d5e5f"},
    {"view_change.encoded",
     "0504000000000000000100000010000000000000000100000003000000000000"
     "00110000000000000000000000110000000000000001000000070000002a0000"
     "0000000000010e000000676f6c64656e2d726571756573740110111213141516"
     "1718191a1b1c1d1e1f202122232425262728292a2b2c2d2e2f40414243444546"
     "4748494a4b4c4d4e4f505152535455565758595a5b5c5d5e5fb0b1b2b3b4b5b6"
     "b7b8b9babbbcbdbebfc0c1c2c3c4c5c6c7c8c9cacbcccdcecf"},
};

// Values under fast crypto (the word-stride stand-in).
const std::map<std::string, std::string> kFast = {
    {"checkpoint.certified_view",
     "8000000000000000ba7f3e57a835c6769cfbd04268c51a713aec011eab1711e7"
     "1764734f1d851a9702000000"},
    {"checkpoint.encoded",
     "078000000000000000ba7f3e57a835c6769cfbd04268c51a713aec011eab1711"
     "e71764734f1d851a9702000000a0a1a2a3a4a5a6a7a8a9aaabacadaeafb0b1b2"
     "b3b4b5b6b7b8b9babbbcbdbebf"},
    {"commit.certified_view",
     "030000000000000011000000000000000200000002000000867ad4043ead19ad"
     "4361afe6b38fd3269d8323d49b6d09900f2e45d11a85773c"},
    {"commit.encoded",
     "0303000000000000001100000000000000020000001100000000000000020000"
     "00867ad4043ead19ad4361afe6b38fd3269d8323d49b6d09900f2e45d11a8577"
     "3c606162636465666768696a6b6c6d6e6f707172737475767778797a7b7c7d7e"
     "7f"},
    {"commit.pbft.encoded",
     "0303000000000000001100000000000000020000000200000000000000020000"
     "00867ad4043ead19ad4361afe6b38fd3269d8323d49b6d09900f2e45d11a8577"
     "3c000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e"
     "1f202122232425262728292a2b2c2d2e2f303132333435363738393a3b3c3d3e"
     "3f00000000000000000000000000000000000000000000000000000000000000"
     "00606162636465666768696a6b6c6d6e6f707172737475767778797a7b7c7d7e"
     "7f"},
    {"new_view.certified_view",
     "0400000000000000010000001100000000000000010000000400000000000000"
     "0100000010000000000000000100000003000000000000001100000000000000"
     "00000000110000000000000001000000070000002a00000000000000010e0000"
     "00676f6c64656e2d7265717565737401101112131415161718191a1b1c1d1e1f"
     "202122232425262728292a2b2c2d2e2f404142434445464748494a4b4c4d4e4f"
     "505152535455565758595a5b5c5d5e5fb0b1b2b3b4b5b6b7b8b9babbbcbdbebf"
     "c0c1c2c3c4c5c6c7c8c9cacbcccdcecf01000000040000000000000011000000"
     "0000000001000000110000000000000001000000070000002a00000000000000"
     "010e000000676f6c64656e2d7265717565737401101112131415161718191a1b"
     "1c1d1e1f202122232425262728292a2b2c2d2e2f404142434445464748494a4b"
     "4c4d4e4f505152535455565758595a5b5c5d5e5f"},
    {"new_view.encoded",
     "0604000000000000000100000011000000000000000100000004000000000000"
     "0001000000100000000000000001000000030000000000000011000000000000"
     "0000000000110000000000000001000000070000002a00000000000000010e00"
     "0000676f6c64656e2d7265717565737401101112131415161718191a1b1c1d1e"
     "1f202122232425262728292a2b2c2d2e2f404142434445464748494a4b4c4d4e"
     "4f505152535455565758595a5b5c5d5e5fb0b1b2b3b4b5b6b7b8b9babbbcbdbe"
     "bfc0c1c2c3c4c5c6c7c8c9cacbcccdcecf010000000400000000000000110000"
     "000000000001000000110000000000000001000000070000002a000000000000"
     "00010e000000676f6c64656e2d7265717565737401101112131415161718191a"
     "1b1c1d1e1f202122232425262728292a2b2c2d2e2f404142434445464748494a"
     "4b4c4d4e4f505152535455565758595a5b5c5d5e5fd0d1d2d3d4d5d6d7d8d9da"
     "dbdcdddedfe0e1e2e3e4e5e6e7e8e9eaebecedeeef"},
    {"prepare.certified_view",
     "030000000000000011000000000000000000000002000000867ad4043ead19ad"
     "4361afe6b38fd3269d8323d49b6d09900f2e45d11a85773c"},
    {"prepare.encoded",
     "0203000000000000001100000000000000000000001100000000000000020000"
     "00070000002a00000000000000010e000000676f6c64656e2d72657175657374"
     "01101112131415161718191a1b1c1d1e1f202122232425262728292a2b2c2d2e"
     "2f09000000050000000000000000060000007365636f6e640110111213141516"
     "1718191a1b1c1d1e1f202122232425262728292a2b2c2d2e2f40414243444546"
     "4748494a4b4c4d4e4f505152535455565758595a5b5c5d5e5f"},
    {"reply.certified_view",
     "0003000000000000001100000000000000070000002a000000000000001fd354"
     "ac820ebb539b05065e237e2b6c6b55d20a8f8de676f2fa23b7041989a30d0000"
     "00676f6c64656e2d726573756c7401000000"},
    {"reply.encoded",
     "040003000000000000001100000000000000070000002a000000000000001fd3"
     "54ac820ebb539b05065e237e2b6c6b55d20a8f8de676f2fa23b7041989a30d00"
     "0000676f6c64656e2d726573756c7401000000808182838485868788898a8b8c"
     "8d8e8f909192939495969798999a9b9c9d9e9f"},
    {"request.digest",
     "1fd354ac820ebb539b05065e237e2b6c6b55d20a8f8de676f2fa23b7041989a3"},
    {"request.encoded",
     "01070000002a00000000000000010e000000676f6c64656e2d72657175657374"
     "01101112131415161718191a1b1c1d1e1f202122232425262728292a2b2c2d2e"
     "2f"},
    {"request.signed_view",
     "070000002a00000000000000010e000000676f6c64656e2d72657175657374"},
    {"state_request.certified_view",
     "0802000000800000000000000001000000f950e0bd585da4b3a617708945b91f"
     "1a50ac07fd78b69e6762493af33e22365f"},
    {"state_request.encoded",
     "0802000000800000000000000001000000f950e0bd585da4b3a617708945b91f"
     "1a50ac07fd78b69e6762493af33e22365fe0e1e2e3e4e5e6e7e8e9eaebecedee"
     "eff0f1f2f3f4f5f6f7f8f9fafbfcfdfeff"},
    {"state_response.certified_view",
     "090100000003000000000000000a0000000000000080000000000000004a6094"
     "d3cfa5aa48518e60c72c551de6c34a02e80395f33ea1b0003b704a98db"},
    {"state_response.encoded",
     "090100000003000000000000000a0000000000000080000000000000004a6094"
     "d3cfa5aa48518e60c72c551de6c34a02e80395f33ea1b0003b704a98db020000"
     "00f950e0bd585da4b3a617708945b91f1a50ac07fd78b69e6762493af33e2236"
     "5f498b16b8662384c061df467d6cdfccc4c738a0f864c72e1e93449e07911c8f"
     "d90100000001000000070000006368756e6b2d62018000000000000000ba7f3e"
     "57a835c6769cfbd04268c51a713aec011eab1711e71764734f1d851a97020000"
     "00a0a1a2a3a4a5a6a7a8a9aaabacadaeafb0b1b2b3b4b5b6b7b8b9babbbcbdbe"
     "bff0f1f2f3f4f5f6f7f8f9fafbfcfdfeff000102030405060708090a0b0c0d0e"
     "0f"},
    {"trinx.continuing.cert",
     "c0ba0507e46dafd1d7ad6e896162e3fbf9d679ab2fec903c7bdf4606ab49800a"},
    {"trinx.continuing.charge_ns", "4630"},
    {"trinx.continuing.value", "1"},
    {"trinx.handover",
     "1000000001000000020000000100000000000000fd285693ec3188a7e05772bb"
     "b3c3ea1bc6be6161968d7d952a3607d16eda2d4e"},
    {"trinx.handover.charge_ns", "4318"},
    {"trinx.independent.cert",
     "28eac7ce135b39fdda89fb0ec3822beb694a71ac5bcab6e92a96493dac3c5d2b"},
    {"trinx.independent.charge_ns", "4714"},
    {"trinx.verify_continuing", "ok"},
    {"trinx.verify_continuing.charge_ns", "4630"},
    {"view_change.certified_view",
     "0400000000000000010000001000000000000000010000000300000000000000"
     "110000000000000000000000110000000000000001000000070000002a000000"
     "00000000010e000000676f6c64656e2d72657175657374011011121314151617"
     "18191a1b1c1d1e1f202122232425262728292a2b2c2d2e2f4041424344454647"
     "48494a4b4c4d4e4f505152535455565758595a5b5c5d5e5f"},
    {"view_change.encoded",
     "0504000000000000000100000010000000000000000100000003000000000000"
     "00110000000000000000000000110000000000000001000000070000002a0000"
     "0000000000010e000000676f6c64656e2d726571756573740110111213141516"
     "1718191a1b1c1d1e1f202122232425262728292a2b2c2d2e2f40414243444546"
     "4748494a4b4c4d4e4f505152535455565758595a5b5c5d5e5fb0b1b2b3b4b5b6"
     "b7b8b9babbbcbdbebfc0c1c2c3c4c5c6c7c8c9cacbcccdcecf"},
};

TEST(CodecGolden, RealCryptoBytesAndCharges) {
    expect_golden(golden_values_with(false), kReal);
}

TEST(CodecGolden, FastCryptoBytesAndCharges) {
    expect_golden(golden_values_with(true), kFast);
}


/// An encoded message and the authenticator width it decodes at.
struct Encoding {
    Bytes bytes;
    std::size_t auth_width = 1;
};

/// One encoded golden instance of each of the nine message types (the
/// Prepare a batch of two), plus the Commit at PBFT width.
std::vector<Encoding> golden_encodings() {
    return {
        {encode_message(golden_request())},
        {encode_message(golden_prepare())},
        {encode_message(golden_commit())},
        {encode_message(pbft_commit()), 4},
        {encode_message(golden_reply())},
        {encode_message(golden_checkpoint())},
        {encode_message(golden_view_change())},
        {encode_message(golden_new_view())},
        {encode_message(golden_state_request())},
        {encode_message(golden_state_response())},
    };
}

TEST(CodecTruncation, EveryStrictPrefixFailsToDecode) {
    for (const auto& [encoded, width] : golden_encodings()) {
        ASSERT_TRUE(decode_message(encoded, width).has_value())
            << "type " << int(encoded[0]);
        for (std::size_t n = 0; n < encoded.size(); ++n) {
            EXPECT_FALSE(decode_message(ByteView(encoded.data(), n), width)
                             .has_value())
                << "type " << int(encoded[0]) << " prefix " << n;
        }
    }
}

// ------------------------------------------------- count amplification

/// Heap bytes requested while running `body`.
template <typename Body>
std::uint64_t bytes_allocated_in(Body&& body) {
    g_alloc_bytes = 0;
    (void)allocations_in(body);
    return g_alloc_bytes;
}

/// A frame of `type` whose fixed fields are zero and whose element count
/// is `count`: `head` zero bytes sit between the tag and the count.
Bytes count_frame(MsgType type, std::size_t head, std::uint32_t count) {
    Writer w;
    w.u8(static_cast<std::uint8_t>(type));
    w.raw(Bytes(head, 0));
    w.u32(count);
    return std::move(w).take();
}

// A Byzantine peer's frame claims far more elements than it carries. The
// decoder must reject each one before reserving room for the claim.
TEST(CodecCounts, InflatedCountsAreRejectedBeforeTheyAllocate) {
    struct Crafted {
        const char* what;
        Bytes frame;
        std::size_t size;
    };
    const std::vector<Crafted> crafted = {
        {"ViewChange claiming 2^20 prepares",
         count_frame(MsgType::ViewChange, 8 + 4 + 8, 1u << 20), 25},
        {"NewView claiming 2^20 reproposals",
         count_frame(MsgType::NewView, 8 + 4 + 8 + 4, 1u << 20), 29},
        {"Prepare claiming a batch of 2^16",
         count_frame(MsgType::Prepare, 8 + 8 + 4 + 8, 1u << 16), 33},
        {"StateRequest claiming 2^20 chunk digests",
         count_frame(MsgType::StateRequest, 4 + 8, 1u << 20), 17},
        {"StateResponse claiming a 2^20 manifest",
         count_frame(MsgType::StateResponse, 4 + 8 + 8 + 8 + 32, 1u << 20),
         65},
        {"NewView claiming 1,024 proofs",
         count_frame(MsgType::NewView, 8 + 4 + 8, 1024), 25},
    };
    for (const Crafted& c : crafted) {
        ASSERT_EQ(c.frame.size(), c.size) << c.what;
        bool decoded = true;
        const std::uint64_t bytes = bytes_allocated_in(
            [&] { decoded = decode_message(c.frame).has_value(); });
        EXPECT_FALSE(decoded) << c.what;
        EXPECT_EQ(bytes, 0u) << c.what;
    }

    // Decoded into a recycled Prepare, the inflated batch leaves the
    // member vector as it was.
    Prepare recycled;
    recycled.batch.requests.reserve(4);
    const std::size_t capacity = recycled.batch.requests.capacity();
    const Bytes frame =
        count_frame(MsgType::Prepare, 8 + 8 + 4 + 8, 1u << 16);
    bool decoded = true;
    const std::uint64_t bytes = bytes_allocated_in(
        [&] { decoded = decode_prepare_into(frame, recycled, 1); });
    EXPECT_FALSE(decoded);
    EXPECT_EQ(bytes, 0u);
    EXPECT_EQ(recycled.batch.requests.capacity(), capacity);
}

TEST(CodecTruncation, DamagedRecordsDeliverNothing) {
    crypto::ChaChaKey key{};
    key.fill(0x42);
    crypto::ChaChaNonce iv{};
    iv.fill(0x24);
    net::RecordProtection sender(key, iv);
    net::RecordProtection receiver(key, iv);

    const Bytes first = to_bytes("first message");
    const Bytes second = to_bytes("second");
    const std::vector<Bytes> records = {
        sender.protect(first),
        sender.protect_many(
            std::vector<ByteView>{ByteView(first), ByteView(second)}),
    };
    for (const Bytes& record : records) {
        for (std::size_t n = 0; n < record.size(); ++n) {
            EXPECT_TRUE(receiver.unprotect(ByteView(record.data(), n)).empty())
                << "prefix " << n;
        }
        for (std::size_t i = 0; i < record.size(); ++i) {
            Bytes flipped = record;
            flipped[i] ^= 0x01;
            EXPECT_TRUE(receiver.unprotect(flipped).empty()) << "flip " << i;
        }
    }
    // None of the failures touched the receive state: the intact records
    // still deliver, in order, exactly once.
    EXPECT_EQ(owned(receiver.unprotect(records[0])), std::vector<Bytes>{first});
    EXPECT_EQ(owned(receiver.unprotect(records[1])),
              (std::vector<Bytes>{first, second}));
    EXPECT_TRUE(receiver.unprotect(records[1]).empty());  // replay
}

// ---------------------------------------------------------- cache bursts

// Three queries (the second with a state key longer than the small-string
// buffer) and three responses (the last without an entry), with patterned
// fields.
std::vector<troxy_core::CacheQuery> golden_queries() {
    std::vector<troxy_core::CacheQuery> queries(3);
    for (std::size_t i = 0; i < queries.size(); ++i) {
        troxy_core::CacheQuery& q = queries[i];
        q.requester = static_cast<sim::NodeId>(100 + i);
        q.query_id = 0x0102030405060708ULL + i;
        q.state_key = i == 1 ? "kv:a-state-key-longer-than-sso"
                             : "kv:k" + std::to_string(i);
        for (std::size_t j = 0; j < q.request_digest.size(); ++j) {
            q.request_digest[j] = static_cast<std::uint8_t>(j * 7 + i);
        }
        for (std::size_t j = 0; j < q.cert.size(); ++j) {
            q.cert[j] = static_cast<std::uint8_t>(0xc0 + j + i);
        }
    }
    return queries;
}

std::vector<troxy_core::CacheResponse> golden_responses() {
    std::vector<troxy_core::CacheResponse> responses(3);
    for (std::size_t i = 0; i < responses.size(); ++i) {
        troxy_core::CacheResponse& r = responses[i];
        r.responder = static_cast<sim::NodeId>(7 + i);
        r.responder_replica = static_cast<std::uint32_t>(i);
        r.query_id = 0x1000 + i;
        r.has_entry = i != 2;
        for (std::size_t j = 0; j < r.request_digest.size(); ++j) {
            r.request_digest[j] = static_cast<std::uint8_t>(j + i);
            r.result_digest[j] = static_cast<std::uint8_t>(255 - j - i);
        }
        for (std::size_t j = 0; j < r.cert.size(); ++j) {
            r.cert[j] = static_cast<std::uint8_t>(0x50 + j * 3 + i);
        }
    }
    return responses;
}

// Recorded from the message-struct encoder the span encoders replaced
// (a CacheQueryBatch / CacheResponseBatch built, then encoded): the wire
// format did not change.
const char* const kGoldenPlainQuery =
    "01640000000807060504030201050000006b763a6b3000070e151c232a31383f"
    "464d545b626970777e858c939aa1a8afb6bdc4cbd2d9c0c1c2c3c4c5c6c7c8c9"
    "cacbcccdcecfd0d1d2d3d4d5d6d7d8d9dadbdcdddedf";
const char* const kGoldenPlainResponse =
    "02090000000200000002100000000000000002030405060708090a0b0c0d0e0f"
    "101112131415161718191a1b1c1d1e1f2021fdfcfbfaf9f8f7f6f5f4f3f2f1f0"
    "efeeedecebeae9e8e7e6e5e4e3e2e1e0dfde5255585b5e6164676a6d70737679"
    "7c7f8285888b8e9194979a9da0a3a6a9acaf";
const char* const kGoldenQueryBatch =
    "030300640000000807060504030201050000006b763a6b3000070e151c232a31"
    "383f464d545b626970777e858c939aa1a8afb6bdc4cbd2d9c0c1c2c3c4c5c6c7"
    "c8c9cacbcccdcecfd0d1d2d3d4d5d6d7d8d9dadbdcdddedf6500000009070605"
    "040302011e0000006b763a612d73746174652d6b65792d6c6f6e6765722d7468"
    "616e2d73736f01080f161d242b323940474e555c636a71787f868d949ba2a9b0"
    "b7bec5ccd3dac1c2c3c4c5c6c7c8c9cacbcccdcecfd0d1d2d3d4d5d6d7d8d9da"
    "dbdcdddedfe0660000000a07060504030201050000006b763a6b32020910171e"
    "252c333a41484f565d646b727980878e959ca3aab1b8bfc6cdd4dbc2c3c4c5c6"
    "c7c8c9cacbcccdcecfd0d1d2d3d4d5d6d7d8d9dadbdcdddedfe0e1";
const char* const kGoldenResponseBatch =
    "0403000700000000000000001000000000000001000102030405060708090a0b"
    "0c0d0e0f101112131415161718191a1b1c1d1e1ffffefdfcfbfaf9f8f7f6f5f4"
    "f3f2f1f0efeeedecebeae9e8e7e6e5e4e3e2e1e0505356595c5f6265686b6e71"
    "74777a7d808386898c8f9295989b9ea1a4a7aaad080000000100000001100000"
    "00000000010102030405060708090a0b0c0d0e0f101112131415161718191a1b"
    "1c1d1e1f20fefdfcfbfaf9f8f7f6f5f4f3f2f1f0efeeedecebeae9e8e7e6e5e4"
    "e3e2e1e0df5154575a5d606366696c6f7275787b7e8184878a8d909396999c9f"
    "a2a5a8abae090000000200000002100000000000000002030405060708090a0b"
    "0c0d0e0f101112131415161718191a1b1c1d1e1f2021fdfcfbfaf9f8f7f6f5f4"
    "f3f2f1f0efeeedecebeae9e8e7e6e5e4e3e2e1e0dfde5255585b5e6164676a6d"
    "707376797c7f8285888b8e9194979a9da0a3a6a9acaf";

/// An element of a host- or enclave-side buffer: the encoders read the
/// item through a projection.
struct Buffered {
    sim::NodeId to = 0;
    troxy_core::CacheQuery query;
};

TEST(CacheCodec, SpanEncodingsMatchTheGoldenBytes) {
    using troxy_core::encode_cache_message;
    const auto queries = golden_queries();
    const auto responses = golden_responses();
    EXPECT_EQ(hex_of(encode_cache_message(queries.begin(),
                                          queries.begin() + 1)),
              kGoldenPlainQuery);
    EXPECT_EQ(hex_of(encode_cache_message(responses.begin() + 2,
                                          responses.end())),
              kGoldenPlainResponse);
    EXPECT_EQ(hex_of(encode_cache_message(queries.begin(), queries.end())),
              kGoldenQueryBatch);
    EXPECT_EQ(
        hex_of(encode_cache_message(responses.begin(), responses.end())),
        kGoldenResponseBatch);

    // The pooled frame is the envelope byte, then the same bytes, read
    // through a projection, in one buffer from the pool.
    std::vector<Buffered> buffered;
    for (const auto& query : queries) buffered.push_back({3, query});
    sim::BufferPool pool;
    const Bytes frame = troxy_core::encode_cache_frame(
        buffered.begin(), buffered.end(), pool, &Buffered::query);
    EXPECT_EQ(frame.front(), static_cast<std::uint8_t>(net::Channel::TroxyCache));
    EXPECT_EQ(hex_of(ByteView(frame).subspan(1)), kGoldenQueryBatch);
    EXPECT_EQ(pool.stats().hits + pool.stats().misses, 1u);
}

TEST(CacheCodec, BurstsDecodeBackIntoReusedLists) {
    const auto queries = golden_queries();
    const auto responses = golden_responses();
    troxy_core::CacheBurst burst;
    for (int round = 0; round < 2; ++round) {
        const Bytes query_batch =
            troxy_core::encode_cache_message(queries.begin(), queries.end());
        const Bytes plain_response = troxy_core::encode_cache_message(
            responses.begin(), responses.begin() + 1);
        ASSERT_TRUE(troxy_core::decode_cache_burst(query_batch, burst));
        EXPECT_TRUE(burst.responses.empty());
        ASSERT_EQ(burst.queries.size(), 3u);
        EXPECT_EQ(hex_of(troxy_core::encode_cache_message(
                      burst.queries.begin(), burst.queries.end())),
                  kGoldenQueryBatch);
        ASSERT_TRUE(troxy_core::decode_cache_burst(plain_response, burst));
        EXPECT_TRUE(burst.queries.empty());
        ASSERT_EQ(burst.responses.size(), 1u);
        EXPECT_EQ(burst.responses[0].query_id, responses[0].query_id);
        EXPECT_EQ(burst.responses[0].result_digest,
                  responses[0].result_digest);

        // Once the lists have grown, decoding a response burst reuses
        // them.
        const Bytes response_batch = troxy_core::encode_cache_message(
            responses.begin(), responses.end());
        const std::uint64_t allocs = allocations_in([&] {
            ASSERT_TRUE(troxy_core::decode_cache_burst(response_batch, burst));
        });
        if (round == 1) {
            EXPECT_EQ(allocs, 0u);
        }
        EXPECT_EQ(burst.responses.size(), 3u);
    }
}

TEST(CacheCodec, TruncatedOrGarbageBurstsAreRejected) {
    const auto queries = golden_queries();
    const auto responses = golden_responses();
    const std::vector<Bytes> encodings = {
        troxy_core::encode_cache_message(queries.begin(), queries.begin() + 1),
        troxy_core::encode_cache_message(responses.begin(),
                                         responses.begin() + 1),
        troxy_core::encode_cache_message(queries.begin(), queries.end()),
        troxy_core::encode_cache_message(responses.begin(), responses.end()),
    };
    troxy_core::CacheBurst burst;
    for (const Bytes& encoded : encodings) {
        ASSERT_TRUE(troxy_core::decode_cache_burst(encoded, burst));
        for (std::size_t n = 0; n < encoded.size(); ++n) {
            EXPECT_FALSE(troxy_core::decode_cache_burst(
                ByteView(encoded.data(), n), burst))
                << "tag " << int(encoded[0]) << " prefix " << n;
        }
        Bytes trailing = encoded;
        trailing.push_back(0);
        EXPECT_FALSE(troxy_core::decode_cache_burst(trailing, burst))
            << "tag " << int(encoded[0]) << " trailing byte";
    }
    // Unknown tags, an empty batch, and a count beyond the bytes present.
    EXPECT_FALSE(troxy_core::decode_cache_burst(Bytes{0}, burst));
    EXPECT_FALSE(troxy_core::decode_cache_burst(Bytes{5, 1, 0}, burst));
    EXPECT_FALSE(troxy_core::decode_cache_burst(Bytes{3, 0, 0}, burst));
    EXPECT_FALSE(troxy_core::decode_cache_burst(Bytes{4, 0, 0}, burst));
    Bytes inflated = encodings[3];
    inflated[1] = 0xff;
    inflated[2] = 0xff;
    EXPECT_FALSE(troxy_core::decode_cache_burst(inflated, burst));
    // The garbage count reserved nothing for items it cannot hold.
    EXPECT_LT(burst.responses.capacity(), 16u);
    // A rejected decode leaves the lists fit for the next message.
    ASSERT_TRUE(troxy_core::decode_cache_burst(encodings[2], burst));
    EXPECT_EQ(burst.queries.size(), 3u);
}

// The cache wire's two would-be aliases are refused: a lone item in the
// batch form (it has the plain form) and a has-entry byte above 1.
TEST(CacheCodec, NonCanonicalFormsAreRejected) {
    const auto queries = golden_queries();
    const auto responses = golden_responses();
    troxy_core::CacheBurst burst;
    for (const Bytes& plain :
         {troxy_core::encode_cache_message(queries.begin(),
                                           queries.begin() + 1),
          troxy_core::encode_cache_message(responses.begin(),
                                           responses.begin() + 1)}) {
        ASSERT_TRUE(troxy_core::decode_cache_burst(plain, burst));
        Bytes batch_of_one = plain;
        batch_of_one[0] = plain[0] == troxy_core::CacheQuery::kTag
                              ? troxy_core::CacheQuery::kBatchTag
                              : troxy_core::CacheResponse::kBatchTag;
        batch_of_one.insert(batch_of_one.begin() + 1, {1, 0});
        EXPECT_FALSE(troxy_core::decode_cache_burst(batch_of_one, burst))
            << "tag " << int(plain[0]);
    }
    Bytes response = troxy_core::encode_cache_message(responses.begin(),
                                                      responses.begin() + 1);
    const std::size_t has_entry = 1 + 4 + 4 + 8;  // tag, ids, query id
    ASSERT_EQ(response[has_entry], responses[0].has_entry ? 1 : 0);
    for (const std::uint8_t value : {0, 1}) {
        response[has_entry] = value;
        ASSERT_TRUE(troxy_core::decode_cache_burst(response, burst));
        EXPECT_EQ(burst.responses[0].has_entry, value == 1);
    }
    for (const std::uint8_t value : {2, 0x80, 0xff}) {
        response[has_entry] = value;
        EXPECT_FALSE(troxy_core::decode_cache_burst(response, burst))
            << "has-entry " << int(value);
    }
}

// ------------------------------------------------------------- mutation

/// Seeded mutants of `encoded`: every single-byte flip under a seeded
/// mask, every strict prefix, and at every offset a count-sized field
/// (1, 2 or 4 bytes) overwritten with a seeded large value, so whatever
/// count sits there claims far more elements than the frame carries.
std::vector<Bytes> mutants_of(const Bytes& encoded, std::uint64_t seed) {
    Rng rng(seed);
    std::vector<Bytes> out;
    for (std::size_t i = 0; i < encoded.size(); ++i) {
        Bytes flipped = encoded;
        flipped[i] ^= static_cast<std::uint8_t>(1 + rng.next_below(255));
        out.push_back(std::move(flipped));
        out.emplace_back(encoded.begin(), encoded.begin() + i);
        for (const std::size_t width : {1u, 2u, 4u}) {
            if (i + width > encoded.size()) continue;
            const std::uint64_t claims[] = {
                0xffffffffULL, 1ULL << 20, 1ULL << 16,
                64 + rng.next_below(4096)};
            for (const std::uint64_t claim : claims) {
                Bytes inflated = encoded;
                store_le(inflated.data() + i, claim, static_cast<int>(width));
                out.push_back(std::move(inflated));
            }
        }
    }
    return out;
}

/// Heap bytes a decoder may request for a mutant of `size` bytes. Every
/// list reserves at most what the bytes left could hold, so decoding
/// costs a small multiple of the input (about 5x at worst here, a NewView
/// whose nested lists each reserve for the bytes after them), plus the
/// rejection's exception message.
std::uint64_t mutant_allocation_bound(std::size_t size) {
    return 8 * size + 256;
}

// Every mutant of every golden Hybster encoding (the Prepare a batch of
// two, the Commit at PBFT width too) either decodes or is rejected, and
// decoding allocates a bounded multiple of its size. A mutant that
// decodes re-encodes to its own bytes: every Hybster field is canonical.
TEST(CodecMutation, HybsterMutantsDecodeCanonicallyOrAreRejected) {
    std::uint64_t seed = 1;
    std::size_t decoded_count = 0;
    std::size_t mutant_count = 0;
    for (const auto& [encoded, width] : golden_encodings()) {
        for (const Bytes& mutant : mutants_of(encoded, seed++)) {
            ++mutant_count;
            std::optional<Message> decoded;
            const std::uint64_t bytes = bytes_allocated_in(
                [&] { decoded = decode_message(mutant, width); });
            ASSERT_LE(bytes, mutant_allocation_bound(mutant.size()))
                << "type " << int(encoded[0]) << " mutant "
                << hex_encode(mutant);
            if (!decoded) continue;
            ++decoded_count;
            ASSERT_EQ(hex_encode(encode_message(*decoded)), hex_encode(mutant))
                << "type " << int(encoded[0]);
        }
    }
    // The flips inside payloads, digests and certificates decode.
    EXPECT_GT(decoded_count, mutant_count / 10);
}

// The same over both cache forms, plain and batched, for queries and
// responses. A mutant that decodes re-encodes to its own bytes: a batch
// tag never carries one item and a has-entry byte is 0 or 1, so every
// cache field is canonical too.
TEST(CodecMutation, CacheMutantsDecodeCanonicallyOrAreRejected) {
    const auto queries = golden_queries();
    const auto responses = golden_responses();
    const std::vector<Bytes> encodings = {
        troxy_core::encode_cache_message(queries.begin(), queries.begin() + 1),
        troxy_core::encode_cache_message(responses.begin(),
                                         responses.begin() + 1),
        troxy_core::encode_cache_message(queries.begin(), queries.end()),
        troxy_core::encode_cache_message(responses.begin(), responses.end()),
    };
    troxy_core::CacheBurst burst;
    std::uint64_t seed = 100;
    std::size_t decoded_count = 0;
    for (const Bytes& encoded : encodings) {
        for (const Bytes& mutant : mutants_of(encoded, seed++)) {
            bool decoded = false;
            const std::uint64_t bytes = bytes_allocated_in(
                [&] { decoded = troxy_core::decode_cache_burst(mutant, burst); });
            ASSERT_LE(bytes, mutant_allocation_bound(mutant.size()))
                << "tag " << int(encoded[0]) << " mutant "
                << hex_encode(mutant);
            if (!decoded) continue;
            ++decoded_count;
            const Bytes again =
                burst.queries.empty()
                    ? troxy_core::encode_cache_message(burst.responses.begin(),
                                                       burst.responses.end())
                    : troxy_core::encode_cache_message(burst.queries.begin(),
                                                       burst.queries.end());
            ASSERT_EQ(hex_encode(again), hex_encode(mutant))
                << "tag " << int(encoded[0]);
        }
    }
    EXPECT_GT(decoded_count, 0u);
}

// ------------------------------------------------------------ request body

TEST(RequestBody, CopiesShareOneBodyWithoutAllocating) {
    const Request original = make_request(7, 42, 0x01, "golden-request");
    (void)original.digest();
    std::vector<Request> copies;
    copies.reserve(4);
    const std::uint64_t allocs = allocations_in([&] {
        Request copy = original;
        copies.push_back(copy);
        copies.push_back(std::move(copy));
        copies.push_back(copies.front());
    });
    EXPECT_EQ(allocs, 0u);
    for (const Request& copy : copies) {
        EXPECT_EQ(copy.payload().data(), original.payload().data());
        EXPECT_EQ(copy.auth().data(), original.auth().data());
        EXPECT_EQ(copy.digest(), original.digest());
    }
}

TEST(RequestBody, DecodeTakesOneRecycledBlock) {
    const Bytes wire =
        encode_message(Message(make_request(7, 42, 0x01, "golden-request")));
    std::optional<Message> decoded;
    // Cold, the body is the one allocation; once freed, its block serves
    // the next decode of the same size class.
    EXPECT_LE(allocations_in([&] { decoded = decode_message(wire); }), 1u);
    decoded.reset();
    EXPECT_EQ(allocations_in([&] { decoded = decode_message(wire); }), 0u);
    ASSERT_TRUE(decoded && std::holds_alternative<Request>(*decoded));
    EXPECT_EQ(to_string(std::get<Request>(*decoded).payload()),
              "golden-request");
}

/// A request carrying `certs` pattern certificates.
Request request_with_certs(std::size_t certs, std::uint8_t flags,
                           const char* payload) {
    Request r;
    r.id = {11, 1000 + certs};
    r.flags = flags;
    r.assign(to_bytes(payload), certs);
    for (std::size_t i = 0; i < certs; ++i) {
        r.auth_slots()[i] =
            pattern_cert(static_cast<std::uint8_t>(0x10 + 0x20 * i));
    }
    return r;
}

TEST(RequestBody, CertificateCountsRoundTripToGoldenBytes) {
    const std::map<std::size_t, std::string> golden = {
        {0, "010b000000e80300000000000000080000006e6f2d636572747300"},
        {1,
         "010b000000e90300000000000000080000006f6e652d6365727401101112"
         "131415161718191a1b1c1d1e1f202122232425262728292a2b2c2d2e2f"},
        {3,
         "010b000000eb03000000000000010b00000074687265652d636572747303"
         "101112131415161718191a1b1c1d1e1f202122232425262728292a2b2c2d"
         "2e2f303132333435363738393a3b3c3d3e3f404142434445464748494a4b"
         "4c4d4e4f505152535455565758595a5b5c5d5e5f60616263646566676869"
         "6a6b6c6d6e6f"},
    };
    const std::map<std::size_t, const char*> payloads = {
        {0, "no-certs"}, {1, "one-cert"}, {3, "three-certs"}};
    for (const auto& [certs, hex] : golden) {
        const Request request = request_with_certs(
            certs, certs == 3 ? Request::kFlagRead : 0, payloads.at(certs));
        const Bytes wire = encode_message(Message(request));
        EXPECT_EQ(hex_encode(wire), hex) << certs << " certificates";
        const auto decoded = decode_message(wire);
        ASSERT_TRUE(decoded && std::holds_alternative<Request>(*decoded));
        const Request& out = std::get<Request>(*decoded);
        EXPECT_EQ(out.id, request.id);
        EXPECT_EQ(out.flags, request.flags);
        EXPECT_EQ(to_string(out.payload()), payloads.at(certs));
        ASSERT_EQ(out.auth().size(), certs);
        for (std::size_t i = 0; i < certs; ++i) {
            EXPECT_EQ(out.auth()[i], request.auth()[i]);
        }
        EXPECT_EQ(hex_encode(encode_message(Message(out))), hex);
    }
}

TEST(RequestBody, TruncatedPayloadOrAuthThrows) {
    const Request request = request_with_certs(3, 0, "three-certs");
    Writer w;
    Request::layout(w, request);
    const Bytes encoded = std::move(w).take();
    const std::size_t header = 4 + 8 + 1 + 4;  // id, flags, length prefix
    const std::size_t payload_end = header + request.payload().size();
    for (const std::size_t cut :
         {header + 2, payload_end, payload_end + 1, payload_end + 1 + 40,
          encoded.size() - 1}) {
        Reader r(ByteView(encoded.data(), cut));
        EXPECT_THROW((void)Request::decode(r), DecodeError) << "cut " << cut;
    }
    Reader whole(encoded);
    EXPECT_NO_THROW((void)Request::decode(whole));
}

/// `size` bytes of payload, each derived from `base`.
Bytes patterned(std::size_t size, std::uint8_t base) {
    Bytes out(size);
    for (std::size_t i = 0; i < size; ++i) {
        out[i] = static_cast<std::uint8_t>(base + i);
    }
    return out;
}

/// The wire form (no type tag) of a request with `certs` pattern
/// certificates over `payload`.
Bytes encoded_request(std::uint64_t number, const Bytes& payload,
                      std::size_t certs) {
    Request r;
    r.id = {11, number};
    r.assign(payload, certs);
    for (std::size_t i = 0; i < certs; ++i) {
        r.auth_slots()[i] = pattern_cert(static_cast<std::uint8_t>(0x40 * i));
    }
    Writer w;
    Request::layout(w, r);
    return std::move(w).take();
}

Request decode_request(const Bytes& wire) {
    Reader r(wire);
    return Request::decode(r);
}

TEST(RequestBody, ShorterBodyInARecycledBlockCarriesOnlyItsOwn) {
    // Both bodies fall in the 384 B class: 16 B of header, then 330 B of
    // payload and one certificate, or 280 B and two, the second where the
    // longer payload ran on.
    const Bytes long_payload = patterned(330, 0x01);
    const Bytes short_payload = patterned(280, 0x80);
    const Bytes long_wire = encoded_request(1, long_payload, 1);
    const Bytes short_wire = encoded_request(2, short_payload, 2);

    const std::uint8_t* block = nullptr;
    {
        const Request long_request = decode_request(long_wire);
        block = long_request.payload().data();
    }
    std::optional<Request> short_request;
    EXPECT_EQ(allocations_in([&] { short_request = decode_request(short_wire); }),
              0u);
    EXPECT_EQ(short_request->payload().data(), block);  // the same block
    EXPECT_EQ(Bytes(short_request->payload().begin(),
                    short_request->payload().end()),
              short_payload);
    ASSERT_EQ(short_request->auth().size(), 2u);
    EXPECT_EQ(short_request->auth()[0], pattern_cert(0));
    EXPECT_EQ(short_request->auth()[1], pattern_cert(0x40));
    Writer w;
    Request::layout(w, *short_request);
    EXPECT_EQ(std::move(w).take(), short_wire);

    // assign() draws from the same list: a fresh body over a short
    // payload holds zeroed certificates, none of the old ones.
    short_request.reset();
    Request assigned;
    assigned.assign(short_payload, 2);
    EXPECT_EQ(assigned.payload().data(), block);
    ASSERT_EQ(assigned.auth().size(), 2u);
    EXPECT_EQ(assigned.auth()[0], Certificate{});
    EXPECT_EQ(assigned.auth()[1], Certificate{});
}

TEST(RequestBody, SharedBodyIsNeverRecycled) {
    const Bytes payload = patterned(100, 0x21);
    const Bytes wire = encoded_request(3, payload, 1);
    std::optional<Request> original = decode_request(wire);
    const Request copy = *original;
    original.reset();  // the copy still holds the body
    const Request next = decode_request(wire);
    EXPECT_NE(next.payload().data(), copy.payload().data());
    EXPECT_EQ(Bytes(copy.payload().begin(), copy.payload().end()), payload);
    EXPECT_EQ(copy.auth()[0], pattern_cert(0));
}

TEST(RequestBodyDeathTest, AuthSlotsAssertOnASharedBody) {
    Request request;
    request.assign(to_bytes("shared"), 1);
    const Request copy = request;
    EXPECT_DEATH((void)request.auth_slots(), "already shared");
}

TEST(RequestBody, PoisonedBlocksComeBackClean) {
    // Under AddressSanitizer a freed block is poisoned while it waits;
    // the next body of its class unpoisons all of it. Either way the
    // cycle reads and writes every byte without a report.
    const Bytes payload = patterned(200, 0x33);
    const Bytes wire = encoded_request(4, payload, 2);
    const std::uint8_t* block = nullptr;
    for (int round = 0; round < 3; ++round) {
        {
            const Request request = decode_request(wire);
            if (round > 0) {
                EXPECT_EQ(request.payload().data(), block);
            }
            block = request.payload().data();
            EXPECT_EQ(Bytes(request.payload().begin(), request.payload().end()),
                      payload);
            EXPECT_EQ(request.auth()[1], pattern_cert(0x40));
        }
#if defined(__SANITIZE_ADDRESS__)
        EXPECT_TRUE(__asan_address_is_poisoned(block));
#endif
    }
}

#if defined(__SANITIZE_ADDRESS__)
TEST(RequestBodyDeathTest, UseAfterTheLastReferenceTrips) {
    const Bytes wire = encoded_request(5, patterned(64, 0x44), 1);
    const std::uint8_t* stale = nullptr;
    {
        const Request request = decode_request(wire);
        stale = request.payload().data();
    }
    EXPECT_DEATH((void)*static_cast<const volatile std::uint8_t*>(stale),
                 "use-after-poison");
}
#endif

// ----------------------------------------------------- allocation ceiling

// An unbatched (leader batch 1, voter batch 1) 3-replica Troxy cluster
// serving closed-loop 256 B Echo writes from six sessions of four in
// flight, warm after kWarm.
struct OrderedWrites {
    static constexpr sim::SimTime kWarm = sim::milliseconds(50);
    static constexpr sim::SimTime kEnd = sim::milliseconds(150);

    static bench::TroxyCluster::Params params() {
        bench::TroxyCluster::Params params;
        params.base.seed = 3;
        params.service = []() {
            return std::make_unique<apps::EchoService>();
        };
        params.classifier = [](ByteView request) {
            return apps::EchoService().classify(request);
        };
        return params;
    }

    bench::TroxyCluster cluster{params()};
    bench::Recorder recorder{kWarm, kEnd - kWarm};
    bench::Workload workload{cluster.simulator(), recorder,
                             [](Rng& rng) {
                                 bench::GeneratedRequest request;
                                 request.payload =
                                     apps::EchoService::make_write(
                                         rng.next_below(64), 256);
                                 return request;
                             },
                             3};

    OrderedWrites() {
        for (int session = 0; session < 6; ++session) {
            workload.drive_legacy(cluster.add_client(), 4);
        }
    }
};

// Heap allocations per completed request across every node of the warm
// OrderedWrites cluster — clients, Troxies and replicas.
double ordered_write_allocs_per_request() {
    OrderedWrites run;
    run.cluster.simulator().run_until(OrderedWrites::kWarm);
    const std::uint64_t allocs = allocations_in(
        [&] { run.cluster.simulator().run_until(OrderedWrites::kEnd); });
    EXPECT_GT(run.recorder.completed(), 1000u);
    return static_cast<double>(allocs) /
           static_cast<double>(
               std::max<std::uint64_t>(run.recorder.completed(), 1));
}

TEST(AllocationCeiling, OrderedWritesPerRequest) {
    // Measured at 2.09 per request; the ceiling sits about 10 % above. A
    // fresh buffer per executed result measured 5.09 (ceiling 5.6). A
    // copy of every reply into the Bytes the client's callback took
    // measured 6.09 (ceiling 6.7). Building each AEAD tag's MAC input in a
    // fresh buffer (real crypto only) measured 22.1; reply frames, client
    // records and cache frames on the heap instead of drawn from the
    // network pool measured 27.1; a fresh request body per decode and per
    // assign, a fresh member vector per follower Prepare, a map node per
    // forwarded request and a fresh buffer per voted result measured 34.5;
    // fresh action vectors per ecall, a decoded Reply per reply, a vote
    // copy per replica and a fresh client completion list measured 42.5;
    // before that, a fresh Outbox queue per flush, byte-by-byte client
    // records and copying record opens measured 63.1, and before that,
    // decoding every Hybster frame twice, copying request payloads per
    // table and allocating log nodes per sequence number measured 93.2.
    const double per_request = ordered_write_allocs_per_request();
    RecordProperty("allocs_per_request", std::to_string(per_request));
    EXPECT_LE(per_request, 2.3);
}

// The wire-buffer loop is closed on the ordered path: every frame any
// node sends (handshakes, client records, Prepares, Commits, reply frames,
// released reply records) is drawn from the network pool, and every frame
// a node consumes goes back. So the pool serves at least one buffer per
// wire message, and once the in-flight high-water mark is reached (by
// 100 ms here) it never has to allocate one.
TEST(AllocationCeiling, WarmOrderedRoundTakesNoFreshFrame) {
    OrderedWrites run;
    sim::Network& network = run.cluster.network();
    run.cluster.simulator().run_until(sim::milliseconds(100));
    const std::uint64_t warm_misses = network.pool().stats().misses;
    // The closed loop stops issuing at kEnd; the drain lets every frame
    // acquired so far leave.
    run.cluster.simulator().run_until(OrderedWrites::kEnd +
                                      sim::milliseconds(50));
    const sim::BufferPool::Stats& pool = network.pool().stats();

    EXPECT_GT(run.recorder.completed(), 1000u);
    EXPECT_EQ(pool.misses, warm_misses);
    EXPECT_GE(pool.hits + pool.misses, network.messages_sent());
}

// A warm sharded deployment — S = 2 groups of three, one front — serving
// closed-loop 64 B Echo writes over 64 keys, half of them two-key
// multiwrites whose partner key lives on the other shard: heap
// allocations per completed request across every node, the front
// included.
double sharded_cross_allocs_per_request() {
    std::vector<std::string> universe;
    for (int k = 0; k < 64; ++k) universe.push_back("k" + std::to_string(k));
    const troxy_core::ShardMap map =
        troxy_core::ShardMap::split_evenly(universe, 2);
    bench::TroxyCluster::Params params;
    params.base.seed = 3;
    params.base.shard_count = 2;
    params.map = map;
    params.service = []() { return std::make_unique<apps::EchoService>(); };
    params.classifier = [](ByteView request) {
        return apps::EchoService().classify(request);
    };
    bench::TroxyCluster cluster(std::move(params));

    const sim::SimTime warm = sim::milliseconds(50);
    const sim::SimTime end = sim::milliseconds(150);
    bench::Recorder recorder(warm, end - warm);
    bench::Workload workload(
        cluster.simulator(), recorder,
        [&map](Rng& rng) {
            const std::uint64_t key = rng.next_below(64);
            bench::GeneratedRequest request;
            if (rng.next_below(2) == 0) {
                request.payload = apps::EchoService::make_write(key, 64);
                return request;
            }
            const int home = map.shard_of("k" + std::to_string(key));
            std::uint64_t partner = 0;
            do {
                partner = rng.next_below(64);
            } while (map.shard_of("k" + std::to_string(partner)) == home);
            request.payload =
                apps::EchoService::make_multi_write(key, partner, 64);
            return request;
        },
        3);
    for (int session = 0; session < 8; ++session) {
        workload.drive_legacy(cluster.add_client(), 4);
    }
    cluster.simulator().run_until(warm);
    const std::uint64_t allocs =
        allocations_in([&] { cluster.simulator().run_until(end); });
    EXPECT_GT(recorder.completed(), 1000u);
    EXPECT_GT(cluster.front()->status().cross_shard_commits, 500u);
    return static_cast<double>(allocs) /
           static_cast<double>(std::max<std::uint64_t>(recorder.completed(),
                                                        1));
}

TEST(AllocationCeiling, ShardedCrossPerRequest) {
    // Measured at 2.16 per request; the ceiling sits about 10 % above. A
    // fresh buffer per executed result measured 6.63 (ceiling 7.3).
    // Copying each opened request at the front, each reply into its client
    // callback's Bytes, a shared_ptr per cross-shard commit and each banked
    // reply, and regrowing every reply burst above 16 frames, measured 10.6
    // (ceiling 11.7). A fresh AEAD MAC-input buffer per seal and open
    // measured 50.5; heap reply frames, client records and Bundles, and
    // Bundle members freed instead of recycled, measured 60.1; fresh
    // request bodies, Prepare member vectors and voted-result buffers
    // measured 69.3; owned classifier key vectors, a shard vector per
    // routed write, heap std::function closures for the front's forwards, a
    // std::map node per cross-shard commit and per reply banked behind a
    // gap, and a fresh link vector per lock-table admission measured 79.4.
    const double per_request = sharded_cross_allocs_per_request();
    RecordProperty("allocs_per_request", std::to_string(per_request));
    EXPECT_LE(per_request, 2.4);
}

/// Turns fast crypto on for a scope, as the benchmarks run: the real
/// AEAD and MAC paths allocate work buffers of their own.
struct FastCryptoScope {
    bool previous = crypto::fast_crypto();
    FastCryptoScope() { crypto::set_fast_crypto(true); }
    ~FastCryptoScope() { crypto::set_fast_crypto(previous); }
};

// A warm batched 3-replica Troxy cluster (batch 16 at the leader, the
// voter and the fast-read buffer; coalesced wire; one reply-auth ecall
// per executed batch) serving closed-loop KV traffic from six sessions of
// four in flight: 90 % GETs, most of them fast reads, and 10 % PUTs over
// 256 keys, with fast crypto. Heap allocations per completed request
// across every node.
double kv_read_mostly_allocs_per_request() {
    const FastCryptoScope fast;
    bench::TroxyCluster::Params params;
    params.base.seed = 5;
    params.base.batch_size_max = 16;
    params.base.batch_delay = sim::microseconds(200);
    params.base.coalesce_wire = true;
    params.host.coalesce_wire = true;
    params.host.voter_batch_max = 16;
    params.host.fastread_batch_max = 16;
    params.host.batch_reply_auth = true;
    params.service = []() { return std::make_unique<apps::KvService>(); };
    params.classifier = [](ByteView request) {
        return apps::KvService().classify(request);
    };
    bench::TroxyCluster cluster(std::move(params));

    const sim::SimTime warm = sim::milliseconds(100);
    const sim::SimTime end = sim::milliseconds(300);
    bench::Recorder recorder(warm, end - warm);
    bench::Workload workload(
        cluster.simulator(), recorder,
        [](Rng& rng) {
            bench::GeneratedRequest request;
            const std::string key = "k" + std::to_string(rng.next_below(256));
            if (rng.next_below(10) == 0) {
                request.payload = apps::KvService::make_put(key, "value");
            } else {
                request.payload = apps::KvService::make_get(key);
                request.is_read = true;
            }
            return request;
        },
        5);
    for (int session = 0; session < 6; ++session) {
        workload.drive_legacy(cluster.add_client(), 4);
    }
    const auto fast_read_hits = [&] {
        std::uint64_t hits = 0;
        for (int r = 0; r < cluster.n(); ++r) {
            hits += cluster.host(r).status().troxy.fast_read_hits;
        }
        return hits;
    };
    cluster.simulator().run_until(warm);
    const std::uint64_t hits_before = fast_read_hits();
    const std::uint64_t allocs =
        allocations_in([&] { cluster.simulator().run_until(end); });
    EXPECT_GT(recorder.completed(), 1000u);
    // Most requests are fast reads.
    EXPECT_GT(fast_read_hits() - hits_before, recorder.completed() / 2);
    return static_cast<double>(allocs) /
           static_cast<double>(
               std::max<std::uint64_t>(recorder.completed(), 1));
}

TEST(AllocationCeiling, KvReadMostlyPerRequest) {
    // Measured at 2.08 per request; the ceiling sits about 10 % above. A
    // fresh buffer per executed result measured 2.67 (ceiling 2.95).
    // Copying each reply into its client callback's Bytes, refilling an
    // invalidated cache slot into a fresh buffer and regrowing every
    // reply burst above 16 frames measured 4.02 (ceiling 4.45). A
    // std::set and a growing candidate vector per fast read, copies of
    // the request and the cached result into fresh buffers, a query and
    // a response batch vector built per burst on each side, and a deque
    // block per four cache slots measured 8.96.
    const double per_request = kv_read_mostly_allocs_per_request();
    RecordProperty("allocs_per_request", std::to_string(per_request));
    EXPECT_LE(per_request, 2.3);
}

// A warm fast read through the hosts, with fast crypto: one session
// reads a key that every replica's cache holds, so each read is answered
// by the contact's cache and one remote's. The request bytes are built
// before the round, so the one allocation left is the test callback's
// by-value copy of the reply it is lent; the legacy client, the contact
// and remote TroxyEnclave and TroxyReplicaHost, the cache frames and the
// sealed records allocate nothing.
TEST(AllocationCeiling, WarmFastReadHitRoundAllocatesOnlyTheClientCopy) {
    const FastCryptoScope fast;
    bench::TroxyCluster::Params params;
    params.base.seed = 9;
    params.service = []() { return std::make_unique<apps::KvService>(); };
    params.classifier = [](ByteView request) {
        return apps::KvService().classify(request);
    };
    bench::TroxyCluster cluster(std::move(params));
    auto& client = cluster.add_client();
    client.start([] {});
    cluster.simulator().run_until(sim::milliseconds(100));
    ASSERT_TRUE(client.connected());

    int replies = 0;
    Bytes reply;
    const auto read = [&](Bytes request) {
        client.send(std::move(request), [&](Bytes result) {
            ++replies;
            reply = std::move(result);
        });
        cluster.simulator().run_until(cluster.simulator().now() +
                                      sim::milliseconds(5));
    };
    read(apps::KvService::make_put("hot", "value"));
    // The first GET is ordered and fills every replica's cache.
    for (int i = 0; i < 16; ++i) read(apps::KvService::make_get("hot"));
    const auto hits = [&] {
        return cluster.host(0).status().troxy.fast_read_hits;
    };
    const std::uint64_t warm_hits = hits();
    ASSERT_GT(warm_hits, 0u);

    constexpr int kRounds = 32;
    std::vector<Bytes> requests(kRounds, apps::KvService::make_get("hot"));
    std::map<std::uint64_t, int> counts;  // allocations → rounds
    for (Bytes& request : requests) {
        ++counts[allocations_in([&] { read(std::move(request)); })];
    }
    EXPECT_EQ(replies, 17 + kRounds);
    EXPECT_EQ(hits(), warm_hits + kRounds);
    EXPECT_EQ(reply, to_bytes("value"));
    EXPECT_EQ(counts, (std::map<std::uint64_t, int>{{1, kRounds}}));
}

/// A service that answers every request with an empty result and keeps a
/// constant state: its replica's agreement path is all that allocates.
class NullService final : public Service {
  public:
    [[nodiscard]] RequestInfo classify(ByteView) const override { return {}; }
    Bytes execute(ByteView) override { return {}; }
    [[nodiscard]] Bytes checkpoint() const override { return Bytes(8, 0x5a); }
    void restore(ByteView) override {}
};

/// Replica 1 of a hybrid group of three, running `service` (a NullService
/// by default), fed the Prepares that the test certifies as the view-0
/// leader (replica 0). Replica 0's node collects the follower's
/// checkpoint votes so the test can answer them as the leader; replica
/// 2's node drops what it gets. Both recycle every frame, as a warm node
/// does.
struct Follower {
    static constexpr std::size_t kWarmBatches = 8;
    static constexpr std::size_t kMembers = 16;

    sim::Simulator sim{11};
    sim::Network network{sim};
    net::Fabric fabric{sim, network};
    sim::CostProfile profile = sim::CostProfile::native();
    Config config;
    sim::Node node{sim, 2, "r1", 4};
    Certifier leader{
        std::make_shared<enclave::TrinX>(0, to_bytes("follower-group"))};
    std::unique_ptr<Replica> replica;
    std::vector<CheckpointMsg> votes;  // the follower's, as sent to 0
    enclave::CostMeter meter;
    enclave::CostedCrypto crypto{profile, meter};
    SequenceNumber next_seq = 1;
    std::uint64_t next_number = 1;
    /// Request payloads; a Prepare's members take them in turn.
    std::vector<Bytes> payloads{to_bytes("follower-write")};

    explicit Follower(ServicePtr service = std::make_unique<NullService>()) {
        config.f = 1;
        config.replicas = {1, 2, 3};
        config.checkpoint_interval = kWarmBatches * kMembers / 2;
        config.view_change_timeout = sim::seconds(60);
        Replica::Hooks hooks;
        hooks.verify_request = [](enclave::CostedCrypto&, const Request&) {
            return true;
        };
        hooks.deliver_replies = [](enclave::CostedCrypto&, net::Outbox&,
                                   std::span<ExecutedReply>) {};
        replica = std::make_unique<Replica>(
            fabric, node, config, 1, std::move(service),
            Certifier(std::make_shared<enclave::TrinX>(
                1, to_bytes("follower-group"))),
            profile, std::move(hooks));
        fabric.attach(1, [this](sim::NodeId, Bytes message) {
            if (const auto unwrapped = net::unwrap_view(message)) {
                if (auto decoded = decode_message(unwrapped->second)) {
                    if (auto* vote = std::get_if<CheckpointMsg>(&*decoded)) {
                        votes.push_back(std::move(*vote));
                    }
                }
            }
            network.recycle(std::move(message));
        });
        fabric.attach(3, [this](sim::NodeId, Bytes message) {
            network.recycle(std::move(message));
        });
    }

    /// The leader's certified Prepare (type tag included, no envelope)
    /// ordering `members` fresh writes at the next sequence number.
    Bytes prepare(std::size_t members) {
        Prepare p;
        p.seq = next_seq++;
        for (std::size_t i = 0; i < members; ++i) {
            Request request;
            request.assign(payloads[(next_number - 1) % payloads.size()], 1);
            request.id = {500, next_number++};
            request.auth_slots()[0] = pattern_cert(0x10);
            p.batch.requests.push_back(std::move(request));
        }
        (void)p.batch.digest();
        auto certified = leader.certify_ordered(crypto, 0, p.certified_view());
        p.counter_value = certified.value;
        p.cert = std::move(certified.auth);
        return encode_message(p);
    }

    void deliver(ByteView frame) { replica->on_message(1, frame); }

    /// Lets the network deliver (and recycle) what the follower sent.
    void settle() { sim.run_until(sim.now() + sim::milliseconds(5)); }

    /// Answers each checkpoint vote the follower sent with the leader's
    /// matching one, which makes the checkpoint stable and truncates the
    /// log into the spare lists.
    void confirm_checkpoints() {
        settle();
        for (CheckpointMsg vote : std::exchange(votes, {})) {
            vote.replica = 0;
            vote.cert = leader.certify(crypto, vote.certified_view());
            deliver(encode_message(vote));
        }
        settle();
    }

    /// Orders kWarmBatches full batches, two checkpoints' worth, and makes
    /// both checkpoints stable.
    void warm() {
        for (std::size_t i = 0; i < kWarmBatches; ++i) {
            deliver(prepare(kMembers));
            settle();
        }
        confirm_checkpoints();
        ASSERT_EQ(replica->last_executed(), kWarmBatches);
        ASSERT_EQ(replica->last_stable(), kWarmBatches);
        ASSERT_EQ(replica->log_size(), 0u);
    }
};

// A warm follower decodes a Prepare's members into a batch vector that
// checkpoint truncation recycled, and their bodies into recycled blocks:
// verifying, voting for, committing and executing a Prepare of 1 or of 16
// members allocates nothing.
TEST(AllocationCeiling, WarmFollowerPrepareAllocatesNothing) {
    Follower follower;
    follower.warm();
    for (const std::size_t members : {1u, 16u, 1u, 16u}) {
        const Bytes frame = follower.prepare(members);
        const SequenceNumber executed = follower.replica->last_executed();
        EXPECT_EQ(allocations_in([&] { follower.deliver(frame); }), 0u)
            << members << " members";
        EXPECT_EQ(follower.replica->last_executed(), executed + 1);
        follower.settle();
    }
}

// A warm follower executes each operation below through its replica,
// delivers the reply and hands the result buffer back to the spare list
// without allocating: the service builds every reply in a buffer an
// earlier execution gave back. Operations that grow the service's state
// (a new key, a new message) allocate for the state itself, so they run
// only in the warm-up.
TEST(AllocationCeiling, WarmExecuteAllocatesNothing) {
    struct Case {
        std::string name;
        ServiceFactory service;
        std::vector<Bytes> warm_up;  // cycled while warming
        std::vector<Bytes> measured;
    };
    const std::string value(32, 'v');
    const std::vector<Case> cases = {
        {"echo",
         [] { return std::make_unique<apps::EchoService>(); },
         {apps::EchoService::make_write(3, 64),
          apps::EchoService::make_read(3, 64, 256),
          apps::EchoService::make_multi_write(3, 4, 64)},
         {apps::EchoService::make_read(3, 64, 256),
          apps::EchoService::make_write(3, 64),
          apps::EchoService::make_multi_write(3, 4, 64)}},
        {"kv",
         [] { return std::make_unique<apps::KvService>(); },
         {apps::KvService::make_put("k1", value),
          apps::KvService::make_get("k1"),
          apps::KvService::make_scan("k")},
         {apps::KvService::make_get("k1"),
          apps::KvService::make_put("k1", std::string(32, 'w')),
          apps::KvService::make_scan("k")}},
        {"mail",
         [] { return std::make_unique<apps::MailService>(); },
         {apps::MailService::make_append("inbox", "hello, replicas"),
          apps::MailService::make_fetch("inbox", 1)},
         {apps::MailService::make_fetch("inbox", 1)}},
    };
    for (const Case& c : cases) {
        Follower follower(c.service());
        follower.payloads = c.warm_up;
        follower.warm();
        for (std::size_t op = 0; op < c.measured.size(); ++op) {
            follower.payloads = {c.measured[op]};
            for (int round = 0; round < 2; ++round) {
                const Bytes frame = follower.prepare(1);
                const SequenceNumber executed =
                    follower.replica->last_executed();
                EXPECT_EQ(allocations_in([&] { follower.deliver(frame); }),
                          0u)
                    << c.name << " operation " << op << ", round " << round;
                EXPECT_EQ(follower.replica->last_executed(), executed + 1);
                follower.settle();
            }
        }
    }
}

// Every strict prefix of a valid Prepare frame, at 1 and at 16 members,
// reaches a warm follower through the decode path that fills a recycled
// batch vector. No cut installs a log entry, and each hands its vector
// back: the whole frame then commits without allocating.
TEST(CodecTruncation, EveryPrepareCutLeavesNoEntry) {
    Follower follower;
    follower.warm();
    for (const std::size_t members : {1u, 16u}) {
        const Bytes frame = follower.prepare(members);
        const std::size_t log_size = follower.replica->log_size();
        const SequenceNumber executed = follower.replica->last_executed();
        for (std::size_t cut = 0; cut < frame.size(); ++cut) {
            follower.deliver(ByteView(frame.data(), cut));
            ASSERT_EQ(follower.replica->log_size(), log_size)
                << members << " members, cut " << cut;
        }
        EXPECT_EQ(follower.replica->last_executed(), executed);
        EXPECT_EQ(allocations_in([&] { follower.deliver(frame); }), 0u)
            << members << " members";
        EXPECT_EQ(follower.replica->last_executed(), executed + 1);
        follower.settle();
    }
}

// A warm lock table: two conflicting commits admitted, the holder
// released (waking the waiter), then the waiter released. After one
// cycle has grown the tables, the same cycle allocates nothing.
TEST(AllocationCeiling, WarmLockTableCycleAllocatesNothing) {
    troxy_core::CrossLockTable table;
    const hybster::KeyList first{"k1", "k3"};
    const hybster::KeyList second{"k3", "k5"};
    std::uint64_t id = 0;
    auto cycle = [&] {
        const std::uint64_t holder = id++;
        const std::uint64_t waiter = id++;
        EXPECT_TRUE(table.admit(holder, first).runnable);
        const auto admission = table.admit(waiter, second);
        EXPECT_FALSE(admission.runnable);
        EXPECT_EQ(admission.blocked_on.size(), 1u);
        const auto woken = table.release(holder);
        EXPECT_EQ(woken.size(), 1u);
        EXPECT_TRUE(table.release(waiter).empty());
    };
    cycle();
    cycle();
    EXPECT_EQ(allocations_in(cycle), 0u);
    EXPECT_EQ(table.size(), 0u);
}

// A warm session window: replies released in reverse slot order bank
// behind the gap and leave in one burst. The first round grows the ring;
// banking copies each reply into its ring entry's kept buffer, so once
// every entry has held a reply, a round allocates nothing (the replies
// are built up front).
TEST(AllocationCeiling, WarmOutOfOrderReleaseAllocatesNothing) {
    const crypto::X25519Keypair identity =
        crypto::x25519_keypair_from_seed(to_bytes("sessions-identity"));
    net::ClientSessions sessions(identity);
    enclave::CostMeter meter;
    enclave::CostedCrypto crypto(sim::CostProfile::native(), meter);
    net::SecureChannelClient channel(identity.public_key, to_bytes("client"));
    sim::BufferPool pool;
    ASSERT_TRUE(sessions
                    .accept(crypto, 7, channel.client_hello(),
                            to_bytes("prefix"), pool)
                    .has_value());
    net::ClientSessions::Session& session = *sessions.find(7);

    // Wider than the ring's starting size, so the first round grows it.
    constexpr std::size_t kWindow = 12;
    constexpr int kRounds = 6;
    std::size_t emitted = 0;
    for (int round = 0; round < kRounds; ++round) {
        std::vector<net::ClientSessions::Ticket> tickets;
        for (std::size_t i = 0; i < kWindow; ++i) {
            tickets.push_back(session.assign());
        }
        std::vector<Bytes> replies(kWindow, Bytes(16, 0xab));
        const std::uint64_t allocs = allocations_in([&] {
            for (std::size_t i = kWindow; i-- > 0;) {
                sessions.release(tickets[i], replies[i],
                                 [&](net::ClientSessions::Session&, ByteView) {
                                     ++emitted;
                                 });
            }
        });
        if (round >= kRounds - 2) {
            EXPECT_EQ(allocs, 0u) << "round " << round;
        }
    }
    EXPECT_EQ(emitted, kRounds * kWindow);
    EXPECT_EQ(sessions.waiting(), 0u);
}

// A re-handshake replaces the session but hands it the old release ring,
// each entry keeping its buffer: the new session's first out-of-order
// round allocates nothing, and its generation still drops the replies of
// the old session's tickets.
TEST(AllocationCeiling, OutOfOrderReleaseAfterRehandshakeAllocatesNothing) {
    const crypto::X25519Keypair identity =
        crypto::x25519_keypair_from_seed(to_bytes("sessions-identity"));
    net::ClientSessions sessions(identity);
    enclave::CostMeter meter;
    enclave::CostedCrypto crypto(sim::CostProfile::native(), meter);
    sim::BufferPool pool;
    const auto handshake = [&](std::string_view seed) {
        net::SecureChannelClient channel(identity.public_key, to_bytes(seed));
        ASSERT_TRUE(sessions
                        .accept(crypto, 7, channel.client_hello(),
                                to_bytes("prefix"), pool)
                        .has_value());
    };

    constexpr std::size_t kWindow = 12;
    std::size_t emitted = 0;
    const auto emit = [&](net::ClientSessions::Session&, ByteView) {
        ++emitted;
    };
    const std::vector<Bytes> replies(kWindow, Bytes(16, 0xab));
    // Assigns a window of tickets and releases them in reverse slot order;
    // returns the heap allocations the releases made.
    const auto reverse_round = [&] {
        net::ClientSessions::Session& session = *sessions.find(7);
        std::vector<net::ClientSessions::Ticket> tickets;
        for (std::size_t i = 0; i < kWindow; ++i) {
            tickets.push_back(session.assign());
        }
        return allocations_in([&] {
            for (std::size_t i = kWindow; i-- > 0;) {
                sessions.release(tickets[i], replies[i], emit);
            }
        });
    };

    handshake("client");
    for (int round = 0; round < 2; ++round) (void)reverse_round();
    const net::ClientSessions::Ticket stale = sessions.find(7)->assign();
    ASSERT_EQ(emitted, 2 * kWindow);

    handshake("client-again");
    EXPECT_EQ(reverse_round(), 0u);
    EXPECT_EQ(emitted, 3 * kWindow);
    sessions.release(stale, replies[0], emit);
    EXPECT_EQ(emitted, 3 * kWindow);
    EXPECT_EQ(sessions.waiting(), 0u);
}

// A warm legacy session: every send/reply round allocates the same count.
// The client's in-flight FIFO keeps its capacity; a std::deque there
// allocated a chunk whenever the queue advanced past a chunk boundary,
// once every seven rounds.
TEST(AllocationCeiling, WarmSessionRoundAllocatesNothingForTheQueue) {
    bench::StandaloneCluster::Params params;
    params.service = []() { return std::make_unique<apps::EchoService>(); };
    bench::StandaloneCluster cluster(params);
    auto& client = cluster.add_client();
    client.start([] {});
    cluster.simulator().run_until(sim::milliseconds(100));
    ASSERT_TRUE(client.connected());

    int replies = 0;
    const auto round = [&] {
        client.send(apps::EchoService::make_write(1, 64),
                    [&](Bytes) { ++replies; });
        cluster.simulator().run_until(cluster.simulator().now() +
                                      sim::milliseconds(5));
    };
    for (int i = 0; i < 16; ++i) round();
    std::map<std::uint64_t, int> counts;  // allocations → rounds
    for (int i = 0; i < 64; ++i) ++counts[allocations_in(round)];
    EXPECT_EQ(replies, 80);
    EXPECT_EQ(counts.size(), 1u) << "rounds allocate "
                                 << counts.begin()->first << " to "
                                 << counts.rbegin()->first;
}

/// A shard server that answers every request with its own fixed reply
/// over the legacy channel, allocation-free once warm: all that a round
/// through it allocates is the front's and the client's.
struct FixedReplyServer {
    net::Fabric& fabric;
    sim::Node& node;
    const sim::CostProfile& profile;
    net::ClientSessions sessions;
    Bytes reply;

    void attach() {
        fabric.attach(node.id(), [this](sim::NodeId from, Bytes message) {
            const auto unwrapped = net::unwrap_view(message);
            if (unwrapped && unwrapped->first == net::Channel::Client) {
                sessions.serve_frame(
                    fabric, node, profile, from, unwrapped->second,
                    [&](net::ClientSessions::Session& session, ByteView,
                        enclave::CostedCrypto& crypto, net::Outbox& outbox) {
                        crypto.charge(profile.aead(reply.size()));
                        outbox.send(from, net::client_record_frame(
                                              session.channel, reply,
                                              outbox.pool()));
                    });
            }
            fabric.network().recycle(std::move(message));
        });
    }
};

// A warm front round: one legacy client behind a ShardFrontHost over two
// fixed-reply shard servers. The front hands each opened request view to
// its classifier and to an upstream session, which copies it into a kept
// in-flight slot; the upstream reply reaches the front's callback by
// reference and is released downstream from that view; a cross-shard
// commit keeps its request and owner reply in recycled buffers. So a warm
// shard-local write and a warm cross-shard write each allocate nothing
// anywhere: not in the front, its upstream sessions, the servers or the
// client. The front logs one latency sample per cross commit in a vector
// that doubles; the measured rounds stay inside its capacity.
TEST(AllocationCeiling, WarmFrontRoundAllocatesNothing) {
    sim::Simulator sim{13};
    sim::Network network{sim};
    net::Fabric fabric{sim, network};
    const sim::CostProfile profile = sim::CostProfile::native();
    sim::Node front_node{sim, 1, "front", 4};
    sim::Node client_node{sim, 100, "client", 4};
    std::vector<std::unique_ptr<sim::Node>> shard_nodes;
    std::vector<std::unique_ptr<FixedReplyServer>> servers;
    std::vector<troxy_core::ShardFrontHost::Backend> backends;
    for (int s = 0; s < 2; ++s) {
        const crypto::X25519Keypair identity =
            crypto::x25519_keypair_from_seed(
                to_bytes("shard-" + std::to_string(s)));
        shard_nodes.push_back(std::make_unique<sim::Node>(
            sim, static_cast<sim::NodeId>(2 + s), "shard", 4));
        servers.push_back(std::make_unique<FixedReplyServer>(FixedReplyServer{
            fabric, *shard_nodes.back(), profile,
            net::ClientSessions(identity),
            Bytes(32, static_cast<std::uint8_t>(0xa0 + s))}));
        servers.back()->attach();
        backends.push_back(
            {{shard_nodes.back()->id()}, {identity.public_key}});
    }

    std::vector<std::string> universe;
    for (int k = 0; k < 64; ++k) universe.push_back("k" + std::to_string(k));
    const troxy_core::ShardMap map =
        troxy_core::ShardMap::split_evenly(universe, 2);
    std::uint64_t partner = 1;
    while (map.shard_of("k" + std::to_string(partner)) == map.shard_of("k0")) {
        ++partner;
    }
    const crypto::X25519Keypair front_identity =
        crypto::x25519_keypair_from_seed(to_bytes("front"));
    const apps::EchoService echo;
    troxy_core::ShardFrontHost front(
        fabric, front_node, map, std::move(backends), front_identity,
        [&echo](ByteView request) { return echo.classify(request); }, profile,
        {});
    front.attach();
    front.start();

    troxy_core::LegacyClient client(
        fabric, client_node, {front_node.id()}, {front_identity.public_key},
        profile, {});
    fabric.attach(client_node.id(), [&](sim::NodeId from, Bytes message) {
        const auto unwrapped = net::unwrap_view(message);
        if (unwrapped && unwrapped->first == net::Channel::Client) {
            client.on_message(from, unwrapped->second);
        }
        network.recycle(std::move(message));
    });
    client.start([] {});
    sim.run_until(sim::milliseconds(100));
    ASSERT_TRUE(client.connected());

    const Bytes local = apps::EchoService::make_write(0, 64);
    const Bytes cross = apps::EchoService::make_multi_write(0, partner, 64);
    const Bytes owner_reply = servers[static_cast<std::size_t>(
                                          map.shard_of("k0"))]->reply;
    int replies = 0;
    Bytes last_reply;
    const auto round = [&](const Bytes& request) {
        client.send(request, [&](const Bytes& reply) {
            ++replies;
            last_reply.assign(reply.begin(), reply.end());
        });
        sim.run_until(sim.now() + sim::milliseconds(5));
    };
    for (int i = 0; i < 17; ++i) {
        round(local);
        round(cross);
    }
    ASSERT_EQ(replies, 34);
    ASSERT_EQ(front.status().cross_shard_commits, 17u);

    for (int i = 0; i < 8; ++i) {
        EXPECT_EQ(allocations_in([&] { round(local); }), 0u) << "local " << i;
        EXPECT_EQ(last_reply, owner_reply);
        EXPECT_EQ(allocations_in([&] { round(cross); }), 0u) << "cross " << i;
        EXPECT_EQ(last_reply, owner_reply);
    }
    EXPECT_EQ(replies, 50);
    EXPECT_EQ(front.status().cross_shard_commits, 25u);
}

// A replica's executed batch sends one reply frame per member in a single
// Outbox flush. The Fabric keeps the queue a burst of more than 16 frames
// grew, so the next such burst allocates no queue storage. (A spare cap
// of 16 freed it, and each batch regrew its queue from 4 to 8, 16 and 32.)
TEST(AllocationCeiling, WarmReplyBurstAboveSixteenAllocatesNothing) {
    sim::Simulator sim;
    sim::Network network(sim);
    net::Fabric fabric(sim, network);
    sim::Node node(sim, 1, "n", 1);
    fabric.attach(2, [&network](sim::NodeId, Bytes message) {
        network.recycle(std::move(message));
    });
    enclave::CostMeter meter;
    constexpr std::size_t kBurst = 24;
    const auto flush_burst = [&](std::vector<Bytes>& frames) {
        net::Outbox outbox(fabric, node);
        for (Bytes& frame : frames) outbox.send(2, std::move(frame));
        outbox.flush(meter);
    };

    std::vector<Bytes> first(kBurst, Bytes(16, 0xab));
    flush_burst(first);
    sim.run();
    std::vector<Bytes> second(kBurst, Bytes(16, 0xcd));
    EXPECT_EQ(allocations_in([&] { flush_burst(second); }), 0u);
    sim.run();
    EXPECT_EQ(network.messages_sent(), 2 * kBurst);
}

// -------------------------------------------------------- outbox recycling

TEST(OutboxRecycling, SecondFlushAllocatesNoQueueStorage) {
    sim::Simulator sim;
    sim::Network network(sim);
    net::Fabric fabric(sim, network);
    sim::Node node(sim, 1, "n", 1);
    fabric.attach(2, [&network](sim::NodeId, Bytes message) {
        network.recycle(std::move(message));
    });
    enclave::CostMeter meter;
    int callbacks = 0;
    // A broadcast-sized burst plus a deferred completion, frames built
    // up front so only the Outbox itself is measured.
    auto flush_burst = [&](std::vector<Bytes>& frames) {
        net::Outbox outbox(fabric, node);
        for (Bytes& frame : frames) outbox.send(2, std::move(frame));
        outbox.defer([&callbacks] { ++callbacks; });
        outbox.flush(meter);
    };

    std::vector<Bytes> first(3, Bytes(16, 0xab));
    flush_burst(first);
    sim.run();
    ASSERT_EQ(callbacks, 1);

    std::vector<Bytes> second(3, Bytes(16, 0xcd));
    EXPECT_EQ(allocations_in([&] { flush_burst(second); }), 0u);
    sim.run();
    EXPECT_EQ(callbacks, 2);
}

TEST(OutboxRecycling, CoalescedFlushKeepsFirstAppearanceOrder) {
    sim::Simulator sim;
    sim::Network network(sim);
    net::Fabric fabric(sim, network);
    sim::Node node(sim, 1, "n", 1);
    std::vector<std::pair<sim::NodeId, Bytes>> arrivals;
    for (const sim::NodeId to : {3u, 4u, 5u}) {
        fabric.attach(to, [&arrivals, to](sim::NodeId, Bytes message) {
            arrivals.emplace_back(to, std::move(message));
        });
    }
    auto frame = [](const char* text) {
        return net::wrap(net::Channel::Hybster, to_bytes(text));
    };
    std::vector<std::uint64_t> sent_at_callback;

    // Equal-sized bursts, so the network delivers them in send order.
    net::Outbox outbox(fabric, node, /*coalesce=*/true);
    outbox.send(5, frame("a"));
    outbox.send(3, frame("b"));
    outbox.defer([&] { sent_at_callback.push_back(network.messages_sent()); });
    outbox.send(5, frame("c"));
    outbox.send(4, frame("d"));
    outbox.send(3, frame("e"));
    outbox.send(4, frame("f"));
    outbox.defer([&] { sent_at_callback.push_back(network.messages_sent()); });
    enclave::CostMeter meter;
    outbox.flush(meter);
    sim.run();

    // Destinations leave in the order of their first appearance (5, 3,
    // 4), not in node-id order; each burst keeps its queue order.
    ASSERT_EQ(arrivals.size(), 3u);
    EXPECT_EQ(arrivals[0].first, 5u);
    EXPECT_EQ(arrivals[0].second,
              net::make_bundle({frame("a"), frame("c")}));
    EXPECT_EQ(arrivals[1].first, 3u);
    EXPECT_EQ(arrivals[1].second,
              net::make_bundle({frame("b"), frame("e")}));
    EXPECT_EQ(arrivals[2].first, 4u);
    EXPECT_EQ(arrivals[2].second,
              net::make_bundle({frame("d"), frame("f")}));
    // Both callbacks ran after all three frames went out, in order.
    EXPECT_EQ(sent_at_callback, (std::vector<std::uint64_t>{3, 3}));
}

}  // namespace
}  // namespace troxy::hybster

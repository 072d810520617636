// Hot-path codec tests: golden wire bytes and truncation/corruption.
//
// Golden bytes: the codec and certification inputs must stay bit-exact.
// The constants below pin the exact bytes of the per-message encodings,
// the certified and signed views, and the TrinX certificates under a
// fixed key, with fast crypto both off (real SHA-256/HMAC) and on (the
// FNV stand-in the benchmarks use), together with the modelled cost the
// certifications charge. Any codec rewrite must reproduce them bit for
// bit: the wire format, every certificate and every simulated charge are
// part of the seed-replay contract.
//
// Truncation: every strict prefix of an encoded message must fail to
// decode, and every prefix or single-byte flip of a sealed record must
// deliver nothing, which drives the fixed-size and borrowed Reader paths
// through every bounds check (the sanitizer build runs these too).
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "crypto/fastmode.hpp"
#include "crypto/sha256.hpp"
#include "enclave/meter.hpp"
#include "enclave/trinx.hpp"
#include "hybster/messages.hpp"
#include "net/secure_channel.hpp"

namespace troxy::hybster {
namespace {

/// Hex of any contiguous byte container (owning buffer or fixed array).
template <typename View>
std::string hex_of(const View& view) {
    return hex_encode(ByteView(view.data(), view.size()));
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
    r.payload = to_bytes(payload);
    r.auth.push_back(pattern_cert(0x10));
    return r;
}

/// Every golden value, computed under the current fast-crypto mode.
std::map<std::string, std::string> golden_values() {
    std::map<std::string, std::string> out;

    const Request request = make_request(7, 42, 0x01, "golden-request");
    out["request.encoded"] = hex_of(encode_message(Message(request)));
    out["request.signed_view"] = hex_of(request.signed_view());
    out["request.digest"] = hex_of(request.digest());

    Prepare prepare;
    prepare.view = 3;
    prepare.seq = 17;
    prepare.replica = 0;
    prepare.counter_value = 17;
    prepare.batch.requests.push_back(request);
    prepare.batch.requests.push_back(make_request(9, 5, 0x00, "second"));
    prepare.cert = pattern_cert(0x40);
    out["prepare.encoded"] = hex_of(encode_message(Message(prepare)));
    out["prepare.certified_view"] = hex_of(prepare.certified_view());

    Commit commit;
    commit.view = 3;
    commit.seq = 17;
    commit.replica = 2;
    commit.counter_value = 17;
    commit.batch_size = 2;
    commit.batch_digest = prepare.batch.digest();
    commit.cert = pattern_cert(0x60);
    out["commit.encoded"] = hex_of(encode_message(Message(commit)));
    out["commit.certified_view"] = hex_of(commit.certified_view());

    Reply reply;
    reply.kind = Reply::Kind::Ordered;
    reply.view = 3;
    reply.seq = 17;
    reply.request_id = request.id;
    reply.request_digest = request.digest();
    reply.result = to_bytes("golden-result");
    reply.replica = 1;
    reply.cert = pattern_cert(0x80);
    out["reply.encoded"] = hex_of(encode_message(Message(reply)));
    out["reply.certified_view"] = hex_of(reply.certified_view());

    CheckpointMsg checkpoint;
    checkpoint.seq = 128;
    checkpoint.state_digest = crypto::sha256(to_bytes("state"));
    checkpoint.replica = 2;
    checkpoint.cert = pattern_cert(0xa0);
    out["checkpoint.encoded"] = hex_of(encode_message(Message(checkpoint)));
    out["checkpoint.certified_view"] = hex_of(checkpoint.certified_view());

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
};

// Values under fast crypto (the FNV stand-in).
const std::map<std::string, std::string> kFast = {
    {"checkpoint.certified_view",
     "8000000000000000ba7f3e57a835c6769cfbd04268c51a713aec011eab1711e7"
     "1764734f1d851a9702000000"},
    {"checkpoint.encoded",
     "078000000000000000ba7f3e57a835c6769cfbd04268c51a713aec011eab1711"
     "e71764734f1d851a9702000000a0a1a2a3a4a5a6a7a8a9aaabacadaeafb0b1b2"
     "b3b4b5b6b7b8b9babbbcbdbebf"},
    {"commit.certified_view",
     "0300000000000000110000000000000002000000020000003023347c594bfb8a"
     "6c5cf71c1a68711e824192a104d1cd5cab97db04fde73c95"},
    {"commit.encoded",
     "0303000000000000001100000000000000020000001100000000000000020000"
     "003023347c594bfb8a6c5cf71c1a68711e824192a104d1cd5cab97db04fde73c"
     "95606162636465666768696a6b6c6d6e6f707172737475767778797a7b7c7d7e"
     "7f"},
    {"prepare.certified_view",
     "0300000000000000110000000000000000000000020000003023347c594bfb8a"
     "6c5cf71c1a68711e824192a104d1cd5cab97db04fde73c95"},
    {"prepare.encoded",
     "0203000000000000001100000000000000000000001100000000000000020000"
     "00070000002a00000000000000010e000000676f6c64656e2d72657175657374"
     "01101112131415161718191a1b1c1d1e1f202122232425262728292a2b2c2d2e"
     "2f09000000050000000000000000060000007365636f6e640110111213141516"
     "1718191a1b1c1d1e1f202122232425262728292a2b2c2d2e2f40414243444546"
     "4748494a4b4c4d4e4f505152535455565758595a5b5c5d5e5f"},
    {"reply.certified_view",
     "0003000000000000001100000000000000070000002a000000000000006a17ec"
     "1417bf17d7eba3ed118088e1ad9beaeabbfc8a1735ddda42990018ff730d0000"
     "00676f6c64656e2d726573756c7401000000"},
    {"reply.encoded",
     "040003000000000000001100000000000000070000002a000000000000006a17"
     "ec1417bf17d7eba3ed118088e1ad9beaeabbfc8a1735ddda42990018ff730d00"
     "0000676f6c64656e2d726573756c7401000000808182838485868788898a8b8c"
     "8d8e8f909192939495969798999a9b9c9d9e9f"},
    {"request.digest",
     "6a17ec1417bf17d7eba3ed118088e1ad9beaeabbfc8a1735ddda42990018ff73"},
    {"request.encoded",
     "01070000002a00000000000000010e000000676f6c64656e2d72657175657374"
     "01101112131415161718191a1b1c1d1e1f202122232425262728292a2b2c2d2e"
     "2f"},
    {"request.signed_view",
     "070000002a00000000000000010e000000676f6c64656e2d72657175657374"},
    {"trinx.continuing.cert",
     "3af98bdf271c9ab440434ce2f806e87f6192afdb051d4508281b69f21f226451"},
    {"trinx.continuing.charge_ns", "4630"},
    {"trinx.continuing.value", "1"},
    {"trinx.handover",
     "10000000010000000200000001000000000000003119231a32379591f9cd06a0"
     "143d5ded10e9cab367ae3902166af5d38d1ec6d0"},
    {"trinx.handover.charge_ns", "4318"},
    {"trinx.independent.cert",
     "493ccf9273bdb0dcc07c96801c037d6fff912508f45f57e95618d4fcc8c1bac8"},
    {"trinx.independent.charge_ns", "4714"},
    {"trinx.verify_continuing", "ok"},
    {"trinx.verify_continuing.charge_ns", "4630"},
};

TEST(CodecGolden, RealCryptoBytesAndCharges) {
    expect_golden(golden_values_with(false), kReal);
}

TEST(CodecGolden, FastCryptoBytesAndCharges) {
    expect_golden(golden_values_with(true), kFast);
}


/// One encoded instance of each hot-path message, batch of two included.
std::vector<Bytes> hot_path_encodings() {
    const Request request = make_request(7, 42, 0x01, "golden-request");
    Prepare prepare;
    prepare.view = 3;
    prepare.seq = 17;
    prepare.counter_value = 17;
    prepare.batch.requests.push_back(request);
    prepare.batch.requests.push_back(make_request(9, 5, 0x00, "second"));
    prepare.cert = pattern_cert(0x40);
    Commit commit;
    commit.view = 3;
    commit.seq = 17;
    commit.replica = 2;
    commit.batch_size = 2;
    commit.batch_digest = prepare.batch.digest();
    commit.cert = pattern_cert(0x60);
    Reply reply;
    reply.request_id = request.id;
    reply.request_digest = request.digest();
    reply.result = to_bytes("golden-result");
    reply.cert = pattern_cert(0x80);
    return {encode_message(Message(request)),
            encode_message(Message(prepare)),
            encode_message(Message(commit)), encode_message(Message(reply))};
}

TEST(CodecTruncation, EveryStrictPrefixFailsToDecode) {
    for (const Bytes& encoded : hot_path_encodings()) {
        ASSERT_TRUE(decode_message(encoded).has_value());
        for (std::size_t n = 0; n < encoded.size(); ++n) {
            EXPECT_FALSE(
                decode_message(ByteView(encoded.data(), n)).has_value())
                << "type " << int(encoded[0]) << " prefix " << n;
        }
    }
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
        sender.protect_many({ByteView(first), ByteView(second)}),
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
    EXPECT_EQ(receiver.unprotect(records[0]), std::vector<Bytes>{first});
    EXPECT_EQ(receiver.unprotect(records[1]),
              (std::vector<Bytes>{first, second}));
    EXPECT_TRUE(receiver.unprotect(records[1]).empty());  // replay
}

}  // namespace
}  // namespace troxy::hybster

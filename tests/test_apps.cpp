#include <gtest/gtest.h>

#include "apps/echo_service.hpp"
#include "apps/kv_service.hpp"
#include "common/serialize.hpp"

namespace troxy::apps {
namespace {

TEST(EchoService, ClassifiesReadsAndWrites) {
    EchoService service;
    const auto read = service.classify(EchoService::make_read(3, 64, 128));
    EXPECT_TRUE(read.is_read);
    EXPECT_EQ(read.state_key, "k3");

    const auto write = service.classify(EchoService::make_write(7, 64));
    EXPECT_FALSE(write.is_read);
    EXPECT_EQ(write.state_key, "k7");
}

TEST(EchoService, RequestSizesApproximatelyHonored) {
    for (const std::size_t size : {256u, 1024u, 4096u, 8192u}) {
        const Bytes request = EchoService::make_write(1, size);
        EXPECT_NEAR(static_cast<double>(request.size()),
                    static_cast<double>(size), 32.0);
    }
}

TEST(EchoService, ReadReplyHasRequestedSize) {
    EchoService service;
    const Bytes reply = service.execute(EchoService::make_read(2, 64, 4096));
    EXPECT_EQ(reply.size(), 4096u);
}

TEST(EchoService, WriteBumpsVersionAndChangesReads) {
    EchoService service;
    const Bytes before = service.execute(EchoService::make_read(5, 64, 256));
    service.execute(EchoService::make_write(5, 64));
    const Bytes after = service.execute(EchoService::make_read(5, 64, 256));
    EXPECT_NE(before, after);
    EXPECT_EQ(service.version_of(5), 1u);
    EXPECT_EQ(after, EchoService::expected_read_reply(5, 1, 256));
}

TEST(EchoService, WritesToOtherKeysDoNotInterfere) {
    EchoService service;
    const Bytes before = service.execute(EchoService::make_read(1, 64, 128));
    service.execute(EchoService::make_write(2, 64));
    const Bytes after = service.execute(EchoService::make_read(1, 64, 128));
    EXPECT_EQ(before, after);
}

TEST(EchoService, DeterministicAcrossInstances) {
    EchoService a, b;
    const Bytes request = EchoService::make_write(9, 512);
    EXPECT_EQ(a.execute(request), b.execute(request));
    EXPECT_EQ(a.execute(EchoService::make_read(9, 64, 1024)),
              b.execute(EchoService::make_read(9, 64, 1024)));
}

TEST(EchoService, CheckpointRestoreRoundTrip) {
    EchoService a;
    a.execute(EchoService::make_write(1, 64));
    a.execute(EchoService::make_write(1, 64));
    a.execute(EchoService::make_write(2, 64));

    EchoService b;
    b.restore(a.checkpoint());
    EXPECT_EQ(b.version_of(1), 2u);
    EXPECT_EQ(b.version_of(2), 1u);
    EXPECT_EQ(b.execute(EchoService::make_read(1, 64, 64)),
              a.execute(EchoService::make_read(1, 64, 64)));
}

TEST(EchoService, WriteAckIsTenBytes) {
    // The paper's write replies are always 10 B.
    EchoService service;
    EXPECT_EQ(service.execute(EchoService::make_write(1, 4096)).size(), 10u);
}

TEST(KvService, PutGetDelete) {
    KvService service;
    EXPECT_EQ(to_string(service.execute(KvService::make_get("a"))), "");
    service.execute(KvService::make_put("a", "1"));
    EXPECT_EQ(to_string(service.execute(KvService::make_get("a"))), "1");
    EXPECT_EQ(to_string(service.execute(KvService::make_put("a", "2"))),
              "1");  // returns previous
    EXPECT_EQ(to_string(service.execute(KvService::make_delete("a"))), "2");
    EXPECT_EQ(to_string(service.execute(KvService::make_get("a"))), "");
}

TEST(KvService, ScanFindsPrefixMatches) {
    KvService service;
    service.execute(KvService::make_put("user:1", "a"));
    service.execute(KvService::make_put("user:2", "b"));
    service.execute(KvService::make_put("item:1", "c"));

    const Bytes result = service.execute(KvService::make_scan("user:"));
    Reader r(result);
    EXPECT_EQ(r.u32(), 2u);
    EXPECT_EQ(r.str(), "user:1");
    EXPECT_EQ(r.str(), "user:2");
}

TEST(KvService, ClassifyAndStateKeys) {
    KvService service;
    const auto get = service.classify(KvService::make_get("x"));
    EXPECT_TRUE(get.is_read);
    EXPECT_EQ(get.state_key, "kv:x");

    const auto put = service.classify(KvService::make_put("x", "v"));
    EXPECT_FALSE(put.is_read);
    EXPECT_EQ(put.state_key, "kv:x");

    const auto scan = service.classify(KvService::make_scan("x"));
    EXPECT_TRUE(scan.is_read);
    EXPECT_EQ(scan.state_key, "scan:x");
}

TEST(KvService, MutationWriteSetCoversScanPartitions) {
    // A put/delete's write set is its exact key plus every covering scan
    // partition (each prefix of the key, including the empty prefix =
    // full scan) — that closure keeps cached scans coherent. Reads carry
    // no extra keys, so they never gate or invalidate anything extra.
    KvService service;
    const auto put = service.classify(KvService::make_put("ab", "v"));
    EXPECT_EQ(put.extra_keys, (hybster::KeyList{
                                  "scan:", "scan:a", "scan:ab"}));
    std::vector<std::string> closure;
    for (const std::string& key : put.keys()) closure.push_back(key);
    EXPECT_EQ(closure, (std::vector<std::string>{"kv:ab", "scan:", "scan:a",
                                                 "scan:ab"}));

    const auto del = service.classify(KvService::make_delete("ab"));
    EXPECT_EQ(del.extra_keys, put.extra_keys);

    EXPECT_TRUE(service.classify(KvService::make_get("ab")).extra_keys
                    .empty());
    EXPECT_TRUE(service.classify(KvService::make_scan("ab")).extra_keys
                    .empty());
}

TEST(KvService, LongKeyClosureSpillsPastTheInlineKeys) {
    // Ten characters name eleven scan partitions, more than the closure
    // holds inline; the spilled list keeps every key in order.
    KvService service;
    const std::string key = "abcdefghij";
    const auto put = service.classify(KvService::make_put(key, "v"));
    ASSERT_GT(key.size() + 1, hybster::kInlineKeys);
    ASSERT_EQ(put.extra_keys.size(), key.size() + 1);
    for (std::size_t len = 0; len <= key.size(); ++len) {
        EXPECT_EQ(put.extra_keys[len], "scan:" + key.substr(0, len));
    }
    EXPECT_EQ(put.keys().size(), key.size() + 2);
}

TEST(KvService, CheckpointRestore) {
    KvService a;
    a.execute(KvService::make_put("k1", "v1"));
    a.execute(KvService::make_put("k2", "v2"));
    KvService b;
    b.restore(a.checkpoint());
    EXPECT_EQ(to_string(b.execute(KvService::make_get("k1"))), "v1");
    EXPECT_EQ(to_string(b.execute(KvService::make_get("k2"))), "v2");
    EXPECT_EQ(b.size(), 2u);
}

TEST(KvService, MalformedRequestHandledGracefully) {
    KvService service;
    const Bytes reply = service.execute(Bytes{0xff});
    EXPECT_TRUE(to_string(reply).starts_with("ERR"));
    const auto info = service.classify(Bytes{0xff});
    EXPECT_TRUE(info.is_read);  // conservative: never caches invalid
}

}  // namespace
}  // namespace troxy::apps

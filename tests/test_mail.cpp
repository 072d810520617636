// MailService (IMAP-style line protocol) unit tests plus end-to-end use
// through a Troxy cluster — the paper's second motivating legacy
// protocol family.
#include <gtest/gtest.h>

#include "apps/mail_service.hpp"
#include "bench_support/cluster.hpp"

namespace troxy::apps {
namespace {

TEST(MailService, AppendFetchList) {
    MailService service;
    EXPECT_EQ(to_string(service.execute(MailService::make_list("inbox"))),
              "0");

    EXPECT_EQ(to_string(service.execute(
                  MailService::make_append("inbox", "hello bob"))),
              "OK 1");
    EXPECT_EQ(to_string(service.execute(
                  MailService::make_append("inbox", "hello again"))),
              "OK 2");

    EXPECT_EQ(to_string(service.execute(MailService::make_list("inbox"))),
              "2 1 2");
    EXPECT_EQ(to_string(service.execute(MailService::make_fetch("inbox", 1))),
              "hello bob");
    EXPECT_EQ(to_string(service.execute(MailService::make_fetch("inbox", 2))),
              "hello again");
}

TEST(MailService, ExpungeRemovesAndIdsNeverReused) {
    MailService service;
    service.execute(MailService::make_append("inbox", "a"));
    service.execute(MailService::make_append("inbox", "b"));
    EXPECT_EQ(to_string(service.execute(
                  MailService::make_expunge("inbox", 1))),
              "OK");
    EXPECT_EQ(to_string(service.execute(MailService::make_fetch("inbox", 1))),
              "NO such message");
    // New appends continue the id sequence.
    EXPECT_EQ(to_string(service.execute(
                  MailService::make_append("inbox", "c"))),
              "OK 3");
    EXPECT_EQ(service.message_count("inbox"), 2u);
}

TEST(MailService, MailboxesAreIndependent) {
    MailService service;
    service.execute(MailService::make_append("work", "w1"));
    service.execute(MailService::make_append("home", "h1"));
    EXPECT_EQ(to_string(service.execute(MailService::make_list("work"))),
              "1 1");
    EXPECT_EQ(to_string(service.execute(MailService::make_list("home"))),
              "1 1");
    EXPECT_EQ(to_string(service.execute(MailService::make_fetch("work", 1))),
              "w1");
}

TEST(MailService, ClassifierPartitionsByMailbox) {
    MailService service;
    const auto list = service.classify(MailService::make_list("inbox"));
    EXPECT_TRUE(list.is_read);
    EXPECT_EQ(list.state_key, "mail:inbox");

    const auto append =
        service.classify(MailService::make_append("inbox", "x"));
    EXPECT_FALSE(append.is_read);
    EXPECT_EQ(append.state_key, "mail:inbox");

    const auto other = service.classify(MailService::make_fetch("spam", 1));
    EXPECT_EQ(other.state_key, "mail:spam");

    // All reads stay keyed on the mailbox partition (so any mutation of
    // the mailbox invalidates them); an expunge additionally names the
    // message it removes in its write set.
    EXPECT_TRUE(other.extra_keys.empty());
    const auto expunge =
        service.classify(MailService::make_expunge("inbox", 4));
    EXPECT_EQ(expunge.state_key, "mail:inbox");
    EXPECT_EQ(expunge.extra_keys,
              (hybster::KeyList{"mail:inbox:msg:4"}));
    const auto append2 =
        service.classify(MailService::make_append("inbox", "x"));
    EXPECT_TRUE(append2.extra_keys.empty());
}

TEST(MailService, ErrorsAreTextualNotFatal) {
    MailService service;
    EXPECT_EQ(to_string(service.execute(to_bytes("NONSENSE"))),
              "BAD command");
    EXPECT_EQ(to_string(service.execute(MailService::make_fetch("none", 7))),
              "NO such mailbox");
    EXPECT_EQ(to_string(service.execute(
                  MailService::make_expunge("none", 7))),
              "NO such message");
}

TEST(MailService, CheckpointRestoreRoundTrip) {
    MailService a;
    a.execute(MailService::make_append("inbox", "one"));
    a.execute(MailService::make_append("inbox", "two"));
    a.execute(MailService::make_expunge("inbox", 1));
    a.execute(MailService::make_append("archive", "old"));

    MailService b;
    b.restore(a.checkpoint());
    EXPECT_EQ(b.checkpoint(), a.checkpoint());
    EXPECT_EQ(to_string(b.execute(MailService::make_fetch("inbox", 2))),
              "two");
    // next_id restored: new append gets id 3, not 1.
    EXPECT_EQ(to_string(b.execute(MailService::make_append("inbox", "x"))),
              "OK 3");
}

TEST(MailService, DeterministicAcrossInstances) {
    MailService a, b;
    for (MailService* s : {&a, &b}) {
        s->execute(MailService::make_append("m", "first"));
        s->execute(MailService::make_append("m", "second"));
        s->execute(MailService::make_expunge("m", 1));
    }
    EXPECT_EQ(a.checkpoint(), b.checkpoint());
}

// End-to-end: an "IMAP client" works against the Troxy-backed cluster;
// LIST/FETCH after APPEND reflect the write (cache invalidation by
// mailbox key).
TEST(MailOverTroxy, ClientSessionIsLinearizable) {
    bench::TroxyCluster::Params params;
    params.base.seed = 404;
    params.service = []() { return std::make_unique<MailService>(); };
    params.classifier = [](ByteView request) {
        return MailService().classify(request);
    };
    bench::TroxyCluster cluster(std::move(params));
    auto& client = cluster.add_client();

    std::vector<std::string> transcript;
    client.start([&]() {
        client.send(MailService::make_list("inbox"), [&](Bytes r1) {
            transcript.push_back(to_string(r1));
            client.send(MailService::make_append("inbox", "urgent: bft"),
                        [&](Bytes r2) {
                transcript.push_back(to_string(r2));
                client.send(MailService::make_list("inbox"), [&](Bytes r3) {
                    transcript.push_back(to_string(r3));
                    client.send(MailService::make_fetch("inbox", 1),
                                [&](Bytes r4) {
                                    transcript.push_back(to_string(r4));
                                });
                });
            });
        });
    });
    cluster.simulator().run_until(sim::seconds(10));

    ASSERT_EQ(transcript.size(), 4u);
    EXPECT_EQ(transcript[0], "0");
    EXPECT_EQ(transcript[1], "OK 1");
    EXPECT_EQ(transcript[2], "1 1");  // the APPEND invalidated the cache
    EXPECT_EQ(transcript[3], "urgent: bft");
}

}  // namespace
}  // namespace troxy::apps

// Hybster protocol unit tests: wire messages, configuration, and a bare
// replica group driven without any client/Troxy machinery.
#include <gtest/gtest.h>

#include <algorithm>

#include "apps/echo_service.hpp"
#include "apps/kv_service.hpp"
#include "apps/mail_service.hpp"
#include "hybster/client.hpp"
#include "hybster/config.hpp"
#include "hybster/exec_schedule.hpp"
#include "hybster/keys.hpp"
#include "hybster/messages.hpp"
#include "hybster/replica.hpp"
#include "net/envelope.hpp"

namespace troxy::hybster {
namespace {

// ----------------------------------------------------------------- config

TEST(Config, QuorumAndLeader) {
    Config config;
    config.f = 1;
    config.replicas = {10, 11, 12};
    config.validate();
    EXPECT_EQ(config.n(), 3);
    EXPECT_EQ(config.quorum(), 2);
    EXPECT_EQ(config.leader_of(0), 0u);
    EXPECT_EQ(config.leader_of(1), 1u);
    EXPECT_EQ(config.leader_of(3), 0u);
    EXPECT_EQ(config.node_of(2), 12u);
    EXPECT_EQ(config.replica_of(11), 1);
    EXPECT_EQ(config.replica_of(99), -1);
}

TEST(Config, LargerGroups) {
    Config config;
    config.f = 2;
    config.replicas = {1, 2, 3, 4, 5};
    config.validate();
    EXPECT_EQ(config.quorum(), 3);
}

TEST(Config, BatchSizeWireLimit) {
    // The config ceiling must agree with Batch::decode's wire limit: a
    // leader allowed to cut bigger batches would stall the group.
    Config config;
    config.f = 1;
    config.replicas = {10, 11, 12};
    config.batch_size_max = 1u << 16;  // largest batch followers accept
    config.validate();
}

// --------------------------------------------------------------- messages

TEST(Messages, RequestRoundTrip) {
    Request request;
    request.id = {7, 42};
    request.flags = Request::kFlagRead;
    request.payload = to_bytes("payload");
    request.auth.push_back(enclave::Certificate{});
    request.auth.back().fill(0x11);

    const Bytes wire = encode_message(Message(request));
    const auto decoded = decode_message(wire);
    ASSERT_TRUE(decoded.has_value());
    const auto* out = std::get_if<Request>(&*decoded);
    ASSERT_NE(out, nullptr);
    EXPECT_EQ(out->id, request.id);
    EXPECT_TRUE(out->is_read());
    EXPECT_FALSE(out->is_optimistic());
    EXPECT_EQ(out->payload, request.payload);
    ASSERT_EQ(out->auth.size(), 1u);
    EXPECT_EQ(out->auth[0], request.auth[0]);
}

TEST(Messages, RequestDigestExcludesAuth) {
    Request a;
    a.id = {1, 2};
    a.payload = to_bytes("x");
    Request b = a;
    b.auth.push_back(enclave::Certificate{});
    EXPECT_EQ(a.digest(), b.digest());
}

TEST(Messages, PrepareRoundTrip) {
    Prepare prepare;
    prepare.view = 3;
    prepare.seq = 17;
    prepare.replica = 0;
    prepare.counter_value = 5;
    Request member;
    member.id = {9, 1};
    member.payload = to_bytes("req");
    prepare.batch.requests.push_back(member);
    Request second;
    second.id = {9, 2};
    second.payload = to_bytes("req2");
    prepare.batch.requests.push_back(second);
    prepare.cert.fill(0x22);

    const auto decoded = decode_message(encode_message(Message(prepare)));
    ASSERT_TRUE(decoded.has_value());
    const auto* out = std::get_if<Prepare>(&*decoded);
    ASSERT_NE(out, nullptr);
    EXPECT_EQ(out->view, 3u);
    EXPECT_EQ(out->seq, 17u);
    EXPECT_EQ(out->counter_value, 5u);
    ASSERT_EQ(out->batch.size(), 2u);
    EXPECT_EQ(out->batch.requests[0].payload, to_bytes("req"));
    EXPECT_EQ(out->batch.requests[1].payload, to_bytes("req2"));
    EXPECT_EQ(out->batch.digest(), prepare.batch.digest());
}

TEST(Messages, BatchDigestRules) {
    // One member: the batch digest is the member's request digest, so a
    // single-request batch is wire- and digest-compatible with the
    // pre-batching protocol.
    Batch single;
    Request r1;
    r1.id = {1, 1};
    r1.payload = to_bytes("a");
    single.requests.push_back(r1);
    EXPECT_EQ(single.digest(), r1.digest());

    // Several members: SHA-256 over the concatenated member digests.
    // (Built fresh — a batch must not be mutated once its digest is
    // memoized.)
    Batch pair;
    Request r2;
    r2.id = {1, 2};
    r2.payload = to_bytes("b");
    pair.requests.push_back(r1);
    pair.requests.push_back(r2);
    Bytes concat_digests;
    for (const auto& r : pair.requests) {
        concat_digests.insert(concat_digests.end(), r.digest().begin(),
                              r.digest().end());
    }
    EXPECT_EQ(pair.digest(), crypto::sha256(concat_digests));
    EXPECT_NE(pair.digest(), single.digest());
}

TEST(Messages, CertifiedViewsBindBatchStructure) {
    // The batch digest alone cannot tell a k-member batch from a single
    // crafted request whose signed bytes equal the concatenated member
    // digests, so the trusted counter must certify the member count next
    // to the digest. Certified views that differ only in batch size must
    // therefore differ as byte strings, for PREPAREs and COMMITs alike.
    Request r1;
    r1.id = {1, 1};
    r1.payload = to_bytes("a");
    Request r2;
    r2.id = {1, 2};
    r2.payload = to_bytes("b");

    Prepare one;
    one.view = 4;
    one.seq = 9;
    one.replica = 0;
    one.batch.requests.push_back(r1);
    Prepare two = one;
    two.batch.requests.push_back(r2);
    const AgreementView view_one = one.certified_view();
    const AgreementView view_two = two.certified_view();
    EXPECT_NE(view_one, view_two);
    // The count is part of the certified bytes even when digests were
    // (hypothetically) equal: strip the digest suffix and compare.
    const auto prefix = [](const AgreementView& v) {
        return Bytes(v.begin(), v.end() - crypto::kSha256DigestSize);
    };
    EXPECT_NE(prefix(view_one), prefix(view_two));

    Commit ca;
    ca.view = 4;
    ca.seq = 9;
    ca.replica = 1;
    ca.batch_size = 1;
    ca.batch_digest = crypto::sha256(to_bytes("same"));
    Commit cb = ca;
    cb.batch_size = 2;
    EXPECT_NE(ca.certified_view(), cb.certified_view());
}

TEST(Messages, CommitReplyCheckpointRoundTrip) {
    Commit commit;
    commit.view = 1;
    commit.seq = 2;
    commit.replica = 2;
    commit.counter_value = 2;
    commit.batch_size = 3;
    commit.batch_digest = crypto::sha256(to_bytes("r"));
    auto c = decode_message(encode_message(Message(commit)));
    ASSERT_TRUE(c && std::holds_alternative<Commit>(*c));
    EXPECT_EQ(std::get<Commit>(*c).batch_size, 3u);
    EXPECT_EQ(std::get<Commit>(*c).batch_digest, commit.batch_digest);

    Reply reply;
    reply.kind = Reply::Kind::Optimistic;
    reply.request_id = {5, 6};
    reply.result = to_bytes("result");
    reply.replica = 1;
    auto r = decode_message(encode_message(Message(reply)));
    ASSERT_TRUE(r && std::holds_alternative<Reply>(*r));
    EXPECT_EQ(std::get<Reply>(*r).kind, Reply::Kind::Optimistic);
    EXPECT_EQ(std::get<Reply>(*r).result, to_bytes("result"));

    CheckpointMsg cp;
    cp.seq = 128;
    cp.replica = 0;
    cp.state_digest = crypto::sha256(to_bytes("state"));
    auto k = decode_message(encode_message(Message(cp)));
    ASSERT_TRUE(k && std::holds_alternative<CheckpointMsg>(*k));
    EXPECT_EQ(std::get<CheckpointMsg>(*k).seq, 128u);
}

TEST(Messages, ViewChangeNewViewRoundTrip) {
    ViewChange vc;
    vc.new_view = 2;
    vc.replica = 1;
    vc.last_stable = 64;
    Prepare prepared;
    prepared.view = 1;
    prepared.seq = 65;
    Request pending;
    pending.payload = to_bytes("pending");
    prepared.batch.requests.push_back(std::move(pending));
    vc.prepared.push_back(prepared);

    auto v = decode_message(encode_message(Message(vc)));
    ASSERT_TRUE(v && std::holds_alternative<ViewChange>(*v));
    EXPECT_EQ(std::get<ViewChange>(*v).prepared.size(), 1u);

    NewView nv;
    nv.view = 2;
    nv.replica = 2;
    nv.start_seq = 65;
    nv.proofs.push_back(vc);
    nv.reproposed.push_back(prepared);
    auto n = decode_message(encode_message(Message(nv)));
    ASSERT_TRUE(n && std::holds_alternative<NewView>(*n));
    EXPECT_EQ(std::get<NewView>(*n).proofs.size(), 1u);
    EXPECT_EQ(std::get<NewView>(*n).reproposed.size(), 1u);
}

TEST(Messages, MalformedInputsRejected) {
    EXPECT_FALSE(decode_message(Bytes{}).has_value());
    EXPECT_FALSE(decode_message(Bytes{99}).has_value());
    Bytes truncated = encode_message(Message(Request{}));
    truncated.resize(truncated.size() - 3);
    EXPECT_FALSE(decode_message(truncated).has_value());
    Bytes trailing = encode_message(Message(Request{}));
    trailing.push_back(0);
    EXPECT_FALSE(decode_message(trailing).has_value());
}

TEST(Keys, PairwiseKeysDistinct) {
    const Bytes master = to_bytes("master");
    EXPECT_NE(client_replica_key(master, 1, 0),
              client_replica_key(master, 1, 1));
    EXPECT_NE(client_replica_key(master, 1, 0),
              client_replica_key(master, 2, 0));
    EXPECT_EQ(client_replica_key(master, 1, 0),
              client_replica_key(master, 1, 0));
}

// ---------------------------------------------------- bare replica harness

struct BareGroup {
    sim::Simulator sim{123};
    sim::Network network{sim};
    net::Fabric fabric{sim, network};
    Config config;
    std::vector<std::unique_ptr<sim::Node>> nodes;
    std::vector<std::unique_ptr<Replica>> replicas;
    std::vector<Reply> delivered;  // replies that reached "the client"
    sim::CostProfile profile = sim::CostProfile::java();

    explicit BareGroup(int f = 1, std::size_t batch_size_max = 1,
                       sim::Duration batch_delay = 0,
                       std::size_t execution_lanes = 1,
                       ServiceFactory service = {}) {
        if (!service) {
            service = []() { return std::make_unique<apps::EchoService>(); };
        }
        config.f = f;
        config.checkpoint_interval = 8;
        config.view_change_timeout = sim::milliseconds(200);
        config.batch_size_max = batch_size_max;
        config.batch_delay = batch_delay;
        config.execution_lanes = execution_lanes;
        const int n = 2 * f + 1;
        for (int i = 0; i < n; ++i) {
            config.replicas.push_back(static_cast<sim::NodeId>(i + 1));
        }
        const Bytes group_key = to_bytes("test-group-key");
        for (int i = 0; i < n; ++i) {
            nodes.push_back(std::make_unique<sim::Node>(
                sim, config.replicas[static_cast<std::size_t>(i)],
                "r" + std::to_string(i), 4));
            auto trinx = std::make_shared<enclave::TrinX>(
                static_cast<std::uint32_t>(i), group_key);

            Replica::Hooks hooks;
            hooks.verify_request = [](enclave::CostedCrypto&,
                                      const Request&) { return true; };
            hooks.deliver_reply = [this](enclave::CostedCrypto&,
                                         net::Outbox&, const Request&,
                                         Reply reply) {
                delivered.push_back(std::move(reply));
            };
            replicas.push_back(std::make_unique<Replica>(
                fabric, *nodes.back(), config,
                static_cast<std::uint32_t>(i), service(), std::move(trinx),
                profile, std::move(hooks)));
            auto* replica = replicas.back().get();
            fabric.attach(config.replicas[static_cast<std::size_t>(i)],
                          [replica](sim::NodeId from, Bytes message) {
                              auto unwrapped = net::unwrap(message);
                              if (!unwrapped) return;
                              replica->on_message(from, unwrapped->second);
                          });
        }
    }

    Request make_request(std::uint64_t number, Bytes payload,
                         std::uint8_t flags = 0) {
        Request request;
        request.id = {500, number};
        request.flags = flags;
        request.payload = std::move(payload);
        return request;
    }

    /// Replies delivered by distinct replicas for a request number.
    int replies_for(std::uint64_t number) {
        std::set<std::uint32_t> replicas_seen;
        for (const Reply& reply : delivered) {
            if (reply.request_id.number == number) {
                replicas_seen.insert(reply.replica);
            }
        }
        return static_cast<int>(replicas_seen.size());
    }
};

TEST(Replica, LeaderOrdersAndAllExecute) {
    BareGroup group;
    group.replicas[0]->submit(
        group.make_request(1, apps::EchoService::make_write(1, 64)));
    group.sim.run_until(sim::seconds(2));

    for (const auto& replica : group.replicas) {
        EXPECT_EQ(replica->last_executed(), 1u);
    }
    EXPECT_EQ(group.replies_for(1), 3);
}

TEST(Replica, FollowerForwardsToLeader) {
    BareGroup group;
    group.replicas[2]->submit(
        group.make_request(1, apps::EchoService::make_write(1, 64)));
    group.sim.run_until(sim::seconds(2));
    EXPECT_EQ(group.replicas[0]->last_executed(), 1u);
    EXPECT_EQ(group.replies_for(1), 3);
}

TEST(Replica, SequentialRequestsExecuteInOrder) {
    BareGroup group;
    for (std::uint64_t i = 1; i <= 10; ++i) {
        group.replicas[0]->submit(
            group.make_request(i, apps::EchoService::make_write(i % 3, 64)));
    }
    group.sim.run_until(sim::seconds(2));
    for (const auto& replica : group.replicas) {
        EXPECT_EQ(replica->last_executed(), 10u);
    }
    // Deterministic execution ⇒ identical state.
    const Bytes snapshot = group.replicas[0]->service().checkpoint();
    EXPECT_EQ(group.replicas[1]->service().checkpoint(), snapshot);
    EXPECT_EQ(group.replicas[2]->service().checkpoint(), snapshot);
}

TEST(Replica, DuplicateRequestGetsReplyRetransmission) {
    BareGroup group;
    const Request request =
        group.make_request(1, apps::EchoService::make_write(1, 64));
    group.replicas[0]->submit(request);
    group.sim.run_until(sim::seconds(1));
    const std::size_t replies_before = group.delivered.size();

    group.replicas[0]->submit(request);  // retransmission
    group.sim.run_until(sim::seconds(2));
    EXPECT_GT(group.delivered.size(), replies_before);
    // But no double execution.
    EXPECT_EQ(group.replicas[0]->last_executed(), 1u);
}

TEST(Replica, CheckpointsTruncateAndStabilize) {
    BareGroup group;  // checkpoint interval 8
    for (std::uint64_t i = 1; i <= 20; ++i) {
        group.replicas[0]->submit(
            group.make_request(i, apps::EchoService::make_write(1, 32)));
    }
    group.sim.run_until(sim::seconds(3));
    for (const auto& replica : group.replicas) {
        EXPECT_EQ(replica->last_executed(), 20u);
        EXPECT_GE(replica->last_stable(), 8u);
    }
}

TEST(Replica, OptimisticReadDoesNotOrder) {
    BareGroup group;
    group.replicas[1]->execute_optimistic_read(group.make_request(
        1, apps::EchoService::make_read(1, 32, 64),
        Request::kFlagRead | Request::kFlagOptimistic));
    group.sim.run_until(sim::seconds(1));
    EXPECT_EQ(group.replicas[1]->last_executed(), 0u);
    ASSERT_EQ(group.delivered.size(), 1u);
    EXPECT_EQ(group.delivered[0].kind, Reply::Kind::Optimistic);
}

TEST(Replica, ViewChangeOnCrashedLeader) {
    BareGroup group;
    // Execute something first so all replicas are warm.
    group.replicas[0]->submit(
        group.make_request(1, apps::EchoService::make_write(1, 32)));
    group.sim.run_until(sim::seconds(1));
    ASSERT_EQ(group.replicas[1]->last_executed(), 1u);

    // Crash the leader, then a follower receives a request and forwards
    // it into the void — the progress timer must fire a view change.
    FaultProfile crash;
    crash.crashed = true;
    group.replicas[0]->set_faults(crash);

    group.replicas[1]->submit(
        group.make_request(2, apps::EchoService::make_write(2, 32)));
    group.sim.run_until(sim::seconds(5));

    EXPECT_GT(group.replicas[1]->view(), 0u);
    EXPECT_EQ(group.replicas[1]->last_executed(), 2u);
    EXPECT_EQ(group.replicas[2]->last_executed(), 2u);
    EXPECT_GE(group.replies_for(2), 2);
}

TEST(Replica, MutedLeaderTriggersViewChange) {
    BareGroup group;
    FaultProfile mute;
    mute.mute_agreement = true;
    group.replicas[0]->set_faults(mute);

    // Follower forwards a request; the muted leader never proposes.
    group.replicas[1]->submit(
        group.make_request(1, apps::EchoService::make_write(1, 32)));
    group.sim.run_until(sim::seconds(5));

    EXPECT_GT(group.replicas[1]->view(), 0u);
    EXPECT_EQ(group.replicas[1]->last_executed(), 1u);
}

// ---------------------------------------------------------------- batching

TEST(Replica, BatchCutAtSizeBoundary) {
    // Batch fills to batch_size_max long before the delay expires: the
    // size boundary cuts it. Four requests end up in ONE log entry.
    BareGroup group(1, /*batch_size_max=*/4,
                    /*batch_delay=*/sim::milliseconds(50));
    for (std::uint64_t i = 1; i <= 4; ++i) {
        group.replicas[0]->submit(
            group.make_request(i, apps::EchoService::make_write(i, 32)));
    }
    // Well before the 50 ms delay boundary the batch must already have
    // executed everywhere — proof the size boundary (not the timer) cut.
    group.sim.run_until(sim::milliseconds(40));
    for (const auto& replica : group.replicas) {
        EXPECT_EQ(replica->last_executed(), 1u);  // one batch = one seq
    }
    for (std::uint64_t i = 1; i <= 4; ++i) {
        EXPECT_EQ(group.replies_for(i), 3) << "request " << i;
    }
}

TEST(Replica, BatchCutAtDelayBoundary) {
    // Batch never fills: the delay timer cuts it. Before the boundary
    // nothing is ordered; after it, all members execute under one seq.
    BareGroup group(1, /*batch_size_max=*/16,
                    /*batch_delay=*/sim::milliseconds(50));
    for (std::uint64_t i = 1; i <= 3; ++i) {
        group.replicas[0]->submit(
            group.make_request(i, apps::EchoService::make_write(i, 32)));
    }
    group.sim.run_until(sim::milliseconds(40));
    EXPECT_EQ(group.replicas[0]->last_executed(), 0u);  // still pending

    group.sim.run_until(sim::milliseconds(500));
    for (const auto& replica : group.replicas) {
        EXPECT_EQ(replica->last_executed(), 1u);
    }
    for (std::uint64_t i = 1; i <= 3; ++i) {
        EXPECT_EQ(group.replies_for(i), 3) << "request " << i;
    }
}

TEST(Replica, CheckpointLandsMidBatch) {
    // Interval 8 with batches of 5: the threshold is crossed by the
    // middle of the second batch, so the checkpoint lands at that batch's
    // sequence number (2) — after the whole batch executed, never inside.
    BareGroup group(1, /*batch_size_max=*/5,
                    /*batch_delay=*/sim::milliseconds(50));
    for (std::uint64_t i = 1; i <= 10; ++i) {
        group.replicas[0]->submit(
            group.make_request(i, apps::EchoService::make_write(1, 32)));
    }
    group.sim.run_until(sim::seconds(3));
    for (const auto& replica : group.replicas) {
        EXPECT_EQ(replica->last_executed(), 2u);  // two batches of five
        EXPECT_EQ(replica->last_stable(), 2u);    // checkpoint at seq 2
    }
    for (std::uint64_t i = 1; i <= 10; ++i) {
        EXPECT_EQ(group.replies_for(i), 3) << "request " << i;
    }
}

TEST(Replica, ViewChangeRescuesPendingBatch) {
    // A request forwarded through a follower sits in the leader's *uncut*
    // batch when the leader dies. The follower's progress timer fires a
    // view change and the new leader re-proposes the forwarded request.
    BareGroup group(1, /*batch_size_max=*/16,
                    /*batch_delay=*/sim::milliseconds(100));
    group.replicas[1]->submit(
        group.make_request(1, apps::EchoService::make_write(1, 32)));
    // Let the forward reach the leader's pending batch, then crash the
    // leader before the 100 ms delay boundary cuts it.
    group.sim.run_until(sim::milliseconds(20));
    ASSERT_EQ(group.replicas[0]->last_executed(), 0u);
    FaultProfile crash;
    crash.crashed = true;
    group.replicas[0]->set_faults(crash);

    group.sim.run_until(sim::seconds(5));
    EXPECT_GT(group.replicas[1]->view(), 0u);
    EXPECT_EQ(group.replicas[1]->last_executed(), 1u);
    EXPECT_EQ(group.replicas[2]->last_executed(), 1u);
    EXPECT_GE(group.replies_for(1), 2);
}

TEST(Replica, BatchedExecutionMatchesUnbatchedState) {
    // The same request sequence produces byte-identical service state
    // whether ordered one-by-one or in batches of four.
    auto run = [](std::size_t batch_size, sim::Duration delay) {
        BareGroup group(1, batch_size, delay);
        for (std::uint64_t i = 1; i <= 10; ++i) {
            group.replicas[0]->submit(group.make_request(
                i, apps::EchoService::make_write(i % 3, 64)));
        }
        group.sim.run_until(sim::seconds(3));
        EXPECT_EQ(group.replies_for(10), 3);
        return group.replicas[0]->service().checkpoint();
    };
    const Bytes unbatched = run(1, 0);
    const Bytes batched = run(4, sim::milliseconds(10));
    EXPECT_EQ(unbatched, batched);
}

TEST(Replica, FiveReplicaGroupToleratesTwoFaults) {
    BareGroup group(2);  // n = 5
    group.replicas[0]->submit(
        group.make_request(1, apps::EchoService::make_write(1, 32)));
    group.sim.run_until(sim::seconds(2));
    EXPECT_EQ(group.replies_for(1), 5);

    FaultProfile crash;
    crash.crashed = true;
    group.replicas[3]->set_faults(crash);
    group.replicas[4]->set_faults(crash);

    group.delivered.clear();
    group.replicas[0]->submit(
        group.make_request(2, apps::EchoService::make_write(1, 32)));
    group.sim.run_until(sim::seconds(4));
    EXPECT_EQ(group.replicas[0]->last_executed(), 2u);
    EXPECT_EQ(group.replies_for(2), 3);  // the three alive replicas
}

// --------------------------------------------------------- execution lanes

/// Service with hand-controllable conflict classes and costs: the first
/// payload byte is the state key, the second the execution cost in ns.
struct StubLaneService final : Service {
    [[nodiscard]] RequestInfo classify(ByteView request) const override {
        RequestInfo info;
        info.state_key = std::string(1, static_cast<char>(request[0]));
        return info;
    }
    Bytes execute(ByteView request) override {
        return Bytes(request.begin(), request.end());
    }
    [[nodiscard]] Bytes checkpoint() const override { return {}; }
    void restore(ByteView) override {}
    [[nodiscard]] sim::Duration execution_cost(
        ByteView request) const override {
        return request.size() > 1 ? request[1] : 0;
    }
};

Request lane_request(char key, std::uint8_t cost, std::uint8_t flags = 0) {
    Request request;
    request.id = {500, static_cast<std::uint64_t>(key) * 256 + cost};
    request.flags = flags;
    request.payload = {static_cast<std::uint8_t>(key), cost};
    return request;
}

TEST(PlanExecution, SameKeyMembersChainInOneClass) {
    StubLaneService service;
    Batch batch;
    batch.requests = {lane_request('a', 10), lane_request('a', 20),
                      lane_request('b', 30)};
    const ExecPlan plan = plan_execution(batch, service, 4);

    EXPECT_EQ(plan.conflict_classes, 2u);
    EXPECT_EQ(plan.class_of, (std::vector<std::size_t>{0, 0, 1}));
    EXPECT_EQ(plan.serial, sim::Duration{60});
    // Chain a (10+20) and chain b (30) run on parallel lanes.
    EXPECT_EQ(plan.makespan, sim::Duration{30});
    EXPECT_EQ(plan.conflict_stalls, 1u);
    EXPECT_EQ(plan.lanes_used, 2u);
}

TEST(PlanExecution, GreedySchedulePacksShortChains) {
    StubLaneService service;
    Batch batch;
    batch.requests = {lane_request('a', 30), lane_request('b', 10),
                      lane_request('c', 10), lane_request('d', 10)};
    const ExecPlan plan = plan_execution(batch, service, 2);
    // Greedy: a→lane0 (30); b,c,d stack on lane1 (30). Perfect packing.
    EXPECT_EQ(plan.serial, sim::Duration{60});
    EXPECT_EQ(plan.makespan, sim::Duration{30});
    EXPECT_EQ(plan.conflict_stalls, 0u);
    EXPECT_EQ(plan.lanes_used, 2u);
}

TEST(PlanExecution, SingleLaneEqualsSerialSum) {
    StubLaneService service;
    Batch batch;
    batch.requests = {lane_request('a', 10), lane_request('b', 20),
                      lane_request('c', 30)};
    const ExecPlan plan = plan_execution(batch, service, 1);
    EXPECT_EQ(plan.makespan, plan.serial);
    EXPECT_EQ(plan.serial, sim::Duration{60});
    EXPECT_EQ(plan.lanes_used, 1u);
}

TEST(PlanExecution, BatchOfOneMatchesItsOwnCost) {
    StubLaneService service;
    Batch batch;
    batch.requests = {lane_request('a', 42)};
    for (const std::size_t lanes : {std::size_t{1}, std::size_t{8}}) {
        const ExecPlan plan = plan_execution(batch, service, lanes);
        EXPECT_EQ(plan.makespan, sim::Duration{42});
        EXPECT_EQ(plan.serial, sim::Duration{42});
        EXPECT_EQ(plan.conflict_classes, 1u);
        EXPECT_EQ(plan.conflict_stalls, 0u);
    }
}

TEST(PlanExecution, NoopsAreSkipped) {
    StubLaneService service;
    Batch batch;
    batch.requests = {lane_request('a', 10),
                      lane_request('z', 99, Request::kFlagNoop),
                      lane_request('b', 20)};
    const ExecPlan plan = plan_execution(batch, service, 4);
    EXPECT_EQ(plan.class_of[1], ExecPlan::kNoClass);
    EXPECT_EQ(plan.serial, sim::Duration{30});
    EXPECT_EQ(plan.makespan, sim::Duration{20});
    EXPECT_EQ(plan.conflict_classes, 2u);
}

TEST(Replica, LaneCountsProduceIdenticalRepliesAndState) {
    // Replies and checkpoints must be byte-identical for any lane count:
    // lanes change modeled time, never results. Exercised over all three
    // bundled services with a key pattern that mixes conflicting and
    // disjoint requests per batch.
    struct ServiceCase {
        const char* name;
        ServiceFactory factory;
        std::function<Bytes(std::uint64_t)> payload;
    };
    const std::vector<ServiceCase> cases = {
        {"echo", []() { return std::make_unique<apps::EchoService>(); },
         [](std::uint64_t i) {
             return apps::EchoService::make_write(i % 3, 48);
         }},
        {"kv", []() { return std::make_unique<apps::KvService>(); },
         [](std::uint64_t i) {
             return apps::KvService::make_put(
                 "k" + std::to_string(i % 5), "v" + std::to_string(i));
         }},
        {"mail", []() { return std::make_unique<apps::MailService>(); },
         [](std::uint64_t i) {
             return apps::MailService::make_append(
                 "box" + std::to_string(i % 4), "msg" + std::to_string(i));
         }},
    };

    for (const ServiceCase& test_case : cases) {
        std::vector<Bytes> checkpoints;
        std::vector<std::vector<std::pair<std::uint64_t, Bytes>>> replies;
        for (const std::size_t lanes :
             {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
            BareGroup group(1, /*batch_size_max=*/8,
                            /*batch_delay=*/sim::milliseconds(5), lanes,
                            test_case.factory);
            for (std::uint64_t i = 1; i <= 24; ++i) {
                group.replicas[0]->submit(
                    group.make_request(i, test_case.payload(i)));
            }
            group.sim.run_until(sim::seconds(3));
            for (const auto& replica : group.replicas) {
                EXPECT_EQ(replica->last_executed(),
                          group.replicas[0]->last_executed())
                    << test_case.name << " lanes=" << lanes;
            }
            std::vector<std::pair<std::uint64_t, Bytes>> run_replies;
            for (const Reply& reply : group.delivered) {
                if (reply.replica == 0) {
                    run_replies.emplace_back(reply.request_id.number,
                                             reply.result);
                }
            }
            std::sort(run_replies.begin(), run_replies.end());
            replies.push_back(std::move(run_replies));
            checkpoints.push_back(group.replicas[0]->service().checkpoint());
        }
        for (std::size_t i = 1; i < checkpoints.size(); ++i) {
            EXPECT_EQ(checkpoints[i], checkpoints[0]) << test_case.name;
            EXPECT_EQ(replies[i], replies[0]) << test_case.name;
        }
    }
}

TEST(Replica, SingleLaneKeepsSerialCostAndStats) {
    // lanes = 1 is the seed flow: no batch is run through the scheduler
    // and the charged CPU time matches a run without the knob at all.
    auto run = [](std::size_t lanes) {
        BareGroup group(1, /*batch_size_max=*/4,
                        /*batch_delay=*/sim::milliseconds(5), lanes,
                        []() { return std::make_unique<apps::KvService>(); });
        for (std::uint64_t i = 1; i <= 12; ++i) {
            group.replicas[0]->submit(group.make_request(
                i, apps::KvService::make_put("k" + std::to_string(i % 3),
                                             "value")));
        }
        group.sim.run_until(sim::seconds(3));
        sim::Duration busy = 0;
        for (const auto& node : group.nodes) busy += node->busy_time();
        return std::pair(busy, group.replicas[0]->exec_stats());
    };
    const auto [default_busy, default_stats] = run(1);
    EXPECT_EQ(default_stats.scheduled_batches, 0u);
    EXPECT_EQ(default_stats.charged_cost, sim::Duration{0});

    // A fully conflicting workload degenerates to one chain: even with
    // lanes, the makespan equals the serial sum, so total CPU matches the
    // serial run to the nanosecond.
    auto run_hot = [](std::size_t lanes) {
        BareGroup group(1, /*batch_size_max=*/4,
                        /*batch_delay=*/sim::milliseconds(5), lanes,
                        []() { return std::make_unique<apps::KvService>(); });
        for (std::uint64_t i = 1; i <= 12; ++i) {
            group.replicas[0]->submit(group.make_request(
                i, apps::KvService::make_put("hot", "value")));
        }
        group.sim.run_until(sim::seconds(3));
        sim::Duration busy = 0;
        for (const auto& node : group.nodes) busy += node->busy_time();
        return std::pair(busy, group.replicas[0]->exec_stats());
    };
    const auto [serial_busy, serial_stats] = run_hot(1);
    const auto [laned_busy, laned_stats] = run_hot(4);
    EXPECT_EQ(laned_busy, serial_busy);
    EXPECT_GT(laned_stats.scheduled_batches, 0u);
    EXPECT_EQ(laned_stats.charged_cost, laned_stats.serial_cost);
    EXPECT_GT(laned_stats.conflict_stalls, 0u);
    (void)serial_stats;
    (void)default_busy;
}

TEST(Replica, ParallelLanesReduceChargedCost) {
    // Disjoint keys at 4 lanes: the charged makespan must sit well below
    // the serial sum, and no member stalls behind another.
    BareGroup group(1, /*batch_size_max=*/8,
                    /*batch_delay=*/sim::milliseconds(5), 4,
                    []() { return std::make_unique<apps::KvService>(); });
    for (std::uint64_t i = 1; i <= 16; ++i) {
        group.replicas[0]->submit(group.make_request(
            i, apps::KvService::make_put("k" + std::to_string(i), "v")));
    }
    group.sim.run_until(sim::seconds(3));
    const auto& stats = group.replicas[0]->exec_stats();
    ASSERT_GT(stats.scheduled_batches, 0u);
    EXPECT_EQ(stats.conflict_stalls, 0u);
    EXPECT_LT(stats.charged_cost, stats.serial_cost);
    // Full batches of disjoint keys occupy every lane.
    EXPECT_GE(stats.lanes_used_sum, stats.scheduled_batches);
}

TEST(Replica, PrebatchedSubmitFormsOneBatch) {
    // A pre-formed burst (the Troxy's conflicted fast-read fallbacks)
    // enters ordering as ONE batch even though batch_delay is zero.
    BareGroup group(1, /*batch_size_max=*/8, /*batch_delay=*/0);
    std::vector<Request> burst;
    for (std::uint64_t i = 1; i <= 5; ++i) {
        burst.push_back(
            group.make_request(i, apps::EchoService::make_write(i, 32)));
    }
    group.replicas[0]->submit_prebatched(std::move(burst));
    group.sim.run_until(sim::seconds(2));

    for (const auto& replica : group.replicas) {
        EXPECT_EQ(replica->last_executed(), 1u);  // one batch = one seq
    }
    for (std::uint64_t i = 1; i <= 5; ++i) {
        EXPECT_EQ(group.replies_for(i), 3) << "request " << i;
    }
    EXPECT_EQ(group.replicas[0]->exec_stats().prebatched_submits, 1u);
    EXPECT_EQ(group.replicas[0]->exec_stats().batches_cut, 1u);
}

TEST(Replica, PrebatchedSubmitSplitsOnlyAtSizeCap) {
    // Bursts beyond batch_size_max split at the cap: 10 requests with a
    // cap of 4 become batches of 4+4+2.
    BareGroup group(1, /*batch_size_max=*/4, /*batch_delay=*/0);
    std::vector<Request> burst;
    for (std::uint64_t i = 1; i <= 10; ++i) {
        burst.push_back(
            group.make_request(i, apps::EchoService::make_write(i, 32)));
    }
    group.replicas[0]->submit_prebatched(std::move(burst));
    group.sim.run_until(sim::seconds(2));

    for (const auto& replica : group.replicas) {
        EXPECT_EQ(replica->last_executed(), 3u);
    }
    for (std::uint64_t i = 1; i <= 10; ++i) {
        EXPECT_EQ(group.replies_for(i), 3) << "request " << i;
    }
    EXPECT_EQ(group.replicas[0]->exec_stats().batches_cut, 3u);
}

}  // namespace
}  // namespace troxy::hybster

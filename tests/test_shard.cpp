// Sharded-Troxy tests: the ShardMap partition function, the FrontMap
// consistent-hash ring, shard-knob validation, the per-key lock table
// and the pipelined cross-shard commit engine, the multi-front failover
// path, chaos under shard-leader and front crashes, and the S=1
// deployment's golden replay.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <stdexcept>

#include "apps/echo_service.hpp"
#include "bench_support/chaos.hpp"
#include "bench_support/cluster.hpp"
#include "common/rng.hpp"
#include "common/serialize.hpp"
#include "crypto/sha256.hpp"
#include "hybster/messages.hpp"
#include "net/envelope.hpp"
#include "troxy/shard_front.hpp"
#include "troxy/shard_router.hpp"

namespace troxy {
namespace {

using apps::EchoService;
using troxy_core::CrossLockTable;
using troxy_core::FrontMap;
using troxy_core::ShardMap;

// ------------------------------------------------------------- ShardMap

TEST(ShardMap, DefaultIsSingleShard) {
    ShardMap map;
    EXPECT_EQ(map.shard_count(), 1);
    EXPECT_EQ(map.shard_of(""), 0);
    EXPECT_EQ(map.shard_of("anything"), 0);
}

TEST(ShardMap, BoundaryKeyBelongsToTheShardItStarts) {
    ShardMap map(std::vector<std::string>{"g", "p"});
    EXPECT_EQ(map.shard_count(), 3);
    EXPECT_EQ(map.shard_of("a"), 0);
    EXPECT_EQ(map.shard_of("f"), 0);
    // Half-open ranges: a key exactly equal to a boundary lands in the
    // shard that boundary starts, not the one it ends.
    EXPECT_EQ(map.shard_of("g"), 1);
    EXPECT_EQ(map.shard_of("o"), 1);
    EXPECT_EQ(map.shard_of("p"), 2);
    EXPECT_EQ(map.shard_of("z"), 2);
}

TEST(ShardMap, ShardsOfCollectsDistinctShardsAscending) {
    ShardMap map(std::vector<std::string>{"g", "p"});
    hybster::RequestInfo info;
    info.state_key = "q";
    info.extra_keys = {"a", "h", "b"};
    const troxy_core::ShardSet shards = map.shards_of(info);
    ASSERT_EQ(shards.size(), 3u);
    EXPECT_EQ(shards[0], 0);
    EXPECT_EQ(shards[1], 1);
    EXPECT_EQ(shards[2], 2);

    // Extra keys on the owner shard do not make the request cross-shard.
    hybster::RequestInfo local;
    local.state_key = "a";
    local.extra_keys = {"b", "c"};
    EXPECT_EQ(map.shards_of(local).size(), 1u);
}

TEST(ShardMap, ValidateRejectsMalformedBoundaries) {
    EXPECT_THROW(ShardMap(std::vector<std::string>{""}).validate(),
                 std::invalid_argument);
    EXPECT_THROW(ShardMap(std::vector<std::string>{"m", "m"}).validate(),
                 std::invalid_argument);
    EXPECT_THROW(ShardMap(std::vector<std::string>{"p", "g"}).validate(),
                 std::invalid_argument);
    EXPECT_NO_THROW(
        ShardMap(std::vector<std::string>{"g", "p"}).validate());
}

TEST(ShardMap, SplitEvenlyCoversAndBalances) {
    std::vector<std::string> keys;
    for (int k = 0; k < 16; ++k) keys.push_back("k" + std::to_string(k));
    const ShardMap map = ShardMap::split_evenly(keys, 4);
    EXPECT_EQ(map.shard_count(), 4);
    // Total coverage: every key lands somewhere, and each shard owns at
    // least one key of the universe.
    std::vector<int> population(4, 0);
    for (const std::string& key : keys) {
        const int shard = map.shard_of(key);
        ASSERT_GE(shard, 0);
        ASSERT_LT(shard, 4);
        ++population[static_cast<std::size_t>(shard)];
    }
    for (int shard = 0; shard < 4; ++shard) {
        EXPECT_GT(population[static_cast<std::size_t>(shard)], 0);
    }

    EXPECT_THROW(ShardMap::split_evenly({"a", "b"}, 3),
                 std::invalid_argument);
}

TEST(ShardMap, SplitEvenlyRejectsUniverseSmallerThanShards) {
    // Duplicates collapse before the population check: four entries but
    // only two distinct keys cannot populate three shards.
    EXPECT_THROW(ShardMap::split_evenly({"a", "a", "b", "b"}, 3),
                 std::invalid_argument);
    // Exactly as many distinct keys as shards is the floor.
    const ShardMap tight = ShardMap::split_evenly({"a", "a", "b"}, 2);
    EXPECT_EQ(tight.shard_count(), 2);
    EXPECT_EQ(tight.shard_of("a"), 0);
    EXPECT_EQ(tight.shard_of("b"), 1);
}

TEST(ShardMap, ValidateRejectsDuplicateBoundaries) {
    // Equal adjacent boundaries would leave shard 1's range empty.
    EXPECT_THROW(ShardMap(std::vector<std::string>{"g", "g"}).validate(),
                 std::invalid_argument);
    EXPECT_THROW(
        ShardMap(std::vector<std::string>{"a", "g", "g", "p"}).validate(),
        std::invalid_argument);
}

// ------------------------------------------------------------- FrontMap

TEST(FrontMap, SingleFrontOwnsEveryClient) {
    const FrontMap map(1);
    EXPECT_EQ(map.front_count(), 1);
    for (std::uint64_t client = 0; client < 64; ++client) {
        EXPECT_EQ(map.front_of(client), 0);
        const auto order = map.failover_order(client);
        ASSERT_EQ(order.size(), 1u);
        EXPECT_EQ(order[0], 0);
    }
}

TEST(FrontMap, AssignmentIsDeterministicAndCoversEveryFront) {
    const FrontMap map(4);
    const FrontMap replay(4);
    std::set<int> seen;
    for (std::uint64_t client = 1000; client < 1064; ++client) {
        const int front = map.front_of(client);
        ASSERT_GE(front, 0);
        ASSERT_LT(front, 4);
        // Pure function of (ring, client): a rebuilt map agrees.
        EXPECT_EQ(replay.front_of(client), front);
        seen.insert(front);
    }
    // 64 clients over a 4-front ring with 16 vnodes each: every front
    // serves someone (deterministic, so this can never flake).
    EXPECT_EQ(seen.size(), 4u);
}

TEST(FrontMap, FailoverOrderIsAPermutationStartingAtTheHomeFront) {
    const FrontMap map(4);
    for (std::uint64_t client = 0; client < 32; ++client) {
        const auto order = map.failover_order(client);
        ASSERT_EQ(order.size(), 4u);
        EXPECT_EQ(order[0], map.front_of(client));
        std::set<int> distinct(order.begin(), order.end());
        EXPECT_EQ(distinct.size(), 4u);
    }
}

TEST(FrontMap, RejectsInvalidCounts) {
    EXPECT_THROW(FrontMap(0), std::invalid_argument);
    EXPECT_THROW(FrontMap(-2), std::invalid_argument);
    EXPECT_THROW(FrontMap(2, 0), std::invalid_argument);
}

// -------------------------------------------------------- CrossLockTable

TEST(CrossLockTable, DisjointCommitsAllRunImmediately) {
    CrossLockTable table;
    EXPECT_TRUE(table.admit(0, {"a", "b"}).runnable);
    EXPECT_TRUE(table.admit(1, {"c"}).runnable);
    EXPECT_TRUE(table.admit(2, {"d", "e"}).runnable);
    EXPECT_EQ(table.size(), 3u);
    EXPECT_TRUE(table.release(1).empty());
    EXPECT_TRUE(table.release(0).empty());
    EXPECT_TRUE(table.release(2).empty());
    EXPECT_EQ(table.size(), 0u);
    EXPECT_EQ(table.keys_locked(), 0u);
}

TEST(CrossLockTable, ConflictingCommitsQueueBehindSharedKeysOnly) {
    CrossLockTable table;
    EXPECT_TRUE(table.admit(0, {"a", "b"}).runnable);
    const auto second = table.admit(1, {"b", "c"});
    EXPECT_FALSE(second.runnable);
    ASSERT_EQ(second.blocked_on.size(), 1u);  // only the shared key
    EXPECT_EQ(second.blocked_on[0], "b");
    // A third commit touching only the free key "d" sails through.
    EXPECT_TRUE(table.admit(2, {"d"}).runnable);
    // Releasing 0 surfaces 1, now head of both its queues.
    const auto woken = table.release(0);
    ASSERT_EQ(woken.size(), 1u);
    EXPECT_EQ(woken[0], 1u);
    EXPECT_TRUE(table.is_runnable(1));
    table.release(1);
    table.release(2);
    EXPECT_EQ(table.size(), 0u);
}

TEST(CrossLockTable, ChainedConflictsWakeInAdmissionOrder) {
    CrossLockTable table;
    EXPECT_TRUE(table.admit(0, {"a"}).runnable);
    EXPECT_FALSE(table.admit(1, {"a", "b"}).runnable);
    EXPECT_FALSE(table.admit(2, {"b"}).runnable);  // behind 1 on "b"
    // Releasing 0 wakes only 1 — 2 still waits behind 1's hold on "b".
    const auto woken = table.release(0);
    ASSERT_EQ(woken.size(), 1u);
    EXPECT_EQ(woken[0], 1u);
    const auto next = table.release(1);
    ASSERT_EQ(next.size(), 1u);
    EXPECT_EQ(next[0], 2u);
    table.release(2);
    EXPECT_EQ(table.size(), 0u);
}

// Random overlapping key sets with interleaved admissions and
// completions: the engine must drain completely (deadlock-freedom) and
// every key must see its commits complete in admission order.
TEST(CrossLockTable, StressRandomOverlapsDrainInPerKeyAdmissionOrder) {
    CrossLockTable table;
    Rng rng(20260809);
    const std::vector<std::string> universe = {"a", "b", "c", "d",
                                               "e", "f", "g", "h"};
    constexpr std::uint64_t kCommits = 400;

    std::map<std::string, std::vector<std::uint64_t>> admitted_per_key;
    std::map<std::string, std::vector<std::uint64_t>> completed_per_key;
    std::map<std::uint64_t, hybster::KeyList> keysets;
    std::set<std::uint64_t> ready;
    std::uint64_t next_id = 0;
    std::uint64_t completed = 0;

    while (completed < kCommits) {
        const bool admit_more =
            next_id < kCommits &&
            (ready.empty() || rng.next_below(2) == 0);
        if (admit_more) {
            hybster::KeyList keys;
            const std::uint64_t want = 1 + rng.next_below(3);
            while (keys.size() < want) {
                const std::string& key =
                    universe[rng.next_below(universe.size())];
                if (std::find(keys.begin(), keys.end(), key) ==
                    keys.end()) {
                    keys.push_back(key);
                }
            }
            std::sort(keys.begin(), keys.end());
            const std::uint64_t id = next_id++;
            for (const std::string& key : keys) {
                admitted_per_key[key].push_back(id);
            }
            keysets[id] = keys;
            const auto admission = table.admit(id, keys);
            // blocked_on is always a subset of the commit's own keys.
            for (const std::string_view key : admission.blocked_on) {
                EXPECT_NE(std::find(keys.begin(), keys.end(), key),
                          keys.end());
            }
            if (admission.runnable) ready.insert(id);
        } else {
            ASSERT_FALSE(ready.empty()) << "deadlock: " << completed
                                        << " of " << kCommits << " done";
            const std::uint64_t id = *ready.begin();
            ready.erase(ready.begin());
            EXPECT_TRUE(table.is_runnable(id));
            for (const std::string& key : keysets[id]) {
                completed_per_key[key].push_back(id);
            }
            for (const std::uint64_t successor : table.release(id)) {
                ready.insert(successor);
            }
            ++completed;
        }
    }
    EXPECT_EQ(table.size(), 0u);
    EXPECT_EQ(table.keys_locked(), 0u);
    // Per-key completion order equals per-key admission order: the FIFO
    // queues never reorder conflicting commits.
    EXPECT_EQ(completed_per_key, admitted_per_key);
}

// ----------------------------------------- multi-front knob validation

TEST(ShardCluster, RejectsInvalidFrontCounts) {
    auto make_params = [](int shards, int fronts) {
        bench::TroxyCluster::Params params;
        params.base.shard_count = shards;
        params.base.front_count = fronts;
        params.service = []() { return std::make_unique<EchoService>(); };
        params.classifier = [](ByteView request) {
            return EchoService().classify(request);
        };
        if (shards > 1) {
            params.map = ShardMap::split_evenly(
                {"k0", "k1", "k2", "k3"}, shards);
        }
        return params;
    };
    EXPECT_THROW(bench::TroxyCluster cluster(make_params(2, 0)),
                 std::invalid_argument);
    // Fronts only exist over a sharded deployment.
    EXPECT_THROW(bench::TroxyCluster cluster(make_params(1, 2)),
                 std::invalid_argument);
    bench::TroxyCluster two_fronts(make_params(2, 2));
    EXPECT_EQ(two_fronts.front_count(), 2);
    EXPECT_NE(two_fronts.front(), nullptr);
}

// ------------------------------------------------- cluster shard knobs

TEST(ShardCluster, RejectsMapShardCountMismatch) {
    bench::TroxyCluster::Params params;
    params.base.shard_count = 4;
    params.service = []() { return std::make_unique<EchoService>(); };
    params.classifier = [](ByteView request) {
        return EchoService().classify(request);
    };
    params.map = ShardMap(std::vector<std::string>{"m"});  // 2 shards
    EXPECT_THROW(bench::TroxyCluster cluster(std::move(params)),
                 std::invalid_argument);
}

// --------------------------------------------- cross-shard commit, e2e

TEST(ShardFront, CrossShardMultiwriteCommitsOnBothShards) {
    bench::TroxyCluster::Params params;
    params.base.seed = 3;
    params.base.shard_count = 2;
    params.service = []() { return std::make_unique<EchoService>(); };
    params.classifier = [](ByteView request) {
        return EchoService().classify(request);
    };
    // Sorted universe k0 k1 k2 k3 → boundary "k2": shard 0 owns
    // {k0, k1}, shard 1 owns {k2, k3}.
    params.map = ShardMap::split_evenly({"k0", "k1", "k2", "k3"}, 2);
    bench::TroxyCluster cluster(std::move(params));
    ASSERT_NE(cluster.front(), nullptr);
    EXPECT_EQ(cluster.front()->map().shard_of("k2"), 1);

    auto& client = cluster.add_client();
    Bytes ack;
    Bytes readback;
    Bytes boundary_ack;
    client.start([&]() {
        // Keys 0 and 2 live on different shards: the multiwrite must
        // take the ordered two-shard commit lane, and its ack must be
        // released only after both shards committed.
        client.send(EchoService::make_multi_write(0, 2, 64),
                    [&](Bytes reply) {
                        ack = std::move(reply);
                        // The partner key's commit is visible to a
                        // follow-up read routed to its owner shard.
                        client.send(
                            EchoService::make_read(2, 32, 128),
                            [&](Bytes read_reply) {
                                readback = std::move(read_reply);
                                // A key exactly on the boundary routes
                                // to the shard the boundary starts.
                                client.send(
                                    EchoService::make_write(2, 64),
                                    [&](Bytes write_reply) {
                                        boundary_ack =
                                            std::move(write_reply);
                                    });
                            });
                    });
    });
    cluster.simulator().run_until(sim::seconds(10));

    // Multiwrite ack: version 1 of key 0 on its owner shard.
    ASSERT_EQ(ack.size(), 10u);
    EXPECT_EQ(ack[0], 1);
    {
        Reader r(ByteView(ack.data() + 1, 8));
        EXPECT_EQ(r.u64(), 1u);
    }
    // Read of the partner key sees the multiwrite's version.
    EXPECT_EQ(readback, EchoService::expected_read_reply(2, 1, 128));
    // Boundary-key write executed on shard 1 bumped k2 to version 2.
    ASSERT_EQ(boundary_ack.size(), 10u);
    {
        Reader r(ByteView(boundary_ack.data() + 1, 8));
        EXPECT_EQ(r.u64(), 2u);
    }

    const auto status = cluster.front()->status();
    EXPECT_EQ(status.router_fanout, 2);
    EXPECT_EQ(status.cross_shard_commits, 1u);
    ASSERT_EQ(status.shards.size(), 2u);
    EXPECT_EQ(status.shards[0].cross_participations, 1u);
    EXPECT_EQ(status.shards[1].cross_participations, 1u);
    EXPECT_GE(status.shards[1].reads, 1u);
    EXPECT_GE(status.shards[1].writes, 2u);  // cross + boundary write
    EXPECT_EQ(status.requests, 3u);
    EXPECT_EQ(status.released, 3u);
}

// ---------------------------------------- pipelined commit engine, e2e

namespace pipelined {

bench::TroxyCluster::Params two_shard_params(
    std::size_t depth, std::uint64_t seed = 5, int fronts = 1) {
    bench::TroxyCluster::Params params;
    params.base.seed = seed;
    params.base.shard_count = 2;
    params.base.front_count = fronts;
    params.front.cross_pipeline_depth = depth;
    params.service = []() { return std::make_unique<EchoService>(); };
    params.classifier = [](ByteView request) {
        return EchoService().classify(request);
    };
    params.map = ShardMap::split_evenly({"k0", "k1", "k2", "k3"}, 2);
    return params;
}

std::uint64_t ack_version(const Bytes& ack) {
    EXPECT_EQ(ack.size(), 10u);
    EXPECT_EQ(ack[0], 1);
    Reader r(ByteView(ack.data() + 1, 8));
    return r.u64();
}

}  // namespace pipelined

// Two non-overlapping cross-shard commits pipelined on one connection:
// the lock table admits both immediately and the front dispatches them
// concurrently. With cross_pipeline_depth = 1 the same workload is
// forced through the serialized lane — never more than one in flight.
TEST(ShardFront, NonOverlappingCommitsPipelineAtDepthZero) {
    for (const std::size_t depth : {std::size_t{0}, std::size_t{1}}) {
        bench::TroxyCluster cluster(
            pipelined::two_shard_params(depth));
        auto& client = cluster.add_client();
        std::vector<Bytes> acks;
        client.start([&]() {
            // {k0,k2} and {k1,k3} share no key: both cross-shard, both
            // admitted runnable back-to-back.
            client.send(EchoService::make_multi_write(0, 2, 64),
                        [&](Bytes reply) { acks.push_back(std::move(reply)); });
            client.send(EchoService::make_multi_write(1, 3, 64),
                        [&](Bytes reply) { acks.push_back(std::move(reply)); });
        });
        cluster.simulator().run_until(sim::seconds(10));

        ASSERT_EQ(acks.size(), 2u) << "depth " << depth;
        EXPECT_EQ(pipelined::ack_version(acks[0]), 1u);
        EXPECT_EQ(pipelined::ack_version(acks[1]), 1u);

        const auto status = cluster.front()->status();
        EXPECT_EQ(status.cross_shard_commits, 2u);
        EXPECT_EQ(status.cross_lock_waits, 0u);
        EXPECT_TRUE(status.contended_keys.empty());
        if (depth == 0) {
            EXPECT_EQ(status.cross_inflight_peak, 2u)
                << "disjoint commits must overlap";
        } else {
            EXPECT_EQ(status.cross_inflight_peak, 1u)
                << "depth 1 must serialize";
        }
    }
}

// Three pipelined commits over the SAME key pair conflict pairwise: the
// lock table must run them one at a time, in admission order, and the
// per-key wait counters must attribute the queueing to k0 and k2.
TEST(ShardFront, ConflictingCommitsQueuePerKeyInAdmissionOrder) {
    bench::TroxyCluster cluster(pipelined::two_shard_params(0));
    auto& client = cluster.add_client();
    std::vector<Bytes> acks;
    client.start([&]() {
        for (int i = 0; i < 3; ++i) {
            client.send(EchoService::make_multi_write(0, 2, 64),
                        [&](Bytes reply) { acks.push_back(std::move(reply)); });
        }
    });
    cluster.simulator().run_until(sim::seconds(10));

    // Admission order = dispatch order: k0's version climbs 1, 2, 3 and
    // the in-order release window returns the acks in the same order.
    ASSERT_EQ(acks.size(), 3u);
    for (std::size_t i = 0; i < acks.size(); ++i) {
        EXPECT_EQ(pipelined::ack_version(acks[i]), i + 1);
    }

    const auto status = cluster.front()->status();
    EXPECT_EQ(status.cross_shard_commits, 3u);
    EXPECT_EQ(status.cross_inflight_peak, 1u)
        << "conflicting commits must not overlap";
    EXPECT_EQ(status.cross_lock_waits, 2u);
    EXPECT_GT(status.cross_lock_wait_ms_total, 0.0);
    EXPECT_GT(status.cross_p99_ms, 0.0);
    // Both keys of the shared lock set were contended, twice each.
    ASSERT_EQ(status.contended_keys.size(), 2u);
    for (const auto& [key, waits] : status.contended_keys) {
        EXPECT_TRUE(key == "k0" || key == "k2") << key;
        EXPECT_EQ(waits, 2u);
    }
}

// status() sorts the front's latency samples in place for its
// percentiles. Calls between, and right after, rounds of cross-shard
// commits must give the nearest-rank p50 and p99 of a separately sorted
// copy of the samples, and must keep every sample.
TEST(ShardFront, StatusPercentilesMatchAReferenceSort) {
    bench::TroxyCluster cluster(pipelined::two_shard_params(0));
    auto& client = cluster.add_client();
    const auto reference_ms = [](std::vector<sim::Duration> samples,
                                 double p) {
        std::sort(samples.begin(), samples.end());
        const double rank = p * static_cast<double>(samples.size() - 1);
        return sim::to_millis(samples[std::min(
            static_cast<std::size_t>(rank + 0.5), samples.size() - 1)]);
    };
    int replies = 0;
    client.start([] {});
    cluster.simulator().run_until(sim::milliseconds(100));
    ASSERT_TRUE(client.connected());
    for (int round = 1; round <= 3; ++round) {
        // Commits over overlapping and disjoint key pairs, so the
        // samples arrive out of order.
        for (int i = 0; i < 6; ++i) {
            client.send(EchoService::make_multi_write(i % 2, 2 + i % 3 / 2, 64),
                        [&](Bytes) { ++replies; });
        }
        cluster.simulator().run_until(cluster.simulator().now() +
                                      sim::seconds(1));
        ASSERT_EQ(replies, 6 * round);
        const std::vector<sim::Duration> samples =
            cluster.front()->cross_latencies();
        ASSERT_EQ(samples.size(), static_cast<std::size_t>(6 * round));
        for (int call = 0; call < 2; ++call) {
            const auto status = cluster.front()->status();
            EXPECT_EQ(status.cross_p50_ms, reference_ms(samples, 0.50))
                << "round " << round << ", call " << call;
            EXPECT_EQ(status.cross_p99_ms, reference_ms(samples, 0.99))
                << "round " << round << ", call " << call;
        }
        std::vector<sim::Duration> kept = cluster.front()->cross_latencies();
        std::vector<sim::Duration> expected = samples;
        std::sort(kept.begin(), kept.end());
        std::sort(expected.begin(), expected.end());
        EXPECT_EQ(kept, expected);
    }
}

// With at most one request outstanding, the pipelined engine and the
// serialized lane must replay byte-identically — same replies, same
// message and byte totals. This is the depth-1-equals-PR-9 argument
// reduced to an executable check.
TEST(ShardFront, DepthZeroAndDepthOneAreByteIdenticalWhenSequential) {
    auto drive = [](std::size_t depth) {
        bench::TroxyCluster cluster(
            pipelined::two_shard_params(depth, 17));
        auto& client = cluster.add_client();
        auto replies = std::make_shared<std::vector<Bytes>>();
        auto chain = std::make_shared<std::function<void(int)>>();
        // Weak self-capture: a strong one is a shared_ptr cycle (a leak);
        // the pending send callback keeps the chain alive.
        *chain = [&client, weak = std::weak_ptr(chain),
                  replies](int remaining) {
            if (remaining == 0) return;
            const auto chain = weak.lock();
            if (!chain) return;
            Bytes request;
            switch (remaining % 3) {
                case 0:
                    request = EchoService::make_multi_write(0, 2, 64);
                    break;
                case 1:
                    request = EchoService::make_read(2, 32, 96);
                    break;
                default:
                    request = EchoService::make_write(1, 64);
                    break;
            }
            client.send(std::move(request),
                        [chain, replies, remaining](Bytes reply) {
                            replies->push_back(std::move(reply));
                            (*chain)(remaining - 1);
                        });
        };
        client.start([chain]() { (*chain)(12); });
        cluster.simulator().run_until(sim::seconds(10));
        return std::make_tuple(*replies,
                               cluster.network().messages_sent(),
                               cluster.network().bytes_sent());
    };

    const auto pipelined_run = drive(0);
    const auto serialized_run = drive(1);
    EXPECT_EQ(std::get<0>(pipelined_run).size(), 12u);
    EXPECT_EQ(std::get<0>(pipelined_run), std::get<0>(serialized_run));
    EXPECT_EQ(std::get<1>(pipelined_run), std::get<1>(serialized_run));
    EXPECT_EQ(std::get<2>(pipelined_run), std::get<2>(serialized_run));
}

// Crash a client's home front mid-stream: the connection dies, the
// client's watchdog times out, and the consistent-hash failover list
// carries it to the surviving front, which serves the rest of the
// stream against the same shards.
TEST(ShardFront, ClientFailsOverToNextFrontWhenHomeFrontCrashes) {
    auto params = pipelined::two_shard_params(0, 7, /*fronts=*/2);
    params.client.connection_timeout = sim::milliseconds(200);
    params.client.backoff_cap = sim::milliseconds(1000);
    bench::TroxyCluster cluster(std::move(params));
    ASSERT_EQ(cluster.front_count(), 2);

    auto& client = cluster.add_client();
    std::vector<Bytes> acks;
    auto chain = std::make_shared<std::function<void(int)>>();
    *chain = [&client, &acks, weak = std::weak_ptr(chain)](int remaining) {
        if (remaining == 0) return;
        const auto chain = weak.lock();  // weak self-capture, no cycle
        if (!chain) return;
        client.send(EchoService::make_multi_write(0, 2, 64),
                    [&acks, chain, remaining](Bytes reply) {
                        acks.push_back(std::move(reply));
                        (*chain)(remaining - 1);
                    });
    };
    client.start([chain]() { (*chain)(20); });

    // Kill whichever front the client is actually talking to, while its
    // cross-shard commits are in flight (the stream drains in a few
    // milliseconds per commit, so crash early).
    int home = -1;
    cluster.simulator().after(sim::milliseconds(5), [&]() {
        for (int f = 0; f < cluster.front_count(); ++f) {
            if (cluster.front(f).node().id() == client.current_server()) {
                home = f;
            }
        }
        ASSERT_GE(home, 0);
        cluster.crash_front(home);
    });
    cluster.simulator().run_until(sim::seconds(30));

    ASSERT_GE(home, 0);
    EXPECT_TRUE(cluster.front(home).crashed());
    EXPECT_GE(client.failovers(), 1u);
    // Every request in the stream completed despite the crash, and the
    // versions the acks report climb strictly (at-least-once retry may
    // skip numbers, never repeat or regress).
    ASSERT_EQ(acks.size(), 20u);
    std::uint64_t last = 0;
    for (const Bytes& ack : acks) {
        const std::uint64_t version = pipelined::ack_version(ack);
        EXPECT_GT(version, last);
        last = version;
    }
    // The surviving front carried cross-shard commits after the crash.
    const auto survivor = cluster.front(1 - home).status();
    EXPECT_GE(survivor.cross_shard_commits, 1u);
}

// --------------------------------------------- chaos under shard faults

std::string report_summary(const bench::ChaosReport& report) {
    std::string out = "completed " + std::to_string(report.completed) +
                      "/" + std::to_string(report.issued) +
                      ", violations " + std::to_string(report.violations);
    for (const std::string& error : report.errors) out += "\n  " + error;
    out += "\nplan:\n" + report.plan_trace;
    return out;
}

// Crash shard 0's initial leader while serialized two-shard commits are
// in flight; the run must stay linearizable and complete once healed.
TEST(ShardChaos, ShardLeaderCrashDuringCrossShardCommits) {
    bench::ChaosOptions options;
    options.seed = 9;
    options.shards = 2;
    options.cross_shard_fraction = 0.4;
    options.clients = 3;
    options.requests_per_client = 30;
    // Host 0 is shard 0's replica 0 — the initial leader of the shard
    // that owns half the cross-shard commits.
    options.plan.crash(sim::milliseconds(1500), 0)
        .restart(sim::seconds(3), 0);

    const bench::ChaosReport report = bench::run_chaos(options);
    EXPECT_TRUE(report.ok()) << report_summary(report);
    EXPECT_GT(report.multiwrites_issued, 0u);
    EXPECT_GE(report.cross_shard_commits, 1u);
    EXPECT_EQ(report.router_fanout, 2);
    ASSERT_EQ(report.shards.size(), 2u);
    EXPECT_GT(report.shards[0].forwarded, 0u);
    EXPECT_GT(report.shards[1].forwarded, 0u);
    EXPECT_EQ(report.restarts, 1u);
}

// Clients hashed across two fronts; front 0 crashes mid cross-shard
// commit while shard 0's leader also crashes. The run must stay
// linearizable and drain completely: front-0 clients fail over to
// front 1, the shard heals by view change, and the restarted front
// rejoins the tier.
TEST(ShardChaos, FrontCrashWithTwoFrontsStaysLinearizable) {
    bench::ChaosOptions options;
    options.seed = 11;
    options.shards = 2;
    options.fronts = 2;
    options.cross_shard_fraction = 0.5;
    options.clients = 5;
    options.requests_per_client = 30;
    options.front_crash = 0;
    options.front_crash_at = sim::milliseconds(1800);
    options.front_restart_at = sim::seconds(4);
    options.plan.crash(sim::milliseconds(1500), 0)
        .restart(sim::seconds(3), 0);

    const bench::ChaosReport report = bench::run_chaos(options);
    EXPECT_TRUE(report.ok()) << report_summary(report);
    EXPECT_EQ(report.front_count, 2);
    EXPECT_EQ(report.front_restarts, 1u);
    EXPECT_GT(report.multiwrites_issued, 0u);
    EXPECT_GE(report.cross_shard_commits, 1u);
    EXPECT_EQ(report.restarts, 1u);
    ASSERT_EQ(report.shards.size(), 2u);
    EXPECT_GT(report.shards[0].forwarded, 0u);
    EXPECT_GT(report.shards[1].forwarded, 0u);
}

// ---------------------------------------------------------- S=1 golden

// The unsharded deployment is the S = 1 case of the one Troxy builder.
// Its node ids, replies, client-side wire bytes and network totals are
// pinned to values recorded from the former separate unsharded builder,
// so a builder that orders nodes, seeds or identities differently fails
// here.
TEST(ShardParity, SingleShardMatchesUnshardedGolden) {
    constexpr int kClients = 2;
    constexpr int kRequests = 12;

    bench::TroxyCluster::Params params;
    params.base.seed = 21;
    params.base.coalesce_wire = true;
    params.host.coalesce_wire = true;
    params.service = []() { return std::make_unique<EchoService>(); };
    params.classifier = [](ByteView request) {
        return EchoService().classify(request);
    };
    bench::TroxyCluster cluster(std::move(params));
    EXPECT_EQ(cluster.shards(), 1);
    EXPECT_EQ(cluster.front(), nullptr);
    EXPECT_EQ(cluster.config().replicas,
              (std::vector<sim::NodeId>{1, 2, 3}));

    std::vector<troxy_core::LegacyClient*> clients;
    for (int c = 0; c < kClients; ++c) {
        clients.push_back(&cluster.add_client());
    }
    // Hash every frame the clients (nodes 1000 and 1001) receive before
    // dispatching it. The records are sealed under keys agreed with the
    // replicas' seeded channel identities, so equal sizes are not enough.
    crypto::Sha256 wire;
    for (int c = 0; c < kClients; ++c) {
        troxy_core::LegacyClient* client = clients[
            static_cast<std::size_t>(c)];
        cluster.fabric().attach(
            1000 + c, [&wire, client](sim::NodeId from, Bytes frame) {
                wire.update(frame);
                const auto outer = net::unwrap_view(frame);
                if (!outer) return;
                std::vector<ByteView> inner;
                if (outer->first == net::Channel::Bundle) {
                    if (!net::unbundle(outer->second, inner)) inner.clear();
                } else {
                    inner.push_back(frame);
                }
                for (const ByteView message : inner) {
                    const auto unwrapped = net::unwrap_view(message);
                    if (unwrapped &&
                        unwrapped->first == net::Channel::Client) {
                        client->on_message(from, unwrapped->second);
                    }
                }
            });
    }
    auto replies = std::make_shared<std::vector<Bytes>>();
    for (int c = 0; c < kClients; ++c) {
        troxy_core::LegacyClient* client = clients[
            static_cast<std::size_t>(c)];
        auto chain = std::make_shared<std::function<void(int)>>();
        // Weak self-capture, as above.
        *chain = [client, c, weak = std::weak_ptr(chain),
                  replies](int remaining) {
            if (remaining == 0) return;
            const auto chain = weak.lock();
            if (!chain) return;
            const auto key = static_cast<std::uint64_t>(c);
            Bytes request = remaining % 2 == 0
                                ? EchoService::make_write(key, 64)
                                : EchoService::make_read(key, 32, 96);
            client->send(std::move(request),
                         [chain, replies, remaining](Bytes reply) {
                             replies->push_back(std::move(reply));
                             (*chain)(remaining - 1);
                         });
        };
        client->start([chain]() { (*chain)(kRequests); });
    }
    cluster.simulator().run_until(sim::seconds(5));

    // SHA-256 over the replies in arrival order, each length-prefixed.
    crypto::Sha256 hash;
    for (const Bytes& reply : *replies) {
        Writer length;
        length.u64(reply.size());
        hash.update(length.data());
        hash.update(reply);
    }
    const crypto::Sha256Digest digest = hash.finish();
    EXPECT_EQ(replies->size(), 24u);
    EXPECT_EQ(hex_encode(ByteView(digest.data(), digest.size())),
              "dea0a9b281f3313a291b28edb855ca10"
              "59ea2fada599669c7a39a538234aa351");
    const crypto::Sha256Digest wire_digest = wire.finish();
    EXPECT_EQ(hex_encode(ByteView(wire_digest.data(), wire_digest.size())),
              "fa663ef9597c810cc119a8ba713c666e"
              "e0c97e47e1c10dea3242eecf318330d9");
    EXPECT_EQ(cluster.network().messages_sent(), 244u);
    EXPECT_EQ(cluster.network().bytes_sent(), 34492u);
}

}  // namespace
}  // namespace troxy

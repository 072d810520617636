// Production-fleet recovery: Merkle-incremental state transfer, the
// certified TrinX handover, and proactive enclave recovery under load.
#include <gtest/gtest.h>

#include "apps/echo_service.hpp"
#include "bench_support/chaos.hpp"
#include "bench_support/cluster.hpp"
#include "hybster/snapshot.hpp"

namespace troxy {
namespace {

using apps::EchoService;

const sim::CostProfile kNative = sim::CostProfile::native();

// ------------------------------------------------------- Merkle chunking

TEST(MerkleSnapshot, DeterministicAndTamperEvident) {
    enclave::CostMeter meter;
    enclave::CostedCrypto crypto(kNative, meter);

    Bytes snapshot(1000, 0x42);
    const auto a = hybster::chunk_snapshot(crypto, snapshot, 64);
    const auto b = hybster::chunk_snapshot(crypto, snapshot, 64);
    EXPECT_EQ(a.root, b.root);
    EXPECT_EQ(a.manifest, b.manifest);
    EXPECT_EQ(a.chunks.size(), 16u);  // 15 full chunks + a 40-byte tail
    EXPECT_EQ(a.total_bytes(), snapshot.size());

    // Every chunk verifies against its manifest entry, and the manifest
    // folds back into the root.
    for (std::size_t i = 0; i < a.chunks.size(); ++i) {
        EXPECT_EQ(hybster::chunk_leaf_hash(crypto, *a.chunks[i]),
                  a.manifest[i]);
    }
    EXPECT_EQ(hybster::merkle_root(crypto, a.manifest), a.root);

    // One flipped byte changes exactly one leaf and therefore the root.
    snapshot[500] = 0x43;
    const auto c = hybster::chunk_snapshot(crypto, snapshot, 64);
    EXPECT_NE(c.root, a.root);
    int differing = 0;
    for (std::size_t i = 0; i < a.manifest.size(); ++i) {
        if (a.manifest[i] != c.manifest[i]) ++differing;
    }
    EXPECT_EQ(differing, 1);
}

TEST(MerkleSnapshot, DomainSeparationAndEdgeCases) {
    enclave::CostMeter meter;
    enclave::CostedCrypto crypto(kNative, meter);

    // Leaf hashing is domain-separated from plain SHA-256, so a chunk's
    // content can never be confused with tree structure.
    const Bytes chunk = to_bytes("some chunk");
    EXPECT_NE(hybster::chunk_leaf_hash(crypto, chunk),
              crypto::sha256(chunk));

    // An interior node over (l, l) differs from the leaf hash of the
    // 64-byte concatenation — the 0x00/0x01 prefixes keep levels apart.
    const auto l = hybster::chunk_leaf_hash(crypto, chunk);
    Bytes concat;
    concat.insert(concat.end(), l.begin(), l.end());
    concat.insert(concat.end(), l.begin(), l.end());
    EXPECT_NE(hybster::merkle_root(crypto, {l, l}),
              hybster::chunk_leaf_hash(crypto, concat));

    // Empty snapshot still yields one (empty) chunk and a root distinct
    // from the empty manifest's marker root.
    const auto empty = hybster::chunk_snapshot(crypto, {}, 64);
    EXPECT_EQ(empty.chunks.size(), 1u);
    EXPECT_TRUE(empty.chunks[0]->empty());
    EXPECT_NE(empty.root, hybster::merkle_root(crypto, {}));

    // A single-leaf manifest promotes the leaf to the root unchanged.
    EXPECT_EQ(hybster::merkle_root(crypto, {l}), l);
}

// -------------------------------------------------------- TrinX handover

TEST(TrinxHandover, CarriesCountersIntoFreshInstance) {
    enclave::CostMeter meter;
    enclave::CostedCrypto crypto(kNative, meter);
    const Bytes key = to_bytes("shared-group-key-0123456789abcdef");

    enclave::TrinX old_instance(3, key);
    old_instance.certify_continuing(crypto, 1, to_bytes("m1"));
    old_instance.certify_continuing(crypto, 1, to_bytes("m2"));
    old_instance.certify_continuing(crypto, 7, to_bytes("m3"));
    const Bytes blob = old_instance.export_handover(crypto);

    enclave::TrinX fresh(3, key);
    ASSERT_TRUE(fresh.import_handover(crypto, blob));
    EXPECT_EQ(fresh.current(1), 2u);
    EXPECT_EQ(fresh.current(7), 1u);

    // The recovered instance continues the sequence — it can never
    // re-certify value 1 or 2 of counter 1.
    const auto next = fresh.certify_continuing(crypto, 1, to_bytes("m4"));
    EXPECT_EQ(next.value, 3u);
}

TEST(TrinxHandover, RejectsTamperAndForeignRecords) {
    enclave::CostMeter meter;
    enclave::CostedCrypto crypto(kNative, meter);
    const Bytes key = to_bytes("shared-group-key-0123456789abcdef");

    enclave::TrinX source(0, key);
    source.certify_continuing(crypto, 1, to_bytes("m"));
    Bytes blob = source.export_handover(crypto);

    // Bit flip anywhere breaks the MAC.
    Bytes tampered = blob;
    tampered[5] ^= 0x01;
    enclave::TrinX sink(0, key);
    EXPECT_FALSE(sink.import_handover(crypto, tampered));

    // A record exported by replica 0 must not rebind replica 1's
    // counters — the handover is replica-bound.
    enclave::TrinX other(1, key);
    EXPECT_FALSE(other.import_handover(crypto, blob));

    // Truncated blobs are rejected without partial import.
    Bytes truncated(blob.begin(), blob.begin() + 4);
    EXPECT_FALSE(sink.import_handover(crypto, truncated));
    EXPECT_EQ(sink.current(1), 0u);

    // Valid import still works after the rejections.
    EXPECT_TRUE(sink.import_handover(crypto, blob));
    EXPECT_EQ(sink.current(1), 1u);
}

TEST(TrinxHandover, StaleImportNeverLowers) {
    enclave::CostMeter meter;
    enclave::CostedCrypto crypto(kNative, meter);
    const Bytes key = to_bytes("shared-group-key-0123456789abcdef");

    enclave::TrinX source(2, key);
    source.certify_continuing(crypto, 1, to_bytes("m1"));
    const Bytes old_blob = source.export_handover(crypto);  // counter 1 = 1
    source.certify_continuing(crypto, 1, to_bytes("m2"));

    enclave::TrinX sink(2, key);
    ASSERT_TRUE(sink.import_handover(crypto, source.export_handover(crypto)));
    EXPECT_EQ(sink.current(1), 2u);
    // Replaying the older record must not roll the counter back.
    ASSERT_TRUE(sink.import_handover(crypto, old_blob));
    EXPECT_EQ(sink.current(1), 2u);
}

// ------------------------------------------- cluster helpers for the e2e

bench::TroxyCluster::Params recovery_params(std::uint64_t seed) {
    bench::TroxyCluster::Params params;
    params.base.seed = seed;
    params.base.checkpoint_interval = 8;
    // Tiny chunks so the echo service's small snapshots span many chunks
    // and the incremental path has something to skip.
    params.base.state_chunk_size = 64;
    params.service = []() { return std::make_unique<EchoService>(); };
    params.classifier = [](ByteView request) {
        return EchoService().classify(request);
    };
    params.host.vote_timeout = sim::milliseconds(300);
    params.host.fast_read_timeout = sim::milliseconds(20);
    params.client.connection_timeout = sim::milliseconds(500);
    return params;
}

/// Issues `count` sequential writes spread over `keys` keys, starting
/// when the client connects; calls `done` after the last ack.
void drive_writes(bench::TroxyCluster& cluster,
                  troxy_core::LegacyClient& client, int count, int keys,
                  std::function<void()> done) {
    auto remaining = std::make_shared<int>(count);
    auto issue = std::make_shared<std::function<void()>>();
    // The stored function captures itself weakly (a strong self-capture
    // is a shared_ptr cycle, i.e. a leak); the async callbacks below keep
    // the chain alive with strong copies.
    *issue = [&cluster, &client, remaining, keys,
              weak = std::weak_ptr(issue), done = std::move(done)]() {
        if (*remaining == 0) {
            if (done) done();
            return;
        }
        const auto issue = weak.lock();
        if (!issue) return;
        const auto key = static_cast<std::uint64_t>(*remaining % keys);
        --*remaining;
        client.send(EchoService::make_write(key, 64),
                    [issue](Bytes) { (*issue)(); });
    };
    client.start([issue]() { (*issue)(); });
}

std::uint64_t total_chunks_skipped(bench::TroxyCluster& cluster) {
    std::uint64_t total = 0;
    for (int i = 0; i < cluster.n(); ++i) {
        total += cluster.host(i).replica().state_stats().chunks_skipped;
    }
    return total;
}

std::uint64_t total_bytes_sent(bench::TroxyCluster& cluster) {
    std::uint64_t total = 0;
    for (int i = 0; i < cluster.n(); ++i) {
        total += cluster.host(i).replica().state_stats().bytes_sent;
    }
    return total;
}

std::uint64_t total_bytes_full(bench::TroxyCluster& cluster) {
    std::uint64_t total = 0;
    for (int i = 0; i < cluster.n(); ++i) {
        total += cluster.host(i).replica().state_stats().bytes_full;
    }
    return total;
}

// A crashed replica whose durable chunk store survives rejoins with an
// incremental transfer: the responders skip the chunks it advertises and
// ship fewer bytes than a monolithic snapshot would cost.
TEST(Recovery, IncrementalRejoinSkipsHeldChunks) {
    bench::TroxyCluster cluster(recovery_params(901));
    auto& client = cluster.add_client(0);

    int phase = 0;
    // Phase 1: populate 32 keys (past several checkpoints), then crash
    // replica 2, write a small delta, restart it, write more so the
    // rejoiner both transfers state and resumes executing.
    drive_writes(cluster, client, 40, 32, [&]() {
        phase = 1;
        cluster.crash_host(2);
    });
    cluster.simulator().run_until(sim::seconds(5));
    ASSERT_EQ(phase, 1);

    bool delta_done = false;
    auto issue_delta = std::make_shared<std::function<void(int)>>();
    *issue_delta = [&](int left) {
        if (left == 0) {
            delta_done = true;
            return;
        }
        client.send(EchoService::make_write(0, 64), [&, left](Bytes) {
            (*issue_delta)(left - 1);
        });
    };
    (*issue_delta)(20);
    cluster.simulator().run_until(sim::seconds(8));
    ASSERT_TRUE(delta_done);

    cluster.restart_host(2);
    bool tail_done = false;
    auto issue_tail = std::make_shared<std::function<void(int)>>();
    *issue_tail = [&](int left) {
        if (left == 0) {
            tail_done = true;
            return;
        }
        client.send(EchoService::make_write(1, 64), [&, left](Bytes) {
            (*issue_tail)(left - 1);
        });
    };
    (*issue_tail)(20);
    cluster.simulator().run_until(sim::seconds(20));
    ASSERT_TRUE(tail_done);

    // The rejoiner caught up...
    auto& rejoiner = cluster.host(2).replica();
    EXPECT_GT(rejoiner.state_transfers(), 0u);
    EXPECT_GE(rejoiner.last_executed() + 16,
              cluster.host(0).replica().last_executed());
    // ...and the transfer was incremental: only the delta-dirtied chunks
    // travelled, everything else was either advertised (responder skips)
    // or reused straight from the durable store.
    const auto& stats = rejoiner.state_stats();
    EXPECT_GT(stats.chunks_received + stats.chunks_reused, 0u);
    EXPECT_GT(total_chunks_skipped(cluster) + stats.chunks_reused, 0u);
    EXPECT_LT(total_bytes_sent(cluster), total_bytes_full(cluster));
}

// Satellite: a loss window that swallows the first StateResponse chunks
// mid-stream. After the 250 ms retry the rejoiner re-requests with
// the chunks it already banked — the transfer resumes instead of
// restarting, and completes once the window heals.
TEST(Recovery, TransferResumesAfterDroppedChunks) {
    auto params = recovery_params(902);
    // One chunk per message: a loss window can eat part of the stream.
    params.base.state_chunks_per_message = 1;
    bench::TroxyCluster cluster(params);
    auto& client = cluster.add_client(0);

    int phase = 0;
    drive_writes(cluster, client, 48, 32, [&]() {
        phase = 1;
        cluster.crash_host(2);
    });
    cluster.simulator().run_until(sim::seconds(5));
    ASSERT_EQ(phase, 1);

    // Start from a provably empty store so the transfer must stream
    // every chunk (otherwise the surviving store masks the loss window).
    cluster.host(2).replica().clear_chunk_store();

    // Heavy loss towards the rejoiner while the transfer starts; heals
    // two seconds later, well past several retry periods.
    const sim::NodeId rejoiner_node = cluster.config().replicas[2];
    for (int i = 0; i < 2; ++i) {
        cluster.network().set_loss_bidirectional(
            cluster.config().replicas[static_cast<std::size_t>(i)],
            rejoiner_node, 0.8);
    }
    cluster.restart_host(2);
    cluster.simulator().after(sim::seconds(2), [&]() {
        for (int i = 0; i < 2; ++i) {
            cluster.network().set_loss_bidirectional(
                cluster.config().replicas[static_cast<std::size_t>(i)],
                rejoiner_node, 0.0);
        }
    });

    bool tail_done = false;
    auto issue_tail = std::make_shared<std::function<void(int)>>();
    *issue_tail = [&](int left) {
        if (left == 0) {
            tail_done = true;
            return;
        }
        client.send(EchoService::make_write(2, 64), [&, left](Bytes) {
            (*issue_tail)(left - 1);
        });
    };
    (*issue_tail)(24);
    cluster.simulator().run_until(sim::seconds(25));
    ASSERT_TRUE(tail_done);

    auto& rejoiner = cluster.host(2).replica();
    EXPECT_GT(rejoiner.state_transfers(), 0u);
    EXPECT_GE(rejoiner.state_stats().transfers_resumed, 1u);
    EXPECT_GT(rejoiner.state_stats().chunks_received, 0u);
    EXPECT_GE(rejoiner.last_executed() + 16,
              cluster.host(0).replica().last_executed());
}

// Satellite: the replica serving the chunk stream crashes mid-transfer.
// The retry re-targets the surviving responder and the rejoin completes.
TEST(Recovery, TransferSurvivesResponderCrash) {
    auto params = recovery_params(903);
    params.base.state_chunks_per_message = 1;
    bench::TroxyCluster cluster(params);
    auto& client = cluster.add_client(1);

    int phase = 0;
    drive_writes(cluster, client, 48, 32, [&]() {
        phase = 1;
        cluster.crash_host(2);
    });
    cluster.simulator().run_until(sim::seconds(5));
    ASSERT_EQ(phase, 1);

    cluster.host(2).replica().clear_chunk_store();
    cluster.restart_host(2);
    // Take responder 0 down just as the stream starts, bring it back
    // after the rejoin should have completed via replica 1.
    cluster.simulator().after(sim::milliseconds(5),
                              [&]() { cluster.crash_host(0); });
    cluster.simulator().after(sim::seconds(6),
                              [&]() { cluster.restart_host(0); });

    bool tail_done = false;
    auto issue_tail = std::make_shared<std::function<void(int)>>();
    *issue_tail = [&](int left) {
        if (left == 0) {
            tail_done = true;
            return;
        }
        client.send(EchoService::make_write(3, 64), [&, left](Bytes) {
            (*issue_tail)(left - 1);
        });
    };
    (*issue_tail)(24);
    cluster.simulator().run_until(sim::seconds(25));
    ASSERT_TRUE(tail_done);

    auto& rejoiner = cluster.host(2).replica();
    EXPECT_GT(rejoiner.state_transfers(), 0u);
    EXPECT_GE(rejoiner.last_executed() + 16,
              cluster.host(1).replica().last_executed());
}

// ----------------------------------------------- proactive enclave swap

// Explicit recovery under client load: the host buffers frames across
// the downtime window, the fresh enclave passes attestation, rebinds the
// counters, and the buffered requests still complete.
TEST(Recovery, EnclaveRecoveryUnderLoadIsTransparent) {
    auto params = recovery_params(904);
    bench::TroxyCluster cluster(params);
    auto& client = cluster.add_client(1);

    bool warm = false;
    drive_writes(cluster, client, 8, 4, [&]() { warm = true; });
    cluster.simulator().run_until(sim::seconds(3));
    ASSERT_TRUE(warm);

    // Kick the recovery, then immediately keep writing through the
    // contact replica whose enclave is down.
    ASSERT_TRUE(cluster.recover_enclave(1));
    EXPECT_FALSE(cluster.recover_enclave(1));  // one in flight already

    bool tail_done = false;
    auto issue_tail = std::make_shared<std::function<void(int)>>();
    *issue_tail = [&](int left) {
        if (left == 0) {
            tail_done = true;
            return;
        }
        client.send(EchoService::make_write(1, 64), [&, left](Bytes) {
            (*issue_tail)(left - 1);
        });
    };
    (*issue_tail)(12);
    cluster.simulator().run_until(sim::seconds(15));

    EXPECT_TRUE(tail_done);
    EXPECT_EQ(cluster.host(1).enclave_recoveries(), 1u);
    // Ordering kept working across the swap: the certified handover
    // carried the trusted counters into the fresh instance (a reset
    // would have broken the continuing-certificate chain).
    EXPECT_GT(cluster.host(1).replica().last_executed(), 8u);
}

// The host's status spans an enclave swap: every cumulative counter the
// retired instance reported is carried over into the host's totals.
TEST(Recovery, EnclaveRecoveryKeepsEveryCounter) {
    auto params = recovery_params(907);
    params.host.voter_batch_max = 4;
    params.host.fastread_batch_max = 4;
    params.host.batch_reply_auth = true;
    bench::TroxyCluster cluster(params);
    auto& client = cluster.add_client(0);

    // Writes, then reads of the written key (the first is ordered and
    // warms the caches, the rest are fast reads), then a write that
    // invalidates it.
    int done = 0;
    auto steps = std::make_shared<std::vector<Bytes>>();
    steps->push_back(EchoService::make_write(1, 64));
    for (int i = 0; i < 6; ++i) {
        steps->push_back(EchoService::make_read(1, 32, 64));
    }
    steps->push_back(EchoService::make_write(1, 64));
    auto issue = std::make_shared<std::function<void()>>();
    *issue = [&, steps, weak = std::weak_ptr(issue)]() {
        const auto self = weak.lock();
        if (!self || done == static_cast<int>(steps->size())) return;
        client.send((*steps)[static_cast<std::size_t>(done)],
                    [&, self](Bytes) {
                        ++done;
                        (*self)();
                    });
    };
    client.start([issue]() { (*issue)(); });
    cluster.simulator().run_until(sim::seconds(3));
    ASSERT_EQ(done, static_cast<int>(steps->size()));

    using Status = troxy_core::TroxyEnclave::Status;
    const std::vector<std::uint64_t Status::*> counters = {
        &Status::fast_read_hits,
        &Status::fast_read_misses,
        &Status::fast_read_conflicts,
        &Status::ordered_requests,
        &Status::completed_votes,
        &Status::rejected_replies,
        &Status::reply_batches,
        &Status::batched_replies,
        &Status::reply_auth_batches,
        &Status::batch_authenticated_replies,
        &Status::cache_query_batches,
        &Status::batched_cache_queries,
        &Status::cache_response_batches,
        &Status::batched_cache_responses,
        &Status::cache_invalidations,
        &Status::invalidations_saved,
        &Status::invalidations_saved_cross_batch,
        &Status::fallback_prebatches,
        &Status::prebatched_fallbacks,
        &Status::mode_switches,
        &Status::enclave_transitions};
    const Status before = cluster.host(0).status().troxy;
    EXPECT_GT(before.fast_read_hits, 0u);
    EXPECT_GT(before.reply_auth_batches, 0u);
    EXPECT_GT(before.cache_invalidations, 0u);

    ASSERT_TRUE(cluster.recover_enclave(0));
    cluster.simulator().run_until(sim::seconds(4));
    ASSERT_EQ(cluster.host(0).enclave_recoveries(), 1u);
    const Status after = cluster.host(0).status().troxy;
    // No traffic reached the fresh instance, so the totals are exactly
    // the retired instance's counters.
    for (std::size_t i = 0; i < counters.size(); ++i) {
        EXPECT_EQ(after.*counters[i], before.*counters[i]) << "counter " << i;
    }
    EXPECT_EQ(after.cache_entries, 0u);  // gauges are the fresh instance's

    // Counters that stayed zero above are covered here: add_counters adds
    // every one of them.
    Status distinct;
    for (std::size_t i = 0; i < counters.size(); ++i) {
        distinct.*counters[i] = i + 1;
    }
    Status sum = distinct;
    sum.add_counters(distinct);
    for (std::size_t i = 0; i < counters.size(); ++i) {
        EXPECT_EQ(sum.*counters[i], 2 * (i + 1)) << "counter " << i;
    }
}

// Periodic schedule: every enclave in the fleet recovers at least once,
// staggered, while a client keeps completing requests.
TEST(Recovery, PeriodicScheduleRecoversWholeFleet) {
    auto params = recovery_params(905);
    params.host.enclave_recovery_period = sim::milliseconds(900);
    bench::TroxyCluster cluster(params);
    auto& client = cluster.add_client(0);

    bool done = false;
    drive_writes(cluster, client, 60, 8, [&]() { done = true; });
    cluster.simulator().run_until(sim::seconds(12));

    EXPECT_TRUE(done);
    for (int i = 0; i < cluster.n(); ++i) {
        EXPECT_GE(cluster.host(i).enclave_recoveries(), 1u)
            << "enclave " << i << " never recovered";
    }
}

// ------------------------------------------------- rolling chaos smoke

// The tentpole acceptance scenario in miniature: every replica host is
// crash/restarted in sequence and every enclave recovered, under an open
// client loop, with zero linearizability violations and full liveness.
TEST(Recovery, RollingRestartChaosStaysLinearizable) {
    bench::ChaosOptions options;
    options.seed = 906;
    options.clients = 3;
    options.requests_per_client = 30;
    options.rolling_restart = true;
    options.enclave_recovery_period = sim::seconds(3);
    options.fault_start = sim::seconds(1);
    options.heal_by = sim::seconds(7);
    options.horizon = sim::seconds(30);
    options.state_chunk_size = 64;

    const bench::ChaosReport report = bench::run_chaos(options);
    EXPECT_TRUE(report.ok()) << report.plan_trace
                             << (report.errors.empty()
                                     ? ""
                                     : "\nfirst: " + report.errors[0]);
    EXPECT_EQ(report.restarts, 3u);       // every host restarted once
    EXPECT_GE(report.enclave_recoveries, 3u);  // every enclave recovered
    EXPECT_EQ(report.violations, 0u);
}

}  // namespace
}  // namespace troxy

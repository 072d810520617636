#include <gtest/gtest.h>

#include <functional>
#include <utility>
#include <vector>

#include "closure_sends.hpp"
#include "common/rng.hpp"
#include "sim/cost.hpp"
#include "sim/fault_plan.hpp"
#include "sim/lanes.hpp"
#include "sim/network.hpp"
#include "sim/node.hpp"
#include "sim/pool.hpp"
#include "sim/simulator.hpp"

namespace troxy::sim {
namespace {

TEST(Simulator, EventsRunInTimeOrder) {
    Simulator sim;
    std::vector<int> order;
    sim.after(30, [&] { order.push_back(3); });
    sim.after(10, [&] { order.push_back(1); });
    sim.after(20, [&] { order.push_back(2); });
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(sim.now(), 30u);
}

TEST(Simulator, TiesBreakFifo) {
    Simulator sim;
    std::vector<int> order;
    sim.after(5, [&] { order.push_back(1); });
    sim.after(5, [&] { order.push_back(2); });
    sim.after(5, [&] { order.push_back(3); });
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, HandlersCanScheduleMore) {
    Simulator sim;
    int count = 0;
    std::function<void()> tick = [&]() {
        if (++count < 5) sim.after(10, tick);
    };
    sim.after(10, tick);
    sim.run();
    EXPECT_EQ(count, 5);
    EXPECT_EQ(sim.now(), 50u);
}

TEST(Simulator, RunUntilStopsAtBoundary) {
    Simulator sim;
    int executed = 0;
    sim.after(10, [&] { ++executed; });
    sim.after(20, [&] { ++executed; });
    sim.after(30, [&] { ++executed; });
    sim.run_until(20);
    EXPECT_EQ(executed, 2);
    EXPECT_EQ(sim.now(), 20u);
    EXPECT_EQ(sim.pending_events(), 1u);
}

TEST(Node, SingleCoreSerializesWork) {
    Simulator sim;
    Node node(sim, 1, "n", 1);
    std::vector<SimTime> completions;
    node.exec(100, [&] { completions.push_back(sim.now()); });
    node.exec(100, [&] { completions.push_back(sim.now()); });
    sim.run();
    ASSERT_EQ(completions.size(), 2u);
    EXPECT_EQ(completions[0], 100u);
    EXPECT_EQ(completions[1], 200u);  // queued behind the first
}

TEST(Node, MultiCoreRunsInParallel) {
    Simulator sim;
    Node node(sim, 1, "n", 2);
    std::vector<SimTime> completions;
    node.exec(100, [&] { completions.push_back(sim.now()); });
    node.exec(100, [&] { completions.push_back(sim.now()); });
    node.exec(100, [&] { completions.push_back(sim.now()); });
    sim.run();
    ASSERT_EQ(completions.size(), 3u);
    EXPECT_EQ(completions[0], 100u);
    EXPECT_EQ(completions[1], 100u);  // second core
    EXPECT_EQ(completions[2], 200u);  // queued
}

TEST(Node, BusyTimeAccumulates) {
    Simulator sim;
    Node node(sim, 1, "n", 4);
    node.exec(50, [] {});
    node.charge(70);
    sim.run();
    EXPECT_EQ(node.busy_time(), 120u);
}

TEST(Network, DeliversAfterLatency) {
    Simulator sim;
    Network network(sim);
    test_support::ClosureSender sender(network);
    LinkSpec spec;
    spec.latency = LatencyModel::constant(milliseconds(5));
    spec.bandwidth_bits_per_sec = 1e12;  // effectively no serialization
    network.set_default_link(spec);

    SimTime delivered = 0;
    sender.send(1, 2, 10, [&] { delivered = sim.now(); });
    sim.run();
    EXPECT_GE(delivered, milliseconds(5));
    EXPECT_LT(delivered, milliseconds(6));
}

TEST(Network, SerializationDelayScalesWithSize) {
    Simulator sim;
    Network network(sim);
    test_support::ClosureSender sender(network);
    LinkSpec spec;
    spec.latency = LatencyModel::constant(0);
    spec.bandwidth_bits_per_sec = 1e9;  // 1 Gbps
    network.set_default_link(spec);

    SimTime small = 0, large = 0;
    sender.send(1, 2, 100, [&] { small = sim.now(); });
    sender.send(3, 4, 1'000'000, [&] { large = sim.now(); });
    sim.run();
    // 1 MB at 1 Gbps ≈ 8 ms.
    EXPECT_GT(large, milliseconds(7));
    EXPECT_LT(small, milliseconds(1));
}

TEST(Network, FifoPerDirectedPair) {
    Simulator sim(5);
    Network network(sim);
    test_support::ClosureSender sender(network);
    LinkSpec spec;
    // High jitter would reorder without the FIFO guarantee.
    spec.latency = LatencyModel::normal(milliseconds(10), milliseconds(5),
                                        milliseconds(1));
    network.set_default_link(spec);

    std::vector<int> order;
    for (int i = 0; i < 20; ++i) {
        sender.send(1, 2, 10, [&order, i] { order.push_back(i); });
    }
    sim.run();
    for (int i = 0; i < 20; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Network, WanLatencyDistribution) {
    Simulator sim(17);
    Network network(sim);
    test_support::ClosureSender sender(network);
    network.set_default_link(LinkSpec::wan());

    std::vector<SimTime> deliveries;
    // Use distinct sender nodes so FIFO does not couple the samples.
    for (std::uint32_t i = 0; i < 400; ++i) {
        sender.send(100 + i, 2, 10,
                     [&deliveries, &sim] { deliveries.push_back(sim.now()); });
    }
    sim.run();
    double sum = 0;
    for (const SimTime t : deliveries) sum += to_millis(t);
    const double mean = sum / static_cast<double>(deliveries.size());
    EXPECT_NEAR(mean, 100.0, 5.0);  // 100 ± 20 ms distribution
}

TEST(Network, SharedNicSerializesMachineTraffic) {
    Simulator sim;
    Network network(sim);
    test_support::ClosureSender sender(network);
    LinkSpec spec;
    spec.latency = LatencyModel::constant(0);
    network.set_default_link(spec);
    // Both senders on one machine with 1 Gbps.
    network.set_nic_group(1, 7, 1e9);
    network.set_nic_group(2, 7, 1e9);

    SimTime first = 0, second = 0;
    sender.send(1, 10, 1'000'000, [&] { first = sim.now(); });
    sender.send(2, 11, 1'000'000, [&] { second = sim.now(); });
    sim.run();
    // Each 1 MB transfer needs ~8 ms; sharing the NIC serializes them.
    EXPECT_GT(second, milliseconds(15));
}

TEST(Network, LossDropsProbabilisticallyAndCounts) {
    Simulator sim(9);
    Network network(sim);
    test_support::ClosureSender sender(network);
    LinkSpec spec;
    spec.latency = LatencyModel::constant(0);
    network.set_default_link(spec);

    network.set_loss_bidirectional(1, 2, 1.0);
    int delivered = 0;
    for (int i = 0; i < 10; ++i) {
        sender.send(1, 2, 100, [&] { ++delivered; });
    }
    sim.run();
    EXPECT_EQ(delivered, 0);
    EXPECT_EQ(network.drops().by_loss, 10u);
    EXPECT_EQ(network.drops().bytes, 1000u);
    // Sends are counted even when the fault layer drops them, so replay
    // traces line up regardless of where a message dies.
    EXPECT_EQ(network.messages_sent(), 10u);

    network.set_loss_bidirectional(1, 2, 0.0);  // clears the window
    sender.send(1, 2, 100, [&] { ++delivered; });
    sim.run();
    EXPECT_EQ(delivered, 1);
}

TEST(Network, LinkDownDropsUntilHealed) {
    Simulator sim;
    Network network(sim);
    test_support::ClosureSender sender(network);
    LinkSpec spec;
    spec.latency = LatencyModel::constant(0);
    network.set_default_link(spec);

    network.fail_link_bidirectional(1, 2);
    EXPECT_FALSE(network.reachable(1, 2));
    EXPECT_FALSE(network.reachable(2, 1));
    EXPECT_TRUE(network.reachable(1, 3));

    int delivered = 0;
    sender.send(1, 2, 50, [&] { ++delivered; });
    sender.send(2, 1, 50, [&] { ++delivered; });
    sim.run();
    EXPECT_EQ(delivered, 0);
    EXPECT_EQ(network.drops().by_link_down, 2u);

    network.heal_link_bidirectional(1, 2);
    EXPECT_TRUE(network.reachable(1, 2));
    sender.send(1, 2, 50, [&] { ++delivered; });
    sim.run();
    EXPECT_EQ(delivered, 1);
}

TEST(Network, PartitionCutsAcrossGroupsOnly) {
    Simulator sim;
    Network network(sim);
    test_support::ClosureSender sender(network);
    LinkSpec spec;
    spec.latency = LatencyModel::constant(0);
    network.set_default_link(spec);

    network.partition("split", {{1, 2}, {3}});
    EXPECT_TRUE(network.reachable(1, 2));    // same group
    EXPECT_FALSE(network.reachable(1, 3));   // across groups
    EXPECT_FALSE(network.reachable(3, 2));
    EXPECT_TRUE(network.reachable(1, 100));  // unlisted nodes unaffected
    EXPECT_TRUE(network.reachable(100, 3));

    int delivered = 0;
    sender.send(1, 3, 10, [&] { ++delivered; });
    sender.send(1, 2, 10, [&] { ++delivered; });
    sim.run();
    EXPECT_EQ(delivered, 1);
    EXPECT_EQ(network.drops().by_partition, 1u);

    network.heal_partition("split");
    EXPECT_TRUE(network.reachable(1, 3));
    sender.send(1, 3, 10, [&] { ++delivered; });
    sim.run();
    EXPECT_EQ(delivered, 2);
}

TEST(FaultPlan, RandomPlanIsSeedDeterministic) {
    FaultPlan::RandomOptions options;
    options.start = seconds(1);
    options.heal_by = seconds(8);
    options.hosts = 3;
    options.nodes = {1, 2, 3};

    Rng a(77), b(77), c(78);
    const FaultPlan plan_a = FaultPlan::random(a, options);
    const FaultPlan plan_b = FaultPlan::random(b, options);
    const FaultPlan plan_c = FaultPlan::random(c, options);
    EXPECT_EQ(plan_a.describe(), plan_b.describe());
    EXPECT_NE(plan_a.describe(), plan_c.describe());

    // Every fault is healed by heal_by: crashes restarted, partitions and
    // links healed, loss windows cleared.
    for (const FaultEvent& event : plan_a.events()) {
        EXPECT_LE(event.at, seconds(8)) << event.describe();
    }
}

TEST(CostProfile, JavaSlowerThanNative) {
    const CostProfile java = CostProfile::java();
    const CostProfile native = CostProfile::native();
    EXPECT_GT(java.mac(4096), native.mac(4096));
    EXPECT_GT(java.aead(4096), native.aead(4096));
    EXPECT_GT(java.hash(4096), native.hash(4096));
    // The gap must widen with payload size (per-byte dominance).
    const double small_ratio = static_cast<double>(java.mac(64)) /
                               static_cast<double>(native.mac(64));
    const double large_ratio = static_cast<double>(java.mac(8192)) /
                               static_cast<double>(native.mac(8192));
    EXPECT_GT(large_ratio, small_ratio * 0.9);
}

TEST(EnclaveCosts, SgxProfileHasTransitions) {
    const EnclaveCosts sgx = EnclaveCosts::sgx_v1();
    EXPECT_GT(sgx.ecall_transition_ns, 0.0);
    EXPECT_GT(sgx.epc_limit_bytes, 0u);
    const EnclaveCosts free = EnclaveCosts::free();
    EXPECT_EQ(free.ecall_transition_ns, 0.0);
}

TEST(LaneSchedule, GreedyPicksEarliestFreeLaneLowestIndexOnTies) {
    LaneSchedule schedule(3);
    EXPECT_EQ(schedule.add(Duration{10}), 0u);  // all idle → lane 0
    EXPECT_EQ(schedule.add(Duration{5}), 1u);   // next idle lane
    EXPECT_EQ(schedule.add(Duration{5}), 2u);
    // Lanes 1 and 2 are tied at 5; the lower index wins.
    EXPECT_EQ(schedule.add(Duration{1}), 1u);
    // Lane 2 (at 5) is now the earliest-free.
    EXPECT_EQ(schedule.add(Duration{1}), 2u);
    EXPECT_EQ(schedule.items(), 5u);
}

TEST(LaneSchedule, MakespanIsBusiestLane) {
    LaneSchedule schedule(2);
    schedule.add(Duration{30});  // lane 0
    schedule.add(Duration{10});  // lane 1
    schedule.add(Duration{10});  // lane 1 again (20 < 30)
    EXPECT_EQ(schedule.makespan(), Duration{30});
    EXPECT_EQ(schedule.serial_sum(), Duration{50});
    EXPECT_EQ(schedule.lanes_used(), 2u);
}

TEST(LaneSchedule, SingleLaneMakespanEqualsSerialSum) {
    LaneSchedule schedule(1);
    for (int i = 1; i <= 7; ++i) {
        EXPECT_EQ(schedule.add(Duration{static_cast<Duration>(i)}), 0u);
    }
    EXPECT_EQ(schedule.makespan(), schedule.serial_sum());
    EXPECT_EQ(schedule.serial_sum(), Duration{28});
    EXPECT_EQ(schedule.lanes_used(), 1u);
}

TEST(LaneSchedule, AddToLanePinsConflictChains) {
    LaneSchedule schedule(4);
    const std::size_t lane = schedule.add(Duration{10});
    schedule.add_to_lane(lane, Duration{10});  // same chain stays put
    schedule.add_to_lane(lane, Duration{10});
    EXPECT_EQ(schedule.makespan(), Duration{30});
    EXPECT_EQ(schedule.lanes_used(), 1u);
    // Independent work still lands elsewhere.
    EXPECT_NE(schedule.add(Duration{5}), lane);
}

TEST(LaneSchedule, ZeroLanesClampsToOne) {
    LaneSchedule schedule(0);
    EXPECT_EQ(schedule.lanes(), 1u);
    schedule.add(Duration{3});
    EXPECT_EQ(schedule.makespan(), Duration{3});
}

TEST(LatencyModel, ConstantAndNormal) {
    Rng rng(3);
    const LatencyModel constant = LatencyModel::constant(milliseconds(10));
    EXPECT_EQ(constant.sample(rng), milliseconds(10));

    const LatencyModel normal =
        LatencyModel::normal(milliseconds(100), milliseconds(20),
                             milliseconds(50));
    for (int i = 0; i < 1000; ++i) {
        EXPECT_GE(normal.sample(rng), milliseconds(50));  // floor holds
    }
}


// ------------------------------------------------------ scheduler engine

// Differential storm: the calendar queue must replay every seed
// identically to the binary-heap reference engine — same executed order,
// same (time, id) trace — across supercritical same-time bursts, far
// timers beyond the wheel horizon, and run_until windows (the mix that
// exercises rebuilds, far-list migration and the in-bucket tie-break).
TEST(Simulator, CalendarMatchesBinaryHeapOnStormSeeds) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        std::vector<std::pair<SimTime, int>> traces[2];
        std::uint64_t executed[2] = {0, 0};
        for (int which = 0; which < 2; ++which) {
            const auto engine = which == 0 ? Simulator::Scheduler::BinaryHeap
                                           : Simulator::Scheduler::Calendar;
            Simulator sim(seed, engine);
            auto& trace = traces[which];
            Rng gen(seed * 77 + 1);
            int next_id = 0;
            long budget = 120000;
            auto schedule_one = [&](auto&& self) -> void {
                if (budget-- <= 0) return;
                const int id = next_id++;
                SimTime when;
                switch (gen.next() % 16) {
                    case 0:
                    case 1:
                    case 2: when = sim.now(); break;  // same-instant burst
                    case 3:
                    case 4: when = sim.now() + gen.next() % 5; break;
                    case 5:
                    case 6:
                    case 7:
                        when = sim.now() + 1000 + gen.next() % 5000;
                        break;
                    case 8:
                    case 9:
                        when = sim.now() + 100000 + gen.next() % 100000;
                        break;
                    case 10:  // far beyond any wheel horizon
                        when = sim.now() + 2000000000ULL;
                        break;
                    case 11:
                        when = sim.now() + 50000000 + gen.next() % 1000;
                        break;
                    default: when = sim.now() + gen.next() % 1000000; break;
                }
                sim.at(when, [&, id] {
                    trace.emplace_back(sim.now(), id);
                    const int kids = static_cast<int>(gen.next() % 4);
                    for (int k = 0; k < kids; ++k) self(self);
                });
            };
            for (int i = 0; i < 200; ++i) schedule_one(schedule_one);
            // Window boundaries interleave run_until bookkeeping with the
            // storm, as real experiments do.
            for (SimTime w = 1000000; w <= 50000000; w += 1000000) {
                sim.run_until(w);
            }
            sim.run();
            executed[which] = sim.executed_events();
        }
        EXPECT_EQ(executed[0], executed[1]) << "seed " << seed;
        ASSERT_EQ(traces[0], traces[1]) << "seed " << seed;
    }
}

TEST(Simulator, CalendarGrowsAndRoutesFarEvents) {
    Simulator sim;
    std::uint64_t executed = 0;
    SimTime last = 0;
    // 10k events spread over 10 seconds: far beyond the initial 64-bucket
    // wheel horizon, forcing both growth rebuilds and far-list routing.
    Rng gen(7);
    for (int i = 0; i < 10000; ++i) {
        const SimTime when = gen.next() % static_cast<SimTime>(seconds(10));
        sim.at(when, [&, when] {
            EXPECT_GE(when, last);
            last = when;
            ++executed;
        });
    }
    sim.run();
    EXPECT_EQ(executed, 10000u);
    const auto& stats = sim.scheduler_stats();
    EXPECT_GT(stats.rebuilds, 0u);
    EXPECT_GT(stats.far_events, 0u);
    EXPECT_GT(stats.buckets, std::size_t{64});
}

TEST(Simulator, SlabRecyclesEventNodes) {
    Simulator sim;
    // Sequential chains: after the first link every node should come from
    // the freelist, not a fresh slab carve.
    int remaining = 1000;
    std::function<void()> tick = [&] {
        if (--remaining > 0) sim.after(10, tick);
    };
    sim.after(10, tick);
    sim.run();
    const auto& stats = sim.scheduler_stats();
    EXPECT_EQ(stats.node_allocs + stats.node_reuses, 1000u);
    EXPECT_GE(stats.node_reuses, 998u);
}

TEST(EventFn, InlineBoundaryAndHeapSpill) {
    struct Small {
        unsigned char pad[EventFn::kInlineSize];
        void operator()() {}
    };
    struct Large {
        unsigned char pad[EventFn::kInlineSize + 1];
        void operator()() {}
    };
    EventFn small{Small{}};
    EventFn large{Large{}};
    EXPECT_FALSE(small.on_heap());
    EXPECT_TRUE(large.on_heap());

    Simulator sim;
    sim.after(1, Small{});
    sim.after(1, Large{});
    sim.run();
    EXPECT_EQ(sim.scheduler_stats().inline_callbacks, 1u);
    EXPECT_EQ(sim.scheduler_stats().heap_callbacks, 1u);
}

// Regression for the seed engine's step(): the popped callback must be
// executed in place, never copied out of the queue. A copy-counting
// callable (which std::function would have to copy) proves the pop path
// is copy-free; EventFn being move-only makes a regression a compile
// error, and this test pins the runtime behaviour too.
TEST(Simulator, PopExecutesCallbackWithoutCopy) {
    static int copies;
    static int invocations;
    copies = 0;
    invocations = 0;
    struct Counting {
        unsigned char pad[32] = {};  // representative capture, inline-size
        Counting() = default;
        Counting(const Counting&) { ++copies; }
        Counting(Counting&&) noexcept = default;
        void operator()() { ++invocations; }
    };
    Simulator sim;
    for (int i = 0; i < 100; ++i) sim.after(i, Counting{});
    sim.run();
    EXPECT_EQ(invocations, 100);
    EXPECT_EQ(copies, 0);
}

TEST(BufferPool, RecyclesByCapacityClass) {
    BufferPool pool;
    Bytes a = pool.acquire(100);  // class 256
    EXPECT_EQ(a.size(), 100u);
    EXPECT_GE(a.capacity(), 256u);
    EXPECT_EQ(pool.stats().misses, 1u);
    pool.release(std::move(a));
    EXPECT_EQ(pool.stats().recycled, 1u);

    Bytes b = pool.acquire(200);  // same class: served from stock
    EXPECT_EQ(b.size(), 200u);
    EXPECT_EQ(pool.stats().hits, 1u);

    Bytes c = pool.acquire_empty(1000);  // class 1024, empty for appends
    EXPECT_TRUE(c.empty());
    EXPECT_GE(c.capacity(), 1000u);
    EXPECT_EQ(pool.stats().misses, 2u);
}

TEST(BufferPool, OversizeAndTinyBuffersAreDiscarded) {
    BufferPool pool;
    Bytes oversize(BufferPool::kClassSizes.back() * 2 + 1);
    EXPECT_FALSE(pool.release_counted(std::move(oversize)));
    Bytes tiny;
    tiny.reserve(16);  // below the smallest class
    EXPECT_FALSE(pool.release_counted(std::move(tiny)));
    EXPECT_EQ(pool.stats().discarded, 2u);
    EXPECT_EQ(pool.stats().recycled, 0u);
}

// Each class banks buffers up to its byte budget: a full class discards
// the next release, and one acquire frees room for one more buffer.
TEST(BufferPool, ClassRetainsAtMostItsByteBudget) {
    BufferPool pool;
    constexpr std::size_t kTop = BufferPool::kClassSizes.back();
    constexpr std::size_t kFits = BufferPool::kClassBudgetBytes / kTop;
    std::vector<Bytes> frames;
    for (std::size_t i = 0; i <= kFits; ++i) {
        frames.push_back(pool.acquire_empty(kTop));
    }
    for (std::size_t i = 0; i < kFits; ++i) {
        EXPECT_TRUE(pool.release_counted(std::move(frames[i])));
    }
    EXPECT_FALSE(pool.release_counted(std::move(frames[kFits])));

    Bytes reused = pool.acquire_empty(kTop);
    EXPECT_EQ(pool.stats().hits, 1u);
    EXPECT_TRUE(pool.release_counted(std::move(reused)));
    EXPECT_EQ(pool.stats().recycled, kFits + 1);
    EXPECT_EQ(pool.stats().discarded, 1u);
}

// A frame just above the top class (a Bundle of sixteen 4 KiB puts is
// 65,619 bytes) is banked in the top class when released, so the next
// acquire of its size takes it back instead of allocating; a top-class
// buffer too small for it is passed over and still serves a top-class
// acquire.
TEST(BufferPool, AcquireJustAboveTheTopClassReusesALargeEnoughBuffer) {
    BufferPool pool;
    constexpr std::size_t kTop = BufferPool::kClassSizes.back();
    constexpr std::size_t kBundle = 65619;
    Bytes bundle = pool.acquire_empty(kBundle);
    EXPECT_GE(bundle.capacity(), kBundle);
    EXPECT_EQ(pool.stats().misses, 1u);
    Bytes top = pool.acquire_empty(kTop);
    EXPECT_EQ(pool.stats().misses, 2u);
    const std::uint8_t* bundle_storage = bundle.data();
    EXPECT_TRUE(pool.release_counted(std::move(bundle)));
    EXPECT_TRUE(pool.release_counted(std::move(top)));  // banked last

    Bytes again = pool.acquire_empty(kBundle);
    EXPECT_EQ(pool.stats().hits, 1u);
    EXPECT_EQ(again.data(), bundle_storage);
    EXPECT_TRUE(again.empty());
    Bytes plain = pool.acquire_empty(kTop);
    EXPECT_EQ(pool.stats().hits, 2u);
    EXPECT_EQ(pool.stats().misses, 2u);

    // Nothing large enough left: a miss, and nothing is taken.
    EXPECT_TRUE(pool.release_counted(std::move(plain)));
    Bytes larger = pool.acquire_empty(kBundle);
    EXPECT_EQ(pool.stats().misses, 3u);
    EXPECT_GE(larger.capacity(), kBundle);
    Bytes still = pool.acquire_empty(kTop);
    EXPECT_EQ(pool.stats().hits, 3u);
    // Above twice the top class nothing is banked, so nothing is looked
    // up either.
    Bytes huge = pool.acquire_empty(2 * kTop + 1);
    EXPECT_EQ(pool.stats().misses, 4u);
}

}  // namespace
}  // namespace troxy::sim

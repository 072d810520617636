#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <map>
#include <new>

#include "common/bytes.hpp"
#include "common/flat_map.hpp"
#include "common/inline_vec.hpp"
#include "common/log.hpp"
#include "common/ring_queue.hpp"
#include "common/rng.hpp"
#include "common/serialize.hpp"

// Counts heap allocations while a test enables it (FlatMap steady-state
// check below). Only the plain forms are replaced; the defaults of the
// other forms allocate with malloc and free with free as well.
namespace {
bool g_count_allocs = false;
std::uint64_t g_allocs = 0;
}  // namespace

void* operator new(std::size_t size) {
    if (g_count_allocs) ++g_allocs;
    if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
    throw std::bad_alloc();
}
// GCC pairs these frees with the operator new calls they inline into.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace troxy {
namespace {

TEST(Bytes, HexRoundTrip) {
    const Bytes data = {0x00, 0x01, 0xab, 0xff};
    EXPECT_EQ(hex_encode(data), "0001abff");
    EXPECT_EQ(hex_decode("0001abff"), data);
    EXPECT_EQ(hex_decode("0001ABFF"), data);
}

TEST(Bytes, HexDecodeRejectsBadInput) {
    EXPECT_THROW(hex_decode("abc"), std::invalid_argument);   // odd length
    EXPECT_THROW(hex_decode("zz"), std::invalid_argument);    // non-hex
}

TEST(Bytes, StringConversionRoundTrip) {
    EXPECT_EQ(to_string(to_bytes("hello")), "hello");
    EXPECT_TRUE(to_bytes("").empty());
}

TEST(Bytes, ConstantTimeEqual) {
    const Bytes a = to_bytes("same");
    const Bytes b = to_bytes("same");
    const Bytes c = to_bytes("diff");
    EXPECT_TRUE(constant_time_equal(a, b));
    EXPECT_FALSE(constant_time_equal(a, c));
    EXPECT_FALSE(constant_time_equal(a, to_bytes("longer string")));
}

TEST(Bytes, Concat) {
    EXPECT_EQ(concat(to_bytes("ab"), to_bytes("cd")), to_bytes("abcd"));
    EXPECT_EQ(concat(to_bytes("a"), to_bytes("b"), to_bytes("c")),
              to_bytes("abc"));
}

TEST(Rng, Deterministic) {
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i) {
        if (a.next() == b.next()) ++same;
    }
    EXPECT_EQ(same, 0);
}

TEST(Rng, NextBelowStaysInRange) {
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_LT(rng.next_below(17), 17u);
    }
    // Bound of 1 always yields 0.
    EXPECT_EQ(rng.next_below(1), 0u);
}

TEST(Rng, NextBelowRoughlyUniform) {
    Rng rng(8);
    std::array<int, 10> histogram{};
    constexpr int kSamples = 100'000;
    for (int i = 0; i < kSamples; ++i) {
        ++histogram[rng.next_below(10)];
    }
    for (const int count : histogram) {
        EXPECT_NEAR(count, kSamples / 10, kSamples / 100);
    }
}

TEST(Rng, NormalHasExpectedMoments) {
    Rng rng(9);
    double sum = 0, sum_sq = 0;
    constexpr int kSamples = 200'000;
    for (int i = 0; i < kSamples; ++i) {
        const double x = rng.next_normal(100.0, 20.0);
        sum += x;
        sum_sq += x * x;
    }
    const double mean = sum / kSamples;
    const double variance = sum_sq / kSamples - mean * mean;
    EXPECT_NEAR(mean, 100.0, 0.5);
    EXPECT_NEAR(std::sqrt(variance), 20.0, 0.5);
}

TEST(Rng, ExponentialMean) {
    Rng rng(10);
    double sum = 0;
    constexpr int kSamples = 200'000;
    for (int i = 0; i < kSamples; ++i) sum += rng.next_exponential(5.0);
    EXPECT_NEAR(sum / kSamples, 5.0, 0.1);
}

TEST(Rng, ForkedStreamsIndependent) {
    Rng parent(11);
    Rng child_a = parent.fork(1);
    Rng child_b = parent.fork(2);
    EXPECT_NE(child_a.next(), child_b.next());
}

TEST(Serialize, IntegerRoundTrip) {
    Writer w;
    w.u8(0xab);
    w.u16(0x1234);
    w.u32(0xdeadbeef);
    w.u64(0x0123456789abcdefULL);
    Reader r(w.data());
    EXPECT_EQ(r.u8(), 0xab);
    EXPECT_EQ(r.u16(), 0x1234);
    EXPECT_EQ(r.u32(), 0xdeadbeefu);
    EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
    EXPECT_TRUE(r.done());
}

TEST(Serialize, BytesAndStrings) {
    Writer w;
    w.bytes(to_bytes("payload"));
    w.str("text");
    Reader r(w.data());
    EXPECT_EQ(r.bytes(), to_bytes("payload"));
    EXPECT_EQ(r.str(), "text");
    r.expect_done();
}

TEST(Serialize, TruncatedInputThrows) {
    Writer w;
    w.u64(1);
    const Bytes data = w.data();
    Reader r(ByteView(data).first(4));
    EXPECT_THROW(r.u64(), DecodeError);
}

TEST(Serialize, LengthPrefixBeyondInputThrows) {
    Writer w;
    w.u32(1000);  // claims 1000 bytes follow
    Reader r(w.data());
    EXPECT_THROW(r.bytes(), DecodeError);
}

TEST(Serialize, TrailingGarbageDetected) {
    Writer w;
    w.u8(1);
    w.u8(2);
    Reader r(w.data());
    r.u8();
    EXPECT_THROW(r.expect_done(), DecodeError);
}

TEST(Serialize, EmptyByteString) {
    Writer w;
    w.bytes({});
    Reader r(w.data());
    EXPECT_TRUE(r.bytes().empty());
}

TEST(Log, FormatSubstitution) {
    EXPECT_EQ(format("a {} c {}", 1, "two"), "a 1 c two");
    EXPECT_EQ(format("no placeholders"), "no placeholders");
    EXPECT_EQ(format("{} extra args ignored"), "{} extra args ignored");
}

TEST(Log, LevelGuardRestores) {
    const LogLevel before = log_level();
    {
        LogLevelGuard guard(LogLevel::Error);
        EXPECT_EQ(log_level(), LogLevel::Error);
    }
    EXPECT_EQ(log_level(), before);
}

// ---------------------------------------------------------------- FlatMap

/// Every key in [0, 4) lands on one of three home slots.
struct CollidingHash {
    std::size_t operator()(std::uint64_t key) const noexcept {
        return key % 3;
    }
};

/// Homes in the last three slots of any table, so probe runs wrap
/// around to slot 0.
struct WrappingHash {
    std::size_t operator()(std::uint64_t key) const noexcept {
        return ~std::size_t{0} - key % 3;
    }
};

/// Random insert/erase/find against std::map over a small key range, so
/// most operations land inside long probe runs.
template <class Hash>
void check_against_map(std::uint64_t seed, std::uint64_t key_range) {
    FlatMap<std::uint64_t, std::uint64_t, Hash> flat;
    std::map<std::uint64_t, std::uint64_t> reference;
    Rng rng(seed);
    for (int op = 0; op < 20000; ++op) {
        const std::uint64_t key = rng.next_below(key_range);
        switch (rng.next_below(3)) {
            case 0: {
                const std::uint64_t value = rng.next();
                const auto [stored, inserted] = flat.try_emplace(key, value);
                const auto [it, ref_inserted] = reference.emplace(key, value);
                ASSERT_EQ(inserted, ref_inserted);
                ASSERT_EQ(*stored, it->second);
                break;
            }
            case 1:
                ASSERT_EQ(flat.erase(key), reference.erase(key) == 1);
                break;
            default: {
                const std::uint64_t* found = flat.find(key);
                const auto it = reference.find(key);
                ASSERT_EQ(found != nullptr, it != reference.end());
                if (found != nullptr) {
                    ASSERT_EQ(*found, it->second);
                }
                break;
            }
        }
        ASSERT_EQ(flat.size(), reference.size());
        if (op % 512 == 0) {
            for (std::uint64_t k = 0; k < key_range; ++k) {
                const std::uint64_t* found = flat.find(k);
                const auto it = reference.find(k);
                ASSERT_EQ(found != nullptr, it != reference.end()) << k;
                if (found != nullptr) {
                    ASSERT_EQ(*found, it->second);
                }
            }
        }
    }
}

TEST(FlatMap, MatchesStdMapUnderRandomOperations) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        check_against_map<FlatHash<std::uint64_t>>(seed, 48);
        check_against_map<FlatHash<std::uint64_t>>(seed, 2000);
    }
}

TEST(FlatMap, MatchesStdMapWithCollidingHashes) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        check_against_map<CollidingHash>(seed, 40);
        check_against_map<WrappingHash>(seed, 40);
    }
}

TEST(FlatMap, EraseInsideProbeChainKeepsLaterKeysReachable) {
    // All keys share one home slot: erasing the head and a middle link of
    // the run must shift every later key back into reach.
    FlatMap<std::uint64_t, int, CollidingHash> flat;
    for (std::uint64_t key = 0; key < 12; key += 3) {
        flat.try_emplace(key, static_cast<int>(key));
    }
    EXPECT_TRUE(flat.erase(3u));
    EXPECT_TRUE(flat.erase(0u));
    EXPECT_FALSE(flat.erase(0u));
    EXPECT_EQ(flat.size(), 2u);
    for (const std::uint64_t key : {6u, 9u}) {
        ASSERT_NE(flat.find(key), nullptr);
        EXPECT_EQ(*flat.find(key), static_cast<int>(key));
    }
    EXPECT_FALSE(flat.contains(3u));
}

TEST(FlatMap, GrowsFromEmptyAndKeepsEveryEntry) {
    FlatMap<std::uint64_t, std::uint64_t> flat;
    EXPECT_TRUE(flat.empty());
    EXPECT_EQ(flat.find(7u), nullptr);
    EXPECT_FALSE(flat.erase(7u));
    for (std::uint64_t key = 0; key < 5000; ++key) {
        ASSERT_TRUE(flat.try_emplace(key, key * 7).second);
    }
    EXPECT_EQ(flat.size(), 5000u);
    for (std::uint64_t key = 0; key < 5000; ++key) {
        ASSERT_NE(flat.find(key), nullptr);
        ASSERT_EQ(*flat.find(key), key * 7);
    }
    flat.clear();
    EXPECT_TRUE(flat.empty());
    EXPECT_FALSE(flat.contains(1u));
    EXPECT_TRUE(flat.try_emplace(1u, 2u).second);
}

TEST(FlatMap, StringKeysLookUpByStringView) {
    FlatMap<std::string, int> flat;
    std::map<std::string, int> reference;
    Rng rng(9);
    for (int op = 0; op < 5000; ++op) {
        const std::string key = "key-" + std::to_string(rng.next_below(300));
        // Lookups go through a view of a separate buffer, never the
        // stored std::string.
        const std::string buffer = "[" + key + "]";
        const std::string_view view(buffer.data() + 1, key.size());
        switch (rng.next_below(3)) {
            case 0:
                ASSERT_EQ(flat.try_emplace(view, op).second,
                          reference.emplace(key, op).second);
                break;
            case 1:
                ASSERT_EQ(flat.erase(view), reference.erase(key) == 1);
                break;
            default: {
                const int* found = flat.find(view);
                const auto it = reference.find(key);
                ASSERT_EQ(found != nullptr, it != reference.end());
                if (found != nullptr) {
                    ASSERT_EQ(*found, it->second);
                }
            }
        }
        ASSERT_EQ(flat.size(), reference.size());
    }
}

TEST(FlatMap, SteadyInsertEraseCycleAllocatesNothingAfterWarmup) {
    // A window of live request numbers slides forward, as the enclave's
    // pending-vote table does; short string keys stay in the small-string
    // buffer.
    FlatMap<std::uint64_t, std::uint64_t> numbers;
    FlatMap<std::string, int> keys;
    constexpr std::uint64_t kLive = 100;
    std::uint64_t next = 0;
    const auto cycle = [&](int rounds) {
        for (int i = 0; i < rounds; ++i, ++next) {
            numbers.try_emplace(next, next);
            if (next >= kLive) numbers.erase(next - kLive);
            const std::string key = "k" + std::to_string(next % 1000);
            ++*keys.try_emplace(key, 0).first;
            keys.erase(std::string_view("k" + std::to_string(
                                                  (next + 500) % 1000)));
        }
    };
    cycle(5000);  // warm-up: the slot arrays reach their final size
    g_allocs = 0;
    g_count_allocs = true;
    cycle(20000);
    g_count_allocs = false;
    EXPECT_EQ(g_allocs, 0u);
    EXPECT_EQ(numbers.size(), kLive);
}

// ---------------------------------------------------------------- InlineVec

TEST(InlineVec, SpillsPastItsInlineCapacityAndKeepsOrder) {
    InlineVec<std::string, 2> list{"c", "a"};
    list.push_back("b");  // the third element spills to the heap
    list.push_back("a");
    ASSERT_EQ(list.size(), 4u);
    std::sort(list.begin(), list.end());
    list.erase(std::unique(list.begin(), list.end()), list.end());
    EXPECT_EQ(list, (InlineVec<std::string, 2>{"a", "b", "c"}));

    // Copies and moves carry the live elements only, in either mode.
    InlineVec<std::string, 2> copy = list;
    EXPECT_EQ(copy, list);
    InlineVec<std::string, 2> moved = std::move(copy);
    EXPECT_EQ(moved, list);
    EXPECT_TRUE(copy.empty());  // NOLINT(bugprone-use-after-move)
    InlineVec<std::string, 2> small{"x"};
    InlineVec<std::string, 2> taken = std::move(small);
    EXPECT_EQ(taken, (InlineVec<std::string, 2>{"x"}));
    list.clear();
    EXPECT_TRUE(list.empty());
    list.push_back("z");
    EXPECT_EQ(list, (InlineVec<std::string, 2>{"z"}));
}

TEST(InlineVec, RefillingAClearedListAllocatesNothing) {
    // A spilled list keeps its heap capacity across clear(), and a long
    // string copied into an inline slot reuses that slot's buffer.
    const std::vector<std::string> shorts = {"a", "b", "c", "d", "e"};
    InlineVec<std::string, 2> spilled;
    const auto refill = [&] {
        spilled.assign(shorts.begin(), shorts.end());
    };
    refill();
    g_allocs = 0;
    g_count_allocs = true;
    refill();
    g_count_allocs = false;
    EXPECT_EQ(g_allocs, 0u);
    EXPECT_EQ(spilled.size(), 5u);

    const std::string long_key(40, 'k');
    InlineVec<std::string, 2> inline_list;
    inline_list.push_back(long_key);
    g_allocs = 0;
    g_count_allocs = true;
    inline_list.clear();
    inline_list.push_back(long_key);
    g_count_allocs = false;
    EXPECT_EQ(g_allocs, 0u);
    EXPECT_EQ(inline_list[0], long_key);
}

TEST(RingQueue, KeepsFifoOrderAcrossWrapAndGrowth) {
    RingQueue<std::string> queue;
    int next_in = 0;
    int next_out = 0;
    // Grow past the first ring while its head sits mid-array, so the
    // wider ring must unwrap the elements in order.
    for (int round = 0; round < 6; ++round) {
        for (int i = 0; i < 5; ++i) queue.push_back(std::to_string(next_in++));
        for (int i = 0; i < 3; ++i) {
            ASSERT_EQ(queue.front(), std::to_string(next_out++));
            queue.pop_front();
        }
    }
    ASSERT_EQ(queue.size(), 12u);
    EXPECT_EQ(queue.back(), std::to_string(next_in - 1));
    for (std::size_t i = 0; i < queue.size(); ++i) {
        EXPECT_EQ(queue[i], std::to_string(next_out + static_cast<int>(i)));
    }

    // A warm queue cycles and refills after clear() without allocating
    // queue storage (the short strings fit their inline buffers).
    queue.clear();
    EXPECT_TRUE(queue.empty());
    g_allocs = 0;
    g_count_allocs = true;
    for (int i = 0; i < 100; ++i) {
        queue.push_back("x");
        queue.pop_front();
    }
    g_count_allocs = false;
    EXPECT_EQ(g_allocs, 0u);
}

}  // namespace
}  // namespace troxy

// Output checks: every reply the benchmark receives is recorded and, at
// the end of a cell, checked against the service's semantics and the
// replicas' final state.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "sim/time.hpp"

namespace perfbench {

namespace sim = troxy::sim;

constexpr sim::SimTime kNotDone = std::numeric_limits<sim::SimTime>::max();

/// One request as issued, and what its reply said.
struct Record {
    sim::SimTime issued_at = 0;  // open loop: the arrival's scheduled time
    sim::SimTime done_at = kNotDone;
    std::uint64_t key = 0;
    /// Echo multiwrite: partner key. KV PUT: the put id its value carries.
    std::uint64_t aux = 0;
    /// Echo: acked version. KV PUT: put id of the value it replaced.
    /// KV GET: put id of the value it returned (0 = not found).
    std::uint64_t result = 0;
    std::uint32_t session = 0;
    std::uint8_t op = 0;  // 0 = read/GET, 1 = write/PUT, 2 = multiwrite
};

[[nodiscard]] std::string kv_key(std::uint64_t rank);

/// A 64-byte value unique to (key, put id).
[[nodiscard]] std::string kv_value(std::uint64_t rank, std::uint64_t put_id);

/// Put id a value names (0 for the empty not-found value); nullopt when
/// the bytes are not a value this benchmark wrote under `rank`.
[[nodiscard]] std::optional<std::uint64_t> parse_kv_value(
    troxy::ByteView value, std::uint64_t rank);

/// The version an echo write acknowledgement carries; nullopt when the
/// reply is not a well-formed 10-byte ack.
[[nodiscard]] std::optional<std::uint64_t> parse_echo_ack(
    troxy::ByteView reply);

/// Echo writes: no key acknowledges a version twice, no ack exceeds the
/// replicas' final version, and with every request answered the final
/// version equals the number of writes that touched the key (each write
/// executed exactly once) or, when sessions failed over and re-sent
/// requests (`exactly_once` false), is at least that number.
void check_echo(const std::vector<Record>& records, std::uint64_t keys,
                const std::function<std::uint64_t(std::uint64_t)>& final_version,
                bool all_answered, bool exactly_once,
                std::vector<std::string>& violations);

/// The consistency anomaly the program still produces (README.md). It is
/// tolerated, counted and described only in the one form documented
/// there, on the one workload that shows it, and in bounded numbers; any
/// other stale read fails the run.
struct Anomalies {
    /// GETs that returned a value older than the last PUT acknowledged
    /// before they were issued. A contact Troxy caches an ordered read's
    /// result when its vote completes, which can be after its replica
    /// executed newer writes to the key; two such replicas let a fast
    /// read return the overwritten value.
    std::uint64_t stale_reads = 0;
    std::vector<std::string> samples;  // the first few, described
};

/// KV history: the PUT replies (each returns the value it replaced) must
/// chain every key's acknowledged PUTs into one total order; a GET returns
/// not-found or a value some PUT to that key carried, issued before the
/// GET completed and no older than the last PUT acknowledged before the
/// GET was issued; the replicas' final value is the end of that order.
/// `final_state` maps key rank to the put id of its stored value. When a
/// session failed over after a host crash (`exactly_once` false) a PUT
/// may execute twice, so only the checks that survive re-execution apply.
/// `tolerate_stale_reads` admits the stale GETs Anomalies describes
/// (kv-read-mostly only): those whose missed versions were all
/// acknowledged within kStaleBurst of each other, at most one per
/// kGetsPerStaleRead GETs answered.
void check_kv(const std::vector<Record>& records,
              const std::vector<std::uint64_t>& put_records,
              const std::map<std::uint64_t, std::uint64_t>& final_state,
              bool exactly_once, bool tolerate_stale_reads,
              std::vector<std::string>& violations, Anomalies& anomalies);

}  // namespace perfbench

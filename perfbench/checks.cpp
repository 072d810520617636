#include "checks.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

namespace {

constexpr std::size_t kKvValueSize = 64;
constexpr std::size_t kMaxViolations = 50;

// Limits on the known stale reads, several times what was seen at most:
// 7 stale GETs in the ~38 k of one kv-read-mostly cell (seeds 1-20, 1.2 on
// average).
constexpr std::uint64_t kGetsPerStaleRead = 1000;
constexpr sim::Duration kStaleBurst = sim::milliseconds(2);

void fail(std::vector<std::string>& violations, std::string message) {
    if (violations.size() < kMaxViolations) {
        violations.push_back(std::move(message));
    }
}

std::string fmt(const char* format, unsigned long long a,
                unsigned long long b = 0, unsigned long long c = 0) {
    char buffer[256];
    std::snprintf(buffer, sizeof buffer, format, a, b, c);
    return buffer;
}

/// Looks PUTs up by their 1-based put id.
struct PutIndex {
    const std::vector<Record>& records;
    const std::vector<std::uint64_t>& record_of;  // put id -> record index

    [[nodiscard]] std::uint64_t count() const { return record_of.size() - 1; }
    const Record& operator()(std::uint64_t id) const {
        return records[record_of[id]];
    }
    /// True when `id` names a PUT to `key`.
    [[nodiscard]] bool known(std::uint64_t id, std::uint64_t key) const {
        return id >= 1 && id <= count() && (*this)(id).key == key;
    }
};

void note(Anomalies& anomalies, std::string message) {
    if (anomalies.samples.size() < 3) {
        anomalies.samples.push_back(std::move(message));
    }
}

/// KV checks that hold when a PUT may execute more than once: a client
/// that fails over re-sends requests whose acknowledgement the crashed
/// contact never delivered, under a new session, so the replicas cannot
/// deduplicate them. Replies must name values of the same key and the
/// stored value must come from a PUT to that key. An acknowledged PUT is
/// lost when the stored value was acknowledged before that PUT was even
/// issued: re-sending cannot explain that, so it fails the run.
void check_kv_at_least_once(
    const std::vector<Record>& records,
    const std::vector<std::uint64_t>& put_records,
    const std::map<std::uint64_t, std::uint64_t>& final_state,
    std::vector<std::string>& violations) {
    const PutIndex put{records, put_records};
    std::map<std::uint64_t, std::vector<std::uint64_t>> acked_by_key;
    for (const Record& r : records) {
        if (r.done_at == kNotDone) continue;
        if (r.result != 0 && !put.known(r.result, r.key)) {
            fail(violations, fmt("reply on key %llu names unknown value p%llu",
                                 r.key, r.result));
        }
        if (r.op == 1) acked_by_key[r.key].push_back(r.aux);
    }
    for (const auto& [key, ids] : acked_by_key) {
        const auto it = final_state.find(key);
        const std::uint64_t stored = it == final_state.end() ? 0 : it->second;
        if (!put.known(stored, key)) {
            fail(violations, fmt("key %llu stores p%llu although PUT p%llu was "
                                 "acknowledged",
                                 key, stored, ids.front()));
            continue;
        }
        const Record& holder = put(stored);
        if (holder.done_at == kNotDone) continue;
        for (const std::uint64_t id : ids) {
            const Record& lost = put(id);
            if (lost.issued_at <= holder.done_at) continue;
            fail(violations,
                 fmt("acknowledged PUT p%llu is lost: key %llu holds p%llu "
                     "again",
                     id, key, stored) +
                     fmt(" (p%llu issued at %llu us, acknowledged at %llu us;",
                         stored, holder.issued_at / 1000,
                         holder.done_at / 1000) +
                     fmt(" p%llu issued at %llu us)", id, lost.issued_at / 1000));
            break;
        }
    }
    for (const auto& [key, id] : final_state) {
        if (!put.known(id, key)) {
            fail(violations, fmt("key %llu stores p%llu, which no PUT to it "
                                 "carried",
                                 key, id));
        }
    }
}

}  // namespace

std::string kv_key(std::uint64_t rank) {
    // Appending (not "k" + ...) keeps GCC 12's -Wrestrict false positive
    // out of the build.
    std::string key = "k";
    key += std::to_string(rank);
    return key;
}

std::string kv_value(std::uint64_t rank, std::uint64_t put_id) {
    std::string value = kv_key(rank) + ".p" + std::to_string(put_id);
    value.resize(kKvValueSize, '.');
    return value;
}

std::optional<std::uint64_t> parse_kv_value(troxy::ByteView value,
                                            std::uint64_t rank) {
    if (value.empty()) return 0;
    if (value.size() != kKvValueSize) return std::nullopt;
    const std::string text(value.begin(), value.end());
    const std::string prefix = kv_key(rank) + ".p";
    if (text.compare(0, prefix.size(), prefix) != 0) return std::nullopt;
    std::size_t pos = prefix.size();
    std::uint64_t put_id = 0;
    const std::size_t digits_start = pos;
    while (pos < text.size() && text[pos] >= '0' && text[pos] <= '9') {
        put_id = put_id * 10 + static_cast<std::uint64_t>(text[pos] - '0');
        ++pos;
    }
    if (pos == digits_start || put_id == 0) return std::nullopt;
    for (; pos < text.size(); ++pos) {
        if (text[pos] != '.') return std::nullopt;
    }
    return put_id;
}

std::optional<std::uint64_t> parse_echo_ack(troxy::ByteView reply) {
    if (reply.size() != 10 || reply[0] != 1 || reply[9] != 0) {
        return std::nullopt;
    }
    std::uint64_t version = 0;
    for (int i = 0; i < 8; ++i) {
        version |= static_cast<std::uint64_t>(reply[1 + i]) << (8 * i);
    }
    if (version == 0) return std::nullopt;
    return version;
}

void check_echo(const std::vector<Record>& records, std::uint64_t keys,
                const std::function<std::uint64_t(std::uint64_t)>& final_version,
                bool all_answered, bool exactly_once,
                std::vector<std::string>& violations) {
    std::vector<std::vector<std::uint64_t>> acked(keys);
    std::vector<std::uint64_t> touches(keys, 0);
    for (const Record& r : records) {
        if (r.op == 0) continue;
        ++touches[r.key];
        if (r.op == 2) ++touches[r.aux];
        if (r.done_at != kNotDone) acked[r.key].push_back(r.result);
    }
    for (std::uint64_t k = 0; k < keys; ++k) {
        auto& versions = acked[k];
        std::sort(versions.begin(), versions.end());
        const auto dup = std::adjacent_find(versions.begin(), versions.end());
        if (dup != versions.end()) {
            fail(violations, fmt("echo key %llu acknowledged version %llu "
                                 "twice",
                                 k, *dup));
        }
        if (touches[k] == 0) continue;
        const std::uint64_t final_v = final_version(k);
        if (!versions.empty() && versions.back() > final_v) {
            fail(violations, fmt("echo key %llu acknowledged version %llu "
                                 "above the replicas' %llu",
                                 k, versions.back(), final_v));
        }
        if (all_answered && (exactly_once ? final_v != touches[k]
                                          : final_v < touches[k])) {
            fail(violations, fmt("echo key %llu: %llu writes touched it but "
                                 "the replicas hold version %llu",
                                 k, touches[k], final_v));
        }
    }
}

void check_kv(const std::vector<Record>& records,
              const std::vector<std::uint64_t>& put_records,
              const std::map<std::uint64_t, std::uint64_t>& final_state,
              bool exactly_once, bool tolerate_stale_reads,
              std::vector<std::string>& violations, Anomalies& anomalies) {
    const PutIndex put{records, put_records};
    const std::uint64_t puts = put.count();
    if (!exactly_once) {
        check_kv_at_least_once(records, put_records, final_state, violations);
        return;
    }

    // The value each acknowledged PUT replaced links it to its predecessor
    // in the key's execution order.
    std::map<std::pair<std::uint64_t, std::uint64_t>, std::uint64_t> next;
    std::map<std::uint64_t, std::vector<std::uint64_t>> puts_by_key;
    for (std::uint64_t id = 1; id <= puts; ++id) {
        const Record& p = put(id);
        puts_by_key[p.key].push_back(id);
        if (p.done_at == kNotDone) continue;
        const std::uint64_t prev = p.result;
        if (prev == id) {
            fail(violations, fmt("PUT p%llu replaced its own value "
                                 "(executed twice)",
                                 id));
            continue;
        }
        if (prev != 0 && !put.known(prev, p.key)) {
            fail(violations, fmt("PUT p%llu replaced unknown value p%llu",
                                 id, prev));
            continue;
        }
        if (!next.emplace(std::make_pair(p.key, prev), id).second) {
            fail(violations, fmt("PUTs p%llu and p%llu both replaced p%llu",
                                 next[{p.key, prev}], id, prev));
        }
    }

    std::vector<std::uint64_t> rank(puts + 1, 0);
    std::vector<bool> ranked(puts + 1, false);
    std::map<std::uint64_t, std::uint64_t> tail;
    // Per key: the ack time of the PUT of each rank (index rank - 1).
    std::map<std::uint64_t, std::vector<sim::SimTime>> acked_at;
    for (const auto& [key, ids] : puts_by_key) {
        std::uint64_t cur = 0;
        std::uint64_t r = 0;
        for (auto it = next.find({key, cur}); it != next.end();
             it = next.find({key, cur})) {
            cur = it->second;
            if (ranked[cur]) {
                fail(violations, fmt("key %llu history loops at p%llu", key,
                                     cur));
                break;
            }
            ranked[cur] = true;
            rank[cur] = ++r;
            acked_at[key].push_back(put(cur).done_at);
        }
        tail[key] = cur;
        for (const std::uint64_t id : ids) {
            if (put(id).done_at != kNotDone && !ranked[id]) {
                fail(violations, fmt("acknowledged PUT p%llu is not on key "
                                     "%llu's history",
                                     id, key));
            }
        }
    }

    // Per key: acknowledged PUTs by ack time with the running max rank, so
    // a GET's freshness floor is one binary search.
    std::map<std::uint64_t, std::vector<std::pair<sim::SimTime, std::uint64_t>>>
        acks;
    for (const auto& [key, ids] : puts_by_key) {
        auto& list = acks[key];
        for (const std::uint64_t id : ids) {
            if (put(id).done_at != kNotDone && ranked[id]) {
                list.emplace_back(put(id).done_at, rank[id]);
            }
        }
        std::sort(list.begin(), list.end());
        for (std::size_t i = 1; i < list.size(); ++i) {
            list[i].second = std::max(list[i].second, list[i - 1].second);
        }
    }
    std::uint64_t gets = 0;
    for (const Record& g : records) {
        if (g.op != 0 || g.done_at == kNotDone) continue;
        ++gets;
        const std::uint64_t v = g.result;
        if (v != 0) {
            if (!put.known(v, g.key)) {
                fail(violations, fmt("GET on key %llu returned unknown value "
                                     "p%llu",
                                     g.key, v));
                continue;
            }
            if (put(v).issued_at > g.done_at) {
                fail(violations, fmt("GET on key %llu returned p%llu before "
                                     "that PUT was issued",
                                     g.key, v));
            }
            if (!ranked[v]) continue;  // unacknowledged, order unknown
        }
        const auto it = acks.find(g.key);
        if (it == acks.end()) continue;
        const auto& list = it->second;
        const auto bound = std::lower_bound(
            list.begin(), list.end(),
            std::make_pair(g.issued_at, std::uint64_t{0}));
        if (bound == list.begin()) continue;
        const std::uint64_t floor = std::prev(bound)->second;
        const std::uint64_t got = v == 0 ? 0 : rank[v];
        if (got >= floor) continue;
        // The versions the GET missed: how far apart they were acknowledged.
        const auto& missed = acked_at[g.key];
        const auto [first, last] = std::minmax_element(
            missed.begin() + static_cast<std::ptrdiff_t>(got),
            missed.begin() + static_cast<std::ptrdiff_t>(floor));
        const sim::Duration burst = *last - *first;
        const std::string what =
            fmt("stale GET on key %llu: returned version %llu after "
                "version %llu was acknowledged",
                g.key, got, floor) +
            fmt(" (issued at %llu ns, answered at %llu ns;", g.issued_at,
                g.done_at) +
            fmt(" missed versions acknowledged within %llu us)",
                burst / 1000);
        if (!tolerate_stale_reads || burst > kStaleBurst) {
            fail(violations, what);
            continue;
        }
        ++anomalies.stale_reads;
        note(anomalies, what);
    }
    if (anomalies.stale_reads * kGetsPerStaleRead > gets) {
        fail(violations, fmt("%llu stale GETs in %llu, more than one per "
                             "%llu tolerated",
                             anomalies.stale_reads, gets, kGetsPerStaleRead));
    }

    for (const auto& [key, ids] : puts_by_key) {
        const auto it = final_state.find(key);
        const std::uint64_t stored = it == final_state.end() ? 0 : it->second;
        if (stored == tail[key]) continue;
        const bool unacked_put =
            put.known(stored, key) && put(stored).done_at == kNotDone;
        if (!unacked_put) {
            fail(violations, fmt("key %llu stores p%llu but its history ends "
                                 "at p%llu",
                                 key, stored, tail[key]));
        }
    }
    for (const auto& [key, id] : final_state) {
        if (puts_by_key.count(key) == 0) {
            fail(violations, fmt("key %llu stores p%llu but was never written",
                                 key, id));
        }
    }
}

}  // namespace perfbench

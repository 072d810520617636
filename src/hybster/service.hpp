// Replicated-service interface (the state machine under SMR).
//
// The fast-read optimization "assumes that read and write requests can be
// distinguished before executing them and that it can be determined which
// part of the state a request is about to access or modify" (§IV-A).
// classify() exposes exactly that: an operation kind plus the state key
// the request touches. execute() must be deterministic — all correct
// replicas apply requests in sequence order and must produce identical
// replies. Checkpoint/restore support the protocol's garbage collection
// and state transfer.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <ranges>
#include <string>

#include "common/bytes.hpp"
#include "common/inline_vec.hpp"
#include "sim/cost.hpp"

namespace troxy::hybster {

/// Keys a request's closure holds without touching the heap. Echo and
/// Mail writes name one extra key; a KV mutation names its key's scan
/// prefixes, key length + 1 of them, and every KV key the benches use
/// ("k" + up to five digits) has at most seven characters. A longer
/// closure spills to the heap.
inline constexpr std::size_t kInlineKeys = 8;

/// A short list of state keys, inline up to kInlineKeys.
using KeyList = InlineVec<std::string, kInlineKeys>;

struct RequestInfo {
    bool is_read = false;
    /// Identifier of the state partition the request touches; the
    /// fast-read cache is keyed and invalidated by this.
    std::string state_key;
    /// Write-set closure beyond state_key: additional cache partitions a
    /// mutation invalidates (and that gate fast reads keyed on them) —
    /// e.g. a KV mutation also touches every scan prefix covering its
    /// key. These are *invalidation* targets only; execution-conflict
    /// classes are formed on state_key alone (two writes under a common
    /// scan prefix still commute at the exact-key level).
    KeyList extra_keys;

    /// The full touched-key set as a range of `const std::string&`:
    /// state_key first, then extra_keys.
    [[nodiscard]] auto keys() const {
        return std::views::iota(std::size_t{0}, 1 + extra_keys.size()) |
               std::views::transform(
                   [this](std::size_t k) -> const std::string& {
                       return k == 0 ? state_key : extra_keys[k - 1];
                   });
    }
};

class Service {
  public:
    virtual ~Service() = default;

    /// Inspects a request without executing it (trusted-side use).
    [[nodiscard]] virtual RequestInfo classify(ByteView request) const = 0;

    /// Deterministically executes a request and returns the reply payload.
    virtual Bytes execute(ByteView request) = 0;

    /// Serializes the full service state.
    [[nodiscard]] virtual Bytes checkpoint() const = 0;

    /// Replaces the service state with a checkpoint.
    virtual void restore(ByteView snapshot) = 0;

    /// Modelled CPU cost of executing this request (charged on the
    /// replica's node in addition to protocol costs).
    [[nodiscard]] virtual sim::Duration execution_cost(
        ByteView request) const {
        (void)request;
        return 0;
    }
};

using ServicePtr = std::unique_ptr<Service>;

/// Factory so each replica can own an identical, independent instance.
using ServiceFactory = std::function<ServicePtr()>;

}  // namespace troxy::hybster

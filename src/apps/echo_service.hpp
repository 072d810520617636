// Microbenchmark service (§VI-C): "a simple service that accepts requests
// and generates a reply message of configurable size. Read and write
// requests can be distinguished by their operation types."
//
// Request wire format (application level — the Troxy treats it as an
// opaque record and only uses the classifier):
//   u8  op            0 = read, 1 = write, 2 = multiwrite
//   u64 key           state partition touched
//   u64 partner       (op 2 only) second state partition touched
//   u32 reply_size    requested reply payload size
//   u32 pad_size      request padding length
//   pad_size × u8     padding (zeros; makes the request the desired size)
//
// Op 2 is a two-key write whose classifier closure names the partner key
// in extra_keys — under a sharded deployment a multiwrite whose keys live
// on different shards exercises the cross-shard commit path. The ack
// carries the primary key's new version in the usual 10-byte format.
//
// State: a version counter per key. Writes bump the version and return a
// 10-byte acknowledgement (the paper's write replies are always 10 B);
// reads return reply_size bytes deterministically derived from
// (key, version), so a stale read is *detectably* stale.
#pragma once

#include <cstdint>
#include <vector>

#include "common/flat_map.hpp"
#include "hybster/service.hpp"

namespace troxy::apps {

class EchoService final : public hybster::Service {
  public:
    [[nodiscard]] hybster::RequestInfo classify(
        ByteView request) const override;
    Bytes execute(ByteView request) override;
    [[nodiscard]] Bytes checkpoint() const override;
    void restore(ByteView snapshot) override;
    [[nodiscard]] sim::Duration execution_cost(
        ByteView request) const override;

    /// Builds a read request of approximately `request_size` bytes asking
    /// for a `reply_size`-byte reply.
    static Bytes make_read(std::uint64_t key, std::size_t request_size,
                           std::size_t reply_size);

    /// Builds a write request of approximately `request_size` bytes.
    static Bytes make_write(std::uint64_t key, std::size_t request_size);

    /// Builds a two-key write (op 2) of approximately `request_size`
    /// bytes; bumps both `key` and `partner`, acks `key`'s new version.
    static Bytes make_multi_write(std::uint64_t key, std::uint64_t partner,
                                  std::size_t request_size);

    /// The deterministic reply a read of (key, version) must produce —
    /// used by tests to check linearizability.
    static Bytes expected_read_reply(std::uint64_t key,
                                     std::uint64_t version,
                                     std::size_t reply_size);

    [[nodiscard]] std::uint64_t version_of(std::uint64_t key) const;

  private:
    struct Parsed {
        bool is_read = false;
        bool multi = false;
        std::uint64_t key = 0;
        std::uint64_t partner = 0;
        std::size_t reply_size = 0;
    };
    [[nodiscard]] static Parsed parse(ByteView request);
    /// The version slot of `key`, created at 0 on first touch (a read of
    /// an unknown key creates it too, as the snapshot records).
    std::uint64_t& version_slot(std::uint64_t key);

    /// Version per key, in a flat hash table: no node per key.
    FlatMap<std::uint64_t, std::uint64_t> versions_;
    /// Every key in versions_. checkpoint() sorts it in place (the order
    /// is all it changes), so the snapshot lists keys in ascending order
    /// without a copy.
    mutable std::vector<std::uint64_t> keys_;
};

}  // namespace troxy::apps

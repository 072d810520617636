// Key-value store service: a realistic application for the examples and
// integration tests.
//
// Application protocol:
//   GET:    u8 0, key string        → value string ("" if absent)
//   PUT:    u8 1, key, value        → previous value
//   DELETE: u8 2, key               → previous value
//   SCAN:   u8 3, prefix            → count ‖ matching keys (read-only,
//                                     state key = prefix partition)
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "hybster/service.hpp"

namespace troxy::apps {

class KvService final : public hybster::Service {
  public:
    [[nodiscard]] hybster::RequestInfo classify(
        ByteView request) const override;
    Bytes execute(ByteView request) override;
    [[nodiscard]] Bytes checkpoint() const override;
    void restore(ByteView snapshot) override;
    [[nodiscard]] sim::Duration execution_cost(
        ByteView request) const override;

    static Bytes make_get(std::string_view key);
    static Bytes make_put(std::string_view key, std::string_view value);
    static Bytes make_delete(std::string_view key);
    static Bytes make_scan(std::string_view prefix);

    [[nodiscard]] std::size_t size() const noexcept { return store_.size(); }

  private:
    /// Transparent comparator: lookups go through a borrowed key view.
    std::map<std::string, std::string, std::less<>> store_;
};

}  // namespace troxy::apps

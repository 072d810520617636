// Closure sends: network tests that only time deliveries send a payload
// of the size under test and run a closure when it arrives.
#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <utility>

#include "common/bytes.hpp"
#include "sim/network.hpp"

namespace troxy::test_support {

/// Sends `bytes`-byte payloads whose deliveries run closures. The
/// closures live as long as the sender, so a dropped message leaks none.
class ClosureSender {
  public:
    explicit ClosureSender(sim::Network& network) : network_(network) {}

    void send(sim::NodeId from, sim::NodeId to, std::size_t bytes,
              std::function<void()> on_delivery) {
        std::function<void()>& slot =
            callbacks_.emplace_back(std::move(on_delivery));
        network_.send(from, to, Bytes(bytes), {&slot, &deliver});
    }

  private:
    static void deliver(void* ctx, sim::NodeId, sim::NodeId, Bytes) {
        (*static_cast<std::function<void()>*>(ctx))();
    }

    sim::Network& network_;
    std::deque<std::function<void()>> callbacks_;  // stable addresses
};

}  // namespace troxy::test_support

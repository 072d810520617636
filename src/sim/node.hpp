// Simulated machine with a bounded number of cores.
//
// CPU work is charged through exec(): the work occupies the earliest-free
// core for its duration and the continuation runs at completion time. This
// yields natural saturation behaviour — when offered load exceeds core
// capacity, queueing delay grows and throughput plateaus — which is what
// the paper's throughput/latency curves measure.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/event_fn.hpp"
#include "sim/simulator.hpp"

namespace troxy::sim {

using NodeId = std::uint32_t;

class Node {
  public:
    Node(Simulator& simulator, NodeId id, std::string name, int cores);

    [[nodiscard]] NodeId id() const noexcept { return id_; }
    [[nodiscard]] const std::string& name() const noexcept { return name_; }
    [[nodiscard]] int cores() const noexcept {
        return static_cast<int>(core_free_at_.size());
    }

    /// Schedules `fn` after `cost` nanoseconds of CPU work on the
    /// earliest-available core. Zero-cost work still round-trips through
    /// the event queue to preserve ordering.
    void exec(Duration cost, EventFn fn);

    /// Like exec(), but completions are additionally forced into call
    /// order: a later exec_ordered() never finishes before an earlier
    /// one. Models the machine's single network egress path — handlers
    /// may run on parallel cores, but their messages leave through one
    /// NIC queue in processing order, so protocol messages of one node
    /// can never overtake each other on the wire. `not_before` adds an
    /// external completion floor (e.g. an enclave-thread slot) without
    /// charging CPU for the wait.
    void exec_ordered(Duration cost, EventFn fn,
                      SimTime not_before = 0);

    /// Charges CPU time without a continuation (bookkeeping work whose
    /// completion nobody waits on, e.g. discarding an invalid message).
    void charge(Duration cost);

    /// Cumulative busy nanoseconds across all cores (for utilization
    /// reporting in benchmarks).
    [[nodiscard]] Duration busy_time() const noexcept { return busy_; }

    /// How far the most-loaded core's reservations run ahead of `now`
    /// (the CPU backlog an arriving task would queue behind).
    [[nodiscard]] Duration backlog() const noexcept {
        const SimTime latest =
            *std::max_element(core_free_at_.begin(), core_free_at_.end());
        const SimTime now = sim_.now();
        return latest > now ? latest - now : 0;
    }

    Simulator& simulator() noexcept { return sim_; }

  private:
    SimTime reserve_core(Duration cost) noexcept;

    Simulator& sim_;
    NodeId id_;
    std::string name_;
    std::vector<SimTime> core_free_at_;
    SimTime last_ordered_completion_ = 0;
    Duration busy_ = 0;
};

}  // namespace troxy::sim

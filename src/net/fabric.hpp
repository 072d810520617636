// Message fabric: typed delivery between simulated processes.
//
// The Fabric owns the mapping from NodeId to message handler and routes
// byte messages through the simulated Network (which applies latency,
// bandwidth and FIFO ordering). Protocol components attach themselves and
// exchange opaque Bytes; interpretation is entirely up to the endpoints,
// so a Byzantine endpoint can send arbitrary garbage, exactly like on a
// real network.
//
// The Fabric also keeps this simulation's spare Outbox queues: a flush
// event hands its emptied queue back, and the next Outbox to enqueue on
// any node takes it, so a warm flush allocates no queue storage.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "common/bytes.hpp"
#include "sim/event_fn.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"

namespace troxy::net {

/// One item of an Outbox queue, in queue order: a wire frame for `to`
/// or, when `local` is set, a deferred callback instead of a frame.
/// Frames and callbacks share one queue so the flush event captures a
/// single vector and fits EventFn's inline storage.
struct OutboxItem {
    sim::NodeId to = 0;
    /// Already moved into a coalesced burst (Outbox::coalesce only).
    bool grouped = false;
    /// Messages a coalesced Bundle frame carries; 0 for any other frame.
    std::uint32_t bundled = 0;
    Bytes frame;
    sim::EventFn local;
};

class Fabric {
  public:
    using Handler = std::function<void(sim::NodeId from, Bytes message)>;

    Fabric(sim::Simulator& simulator, sim::Network& network);

    /// Registers the handler invoked when a message arrives at `id`.
    void attach(sim::NodeId id, Handler handler);
    void detach(sim::NodeId id);

    /// Sends `message` from `from` to `to`. Delivery is asynchronous; if
    /// the destination has no handler at delivery time the message is
    /// dropped (crashed process).
    void send(sim::NodeId from, sim::NodeId to, Bytes message);

    [[nodiscard]] sim::Network& network() noexcept { return network_; }
    [[nodiscard]] sim::Simulator& simulator() noexcept { return sim_; }

    /// An empty Outbox queue: the most recently returned spare, or a
    /// fresh one sized for a typical burst.
    [[nodiscard]] std::vector<OutboxItem> acquire_queue();
    /// Takes back a queue whose items have all been consumed. At most
    /// kMaxSpareQueues spares of at most kMaxSpareCapacity items each are
    /// kept; any other queue is freed.
    void release_queue(std::vector<OutboxItem>&& queue) noexcept;

    /// A burst of a broadcast plus a reply fits without regrowth.
    static constexpr std::size_t kTypicalBurst = 4;
    static constexpr std::size_t kMaxSpareQueues = 256;
    /// A replica's executed batch sends one reply frame per member in one
    /// flush, next to whatever the handler queued before. A queue grown
    /// for the largest leader batch any bench runs (64 members) is kept,
    /// so warm reply bursts stop regrowing their queue from
    /// kTypicalBurst. Only queues that some burst grew reach this size.
    static constexpr std::size_t kMaxSpareCapacity = 128;

  private:
    static void dispatch(void* ctx, sim::NodeId from, sim::NodeId to,
                         Bytes payload);

    sim::Simulator& sim_;
    sim::Network& network_;
    std::unordered_map<sim::NodeId, Handler> handlers_;
    std::vector<std::vector<OutboxItem>> spare_queues_;
};

}  // namespace troxy::net

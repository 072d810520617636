#include "net/fabric.hpp"

#include <utility>

namespace troxy::net {

Fabric::Fabric(sim::Simulator& simulator, sim::Network& network)
    : sim_(simulator), network_(network) {
    spare_queues_.reserve(kMaxSpareQueues);
}

void Fabric::attach(sim::NodeId id, Handler handler) {
    handlers_[id] = std::move(handler);
}

void Fabric::detach(sim::NodeId id) {
    handlers_.erase(id);
}

void Fabric::send(sim::NodeId from, sim::NodeId to, Bytes message) {
    // The payload send path carries the buffer on a slab-recycled packet
    // record and dispatches through a function pointer, so the hot path
    // allocates neither a closure nor a payload copy.
    network_.send(from, to, std::move(message),
                  sim::Network::PayloadTarget{this, &Fabric::dispatch});
}

void Fabric::dispatch(void* ctx, sim::NodeId from, sim::NodeId to,
                      Bytes payload) {
    auto* fabric = static_cast<Fabric*>(ctx);
    const auto it = fabric->handlers_.find(to);
    if (it == fabric->handlers_.end()) {
        // Crashed endpoint: the message dies here, but its buffer does not.
        fabric->network_.recycle(std::move(payload));
        return;
    }
    it->second(from, std::move(payload));
}

std::vector<OutboxItem> Fabric::acquire_queue() {
    if (spare_queues_.empty()) {
        std::vector<OutboxItem> queue;
        queue.reserve(kTypicalBurst);
        return queue;
    }
    std::vector<OutboxItem> queue = std::move(spare_queues_.back());
    spare_queues_.pop_back();
    return queue;
}

void Fabric::release_queue(std::vector<OutboxItem>&& queue) noexcept {
    queue.clear();
    if (queue.capacity() == 0 || queue.capacity() > kMaxSpareCapacity ||
        spare_queues_.size() >= kMaxSpareQueues) {
        return;
    }
    spare_queues_.push_back(std::move(queue));
}

}  // namespace troxy::net

#include "sim/node.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace troxy::sim {

Node::Node(Simulator& simulator, NodeId id, std::string name, int cores)
    : sim_(simulator), id_(id), name_(std::move(name)) {
    TROXY_ASSERT(cores > 0, "node needs at least one core");
    core_free_at_.assign(static_cast<std::size_t>(cores), 0);
}

SimTime Node::reserve_core(Duration cost) noexcept {
    auto it = std::min_element(core_free_at_.begin(), core_free_at_.end());
    const SimTime start = std::max(*it, sim_.now());
    const SimTime done = start + cost;
    *it = done;
    busy_ += cost;
    return done;
}

void Node::exec(Duration cost, EventFn fn) {
    const SimTime done = reserve_core(cost);
    sim_.at(done, std::move(fn));
}

void Node::exec_ordered(Duration cost, EventFn fn,
                        SimTime not_before) {
    SimTime done = reserve_core(cost);
    done = std::max({done, last_ordered_completion_, not_before});
    last_ordered_completion_ = done;
    sim_.at(done, std::move(fn));
}

void Node::charge(Duration cost) { reserve_core(cost); }

}  // namespace troxy::sim

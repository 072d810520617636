#include "sim/fault_plan.hpp"

#include <algorithm>
#include <cstdio>

namespace troxy::sim {

namespace {

/// Upper bound of a random loss window's drop probability (the lower
/// bound is 0.05).
constexpr double kMaxLoss = 0.3;

std::string format_time(SimTime t) {
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%.3fs",
                  static_cast<double>(t) / 1e9);
    return buffer;
}

}  // namespace

std::string FaultEvent::describe() const {
    std::string out = format_time(at) + " ";
    switch (kind) {
        case Kind::CrashHost:
            out += "crash host " + std::to_string(host);
            break;
        case Kind::RestartHost:
            out += "restart host " + std::to_string(host);
            break;
        case Kind::Partition: {
            out += "partition '" + name + "'";
            for (const auto& group : groups) {
                out += " [";
                for (std::size_t i = 0; i < group.size(); ++i) {
                    if (i > 0) out += " ";
                    out += std::to_string(group[i]);
                }
                out += "]";
            }
            break;
        }
        case Kind::Heal:
            out += "heal '" + name + "'";
            break;
        case Kind::LinkDown:
            out += "link down " + std::to_string(a) + "<->" +
                   std::to_string(b);
            break;
        case Kind::LinkUp:
            out += "link up " + std::to_string(a) + "<->" +
                   std::to_string(b);
            break;
        case Kind::Loss: {
            char buffer[64];
            std::snprintf(buffer, sizeof(buffer), "loss %u<->%u p=%.3f",
                          a, b, probability);
            out += buffer;
            break;
        }
    }
    return out;
}

FaultPlan& FaultPlan::crash(SimTime at, int host) {
    FaultEvent e;
    e.at = at;
    e.kind = FaultEvent::Kind::CrashHost;
    e.host = host;
    events_.push_back(std::move(e));
    return *this;
}

FaultPlan& FaultPlan::restart(SimTime at, int host) {
    FaultEvent e;
    e.at = at;
    e.kind = FaultEvent::Kind::RestartHost;
    e.host = host;
    events_.push_back(std::move(e));
    return *this;
}

FaultPlan& FaultPlan::partition(SimTime at, std::string name,
                                std::vector<std::vector<NodeId>> groups) {
    FaultEvent e;
    e.at = at;
    e.kind = FaultEvent::Kind::Partition;
    e.name = std::move(name);
    e.groups = std::move(groups);
    events_.push_back(std::move(e));
    return *this;
}

FaultPlan& FaultPlan::heal(SimTime at, std::string name) {
    FaultEvent e;
    e.at = at;
    e.kind = FaultEvent::Kind::Heal;
    e.name = std::move(name);
    events_.push_back(std::move(e));
    return *this;
}

FaultPlan& FaultPlan::link_down(SimTime at, NodeId a, NodeId b) {
    FaultEvent e;
    e.at = at;
    e.kind = FaultEvent::Kind::LinkDown;
    e.a = a;
    e.b = b;
    events_.push_back(std::move(e));
    return *this;
}

FaultPlan& FaultPlan::link_up(SimTime at, NodeId a, NodeId b) {
    FaultEvent e;
    e.at = at;
    e.kind = FaultEvent::Kind::LinkUp;
    e.a = a;
    e.b = b;
    events_.push_back(std::move(e));
    return *this;
}

FaultPlan& FaultPlan::loss(SimTime at, NodeId a, NodeId b,
                           double probability) {
    FaultEvent e;
    e.at = at;
    e.kind = FaultEvent::Kind::Loss;
    e.a = a;
    e.b = b;
    e.probability = probability;
    events_.push_back(std::move(e));
    return *this;
}

FaultPlan FaultPlan::random(Rng& rng, const RandomOptions& options) {
    FaultPlan plan;
    const SimTime span =
        options.heal_by > options.start ? options.heal_by - options.start : 0;
    if (span == 0) return plan;

    // Each fault is active for 20–70% of the window, starting in its
    // first quarter, so it always heals inside the window.
    const auto window = [&]() {
        const SimTime begin = options.start + span / 4 * rng.next_below(2);
        const SimTime hold =
            span / 5 + rng.next_below(std::max<std::uint64_t>(span / 2, 1));
        return std::pair<SimTime, SimTime>{
            begin, std::min(begin + hold, options.start + span - 1)};
    };

    if (options.hosts > 0) {
        const auto [begin, end] = window();
        const int host = static_cast<int>(
            rng.next_below(static_cast<std::uint64_t>(options.hosts)));
        plan.crash(begin, host);
        plan.restart(end, host);
    }

    const auto& nodes = options.nodes;
    if (nodes.size() >= 2) {
        // A random pair of distinct nodes.
        const auto pair = [&]() {
            const std::size_t x = rng.next_below(nodes.size());
            std::size_t y = rng.next_below(nodes.size() - 1);
            if (y >= x) ++y;
            return std::pair<NodeId, NodeId>{nodes[x], nodes[y]};
        };
        {
            const auto [begin, end] = window();
            // Isolate one random node from the rest.
            const std::size_t isolated = rng.next_below(nodes.size());
            std::vector<NodeId> minority{nodes[isolated]};
            std::vector<NodeId> majority;
            for (std::size_t n = 0; n < nodes.size(); ++n) {
                if (n != isolated) majority.push_back(nodes[n]);
            }
            // Named as when plans held several partitions, so recorded
            // plan traces still match.
            plan.partition(begin, "chaos-p0",
                           {std::move(minority), std::move(majority)});
            plan.heal(end, "chaos-p0");
        }
        {
            const auto [begin, end] = window();
            const auto [a, b] = pair();
            plan.link_down(begin, a, b);
            plan.link_up(end, a, b);
        }
        {
            const auto [begin, end] = window();
            const auto [a, b] = pair();
            const double p = 0.05 + rng.next_double() * (kMaxLoss - 0.05);
            plan.loss(begin, a, b, p);
            plan.loss(end, a, b, 0.0);
        }
    }
    return plan;
}

void FaultPlan::schedule(Simulator& simulator, Network& network,
                         HostAction crash, HostAction restart) const {
    for (const FaultEvent& event : events_) {
        FaultEvent copy = event;
        simulator.at(
            event.at,
            [&network, crash, restart, copy = std::move(copy)]() {
                switch (copy.kind) {
                    case FaultEvent::Kind::CrashHost:
                        if (crash) crash(copy.host);
                        break;
                    case FaultEvent::Kind::RestartHost:
                        if (restart) restart(copy.host);
                        break;
                    case FaultEvent::Kind::Partition:
                        network.partition(copy.name, copy.groups);
                        break;
                    case FaultEvent::Kind::Heal:
                        network.heal_partition(copy.name);
                        break;
                    case FaultEvent::Kind::LinkDown:
                        network.fail_link_bidirectional(copy.a, copy.b);
                        break;
                    case FaultEvent::Kind::LinkUp:
                        network.heal_link_bidirectional(copy.a, copy.b);
                        break;
                    case FaultEvent::Kind::Loss:
                        network.set_loss_bidirectional(copy.a, copy.b,
                                                       copy.probability);
                        break;
                }
            });
    }
}

std::string FaultPlan::describe() const {
    std::vector<const FaultEvent*> ordered;
    ordered.reserve(events_.size());
    for (const FaultEvent& e : events_) ordered.push_back(&e);
    std::stable_sort(ordered.begin(), ordered.end(),
                     [](const FaultEvent* a, const FaultEvent* b) {
                         return a->at < b->at;
                     });
    std::string out;
    for (const FaultEvent* e : ordered) {
        out += e->describe();
        out += "\n";
    }
    return out;
}

}  // namespace troxy::sim

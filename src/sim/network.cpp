#include "sim/network.hpp"

#include <algorithm>

namespace troxy::sim {

LatencyModel LatencyModel::constant(Duration latency) noexcept {
    LatencyModel m;
    m.mean_ = latency;
    return m;
}

LatencyModel LatencyModel::normal(Duration mean, Duration stddev,
                                  Duration floor) noexcept {
    LatencyModel m;
    m.mean_ = mean;
    m.stddev_ = stddev;
    m.floor_ = floor;
    return m;
}

Duration LatencyModel::sample(Rng& rng) const noexcept {
    if (stddev_ == 0) return mean_;
    const double value = rng.next_normal(static_cast<double>(mean_),
                                         static_cast<double>(stddev_));
    const double floored = std::max(value, static_cast<double>(floor_));
    return static_cast<Duration>(floored);
}

LinkSpec LinkSpec::lan() noexcept {
    LinkSpec spec;
    spec.latency = LatencyModel::constant(microseconds(50));
    spec.bandwidth_bits_per_sec = 1e9;
    return spec;
}

LinkSpec LinkSpec::wan() noexcept {
    LinkSpec spec;
    // 100 ± 20 ms normal distribution per §VI-C, floored at 10 ms.
    spec.latency = LatencyModel::normal(milliseconds(100), milliseconds(20),
                                        milliseconds(10));
    spec.bandwidth_bits_per_sec = 1e9;
    return spec;
}

Network::Network(Simulator& simulator)
    : sim_(simulator),
      rng_(simulator.rng().fork(0x6e657477)),
      fault_rng_(simulator.rng().fork(0x6661756c)) {}

void Network::set_default_link(const LinkSpec& spec) { default_spec_ = spec; }

void Network::set_link(NodeId from, NodeId to, const LinkSpec& spec) {
    links_[{from, to}] = spec;
}

void Network::set_link_bidirectional(NodeId a, NodeId b,
                                     const LinkSpec& spec) {
    set_link(a, b, spec);
    set_link(b, a, spec);
}

const LinkSpec& Network::spec_for(NodeId from, NodeId to) const {
    const auto it = links_.find({from, to});
    return it != links_.end() ? it->second : default_spec_;
}

void Network::set_nic_group(NodeId node, int group,
                            double bandwidth_bits_per_sec) {
    nic_assignment_[node] = group;
    nic_groups_[group].bandwidth_bits_per_sec = bandwidth_bits_per_sec;
}

// ------------------------------------------------------- fault injection

void Network::set_loss(NodeId from, NodeId to, double probability) {
    if (probability <= 0.0) {
        loss_.erase({from, to});
    } else {
        loss_[{from, to}] = std::min(probability, 1.0);
    }
}

void Network::set_loss_bidirectional(NodeId a, NodeId b, double probability) {
    set_loss(a, b, probability);
    set_loss(b, a, probability);
}

void Network::fail_link(NodeId from, NodeId to) { ++links_down_[{from, to}]; }

void Network::heal_link(NodeId from, NodeId to) {
    const auto it = links_down_.find({from, to});
    if (it == links_down_.end()) return;
    if (--it->second <= 0) links_down_.erase(it);
}

void Network::fail_link_bidirectional(NodeId a, NodeId b) {
    fail_link(a, b);
    fail_link(b, a);
}

void Network::heal_link_bidirectional(NodeId a, NodeId b) {
    heal_link(a, b);
    heal_link(b, a);
}

void Network::partition(const std::string& name,
                        std::vector<std::vector<NodeId>> groups) {
    std::map<NodeId, int> assignment;
    for (std::size_t g = 0; g < groups.size(); ++g) {
        for (const NodeId node : groups[g]) {
            assignment[node] = static_cast<int>(g);
        }
    }
    partitions_[name] = std::move(assignment);
}

void Network::heal_partition(const std::string& name) {
    partitions_.erase(name);
}

bool Network::reachable(NodeId from, NodeId to) const {
    if (from != to && links_down_.contains({from, to})) return false;
    for (const auto& [name, assignment] : partitions_) {
        const auto a = assignment.find(from);
        const auto b = assignment.find(to);
        if (a != assignment.end() && b != assignment.end() &&
            a->second != b->second) {
            return false;
        }
    }
    return true;
}

bool Network::fault_drops(NodeId from, NodeId to, std::size_t bytes) {
    if (from != to && links_down_.contains({from, to})) {
        ++drops_.by_link_down;
        drops_.bytes += bytes;
        return true;
    }
    if (!reachable(from, to)) {
        ++drops_.by_partition;
        drops_.bytes += bytes;
        return true;
    }
    const auto loss = loss_.find({from, to});
    if (loss != loss_.end() &&
        fault_rng_.next_double() < loss->second) {
        ++drops_.by_loss;
        drops_.bytes += bytes;
        return true;
    }
    return false;
}

Network::Packet* Network::alloc_packet() {
    if (free_packets_ != nullptr) {
        Packet* packet = free_packets_;
        free_packets_ = packet->next_free;
        packet->next_free = nullptr;
        ++packet_reuses_;
        return packet;
    }
    ++packet_allocs_;
    return &packet_slab_.emplace_back();
}

void Network::free_packet(Packet* packet) noexcept {
    packet->target = PayloadTarget{};
    packet->frame_bytes = 0;
    packet->credited = false;
    packet->next_free = free_packets_;
    free_packets_ = packet;
}

void Network::send(NodeId from, NodeId to, Bytes payload,
                   PayloadTarget target) {
    const std::size_t bytes = payload.size();
    ++messages_sent_;
    bytes_sent_ += bytes;

    if (fault_drops(from, to, bytes)) {
        // Dropped messages still retire their buffer into the pool, so a
        // lossy run recycles as well as a clean one.
        if (pool_.release_counted(std::move(payload))) {
            ++drops_.pool_hits;
        } else {
            ++drops_.pool_misses;
        }
        return;
    }

    Packet* packet = alloc_packet();
    packet->payload = std::move(payload);
    packet->target = target;
    packet->from = from;
    packet->to = to;
    send_packet(bytes, packet);
}

void Network::send_packet(std::size_t bytes, Packet* packet) {
    const NodeId from = packet->from;
    const NodeId to = packet->to;

    // Credit window (kernel-bypass transports): a pair with `window`
    // records already in flight parks the packet; release_credit()
    // relaunches it when a delivery returns a credit. Latency is sampled
    // at (re)launch time, so stalled packets draw from the RNG in the
    // order they actually depart — deterministic per seed.
    if (credit_window_ > 0 && !packet->credited) {
        std::uint32_t& in_flight = credits_in_flight_[{from, to}];
        if (in_flight >= credit_window_) {
            packet->frame_bytes = bytes;
            credit_stalled_[{from, to}].push_back(packet);
            ++wire_stats_.credit_stalls;
            return;
        }
        ++in_flight;
        packet->credited = true;
    }

    const LinkSpec& spec = spec_for(from, to);

    // Wire framing overhead (Ethernet + IP + TCP headers, amortized).
    const std::size_t wire_bytes = bytes + 66;
    const double wire_bits = static_cast<double>(wire_bytes) * 8.0;
    const Duration latency = spec.latency.sample(rng_);

    const auto from_group = nic_assignment_.find(from);
    const auto to_group = nic_assignment_.find(to);

    // Shared-NIC contention: the sender's machine must finish putting the
    // message on the wire, and the receiver's machine must have taken it
    // off, before it is delivered. Different node pairs on the same
    // machines therefore compete for bandwidth. Nodes without a NIC group
    // use the per-link bandwidth instead.
    SimTime egress_done = sim_.now();
    if (from_group != nic_assignment_.end()) {
        NicGroup& nic = nic_groups_[from_group->second];
        const Duration tx = static_cast<Duration>(
            wire_bits * 1e9 / nic.bandwidth_bits_per_sec);
        egress_done = std::max(sim_.now(), nic.egress_free_at) + tx;
        nic.egress_free_at = egress_done;
    } else if (to_group == nic_assignment_.end()) {
        egress_done += static_cast<Duration>(wire_bits * 1e9 /
                                             spec.bandwidth_bits_per_sec);
    }

    SimTime arrival = egress_done + latency;

    // FIFO per directed pair, like a TCP stream: a later send on the same
    // pair never overtakes an earlier one, even under latency jitter.
    SimTime& last = last_delivery_[{from, to}];
    arrival = std::max(arrival, last + 1);
    last = arrival;

    if (to_group != nic_assignment_.end()) {
        // Receive-side bandwidth must be booked in true *arrival* order —
        // booking at send time would let an early-sent-but-jitter-delayed
        // packet block later-sent packets that physically arrive first.
        // An intermediate event runs at arrival time (the simulator
        // executes those in time order), so the scalar ingress chain is
        // correct.
        packet->wire_bits = wire_bits;
        packet->ingress_group = to_group->second;
        sim_.at(arrival, [this, packet] { ingress_packet(packet); });
        return;
    }
    sim_.at(arrival, [this, packet] { deliver_packet(packet); });
}

void Network::ingress_packet(Packet* packet) {
    NicGroup& nic = nic_groups_[packet->ingress_group];
    const Duration rx = static_cast<Duration>(
        packet->wire_bits * 1e9 / nic.bandwidth_bits_per_sec);
    const SimTime done = std::max(sim_.now(), nic.ingress_free_at) + rx;
    nic.ingress_free_at = done;
    sim_.at(done, [this, packet] { deliver_packet(packet); });
}

void Network::release_credit(NodeId from, NodeId to) {
    const auto pair = std::make_pair(from, to);
    const auto it = credits_in_flight_.find(pair);
    if (it == credits_in_flight_.end()) return;
    if (it->second > 0) --it->second;
    const auto stalled = credit_stalled_.find(pair);
    if (stalled == credit_stalled_.end() || stalled->second.empty()) return;
    Packet* next = stalled->second.front();
    stalled->second.pop_front();
    send_packet(next->frame_bytes, next);
}

void Network::deliver_packet(Packet* packet) {
    if (packet->credited) {
        packet->credited = false;
        release_credit(packet->from, packet->to);
    }
    // The target may re-enter the network, so the packet is freed first.
    const PayloadTarget target = packet->target;
    const NodeId from = packet->from;
    const NodeId to = packet->to;
    Bytes payload = std::move(packet->payload);
    free_packet(packet);
    target.fn(target.ctx, from, to, std::move(payload));
}

}  // namespace troxy::sim

// Simulated network.
//
// Links between node pairs have a latency distribution plus a bandwidth
// term (serialization delay), matching the paper's setup: a 1 Gbps LAN and
// a WAN emulated by adding 100 ± 20 ms normally-distributed delay on the
// client NICs (§VI-A, §VI-C). Delivery per directed pair is FIFO, like a
// TCP connection.
//
// Fault injection happens at the network level: per-directed-pair
// probabilistic loss, explicit link-down state (flapping), and named
// partitions (node-set splits). All stochastic decisions draw from a
// dedicated RNG stream forked from the simulator's seed, so a fault
// schedule replays bit-identically. Drops are counted per cause so tests
// can assert on exact replay traces.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "sim/node.hpp"
#include "sim/pool.hpp"
#include "sim/simulator.hpp"

namespace troxy::sim {

/// One-way latency model for a link.
class LatencyModel {
  public:
    static LatencyModel constant(Duration latency) noexcept;

    /// Normal(mean, stddev) clamped at `floor` to avoid negative samples.
    static LatencyModel normal(Duration mean, Duration stddev,
                               Duration floor = 0) noexcept;

    [[nodiscard]] Duration sample(Rng& rng) const noexcept;
    [[nodiscard]] Duration mean() const noexcept { return mean_; }

  private:
    Duration mean_ = 0;
    Duration stddev_ = 0;
    Duration floor_ = 0;
};

struct LinkSpec {
    LatencyModel latency = LatencyModel::constant(0);
    double bandwidth_bits_per_sec = 1e9;  // 1 Gbps default

    /// LAN link inside the cluster: ~0.1 ms RTT/2, 1 Gbps.
    static LinkSpec lan() noexcept;

    /// Paper's emulated WAN client link. The testbed adds 100 ± 20 ms of
    /// normally-distributed delay with `tc netem` on the client NIC
    /// (§VI-C); a NIC-level delay affects every packet through that NIC,
    /// so *both* directions of a client↔server link see the full
    /// distribution. We therefore sample 100 ± 20 ms independently per
    /// direction (floored at 10 ms).
    static LinkSpec wan() noexcept;
};

/// Message-drop statistics, broken down by injected cause.
struct DropCounters {
    std::uint64_t by_loss = 0;       // probabilistic per-link loss
    std::uint64_t by_link_down = 0;  // explicit link failure
    std::uint64_t by_partition = 0;  // named partition separation
    std::uint64_t bytes = 0;         // payload bytes across all causes
    // Payload recycling on the drop path: buffers of dropped messages
    // returned to the size-class pool (hit) vs discarded (miss).
    std::uint64_t pool_hits = 0;
    std::uint64_t pool_misses = 0;

    [[nodiscard]] std::uint64_t total() const noexcept {
        return by_loss + by_link_down + by_partition;
    }
};

/// Transport wire-path statistics.
struct WireStats {
    std::uint64_t credit_stalls = 0;  // sends held for a credit
};

class Network {
  public:
    explicit Network(Simulator& simulator);

    /// Fallback spec for pairs without an explicit link.
    void set_default_link(const LinkSpec& spec);

    /// Directed link override.
    void set_link(NodeId from, NodeId to, const LinkSpec& spec);

    /// Symmetric convenience: sets both directions.
    void set_link_bidirectional(NodeId a, NodeId b, const LinkSpec& spec);

    /// Assigns a node to a shared NIC group (a physical machine): all
    /// traffic of the group's members contends for the same egress and
    /// ingress bandwidth. Mirrors the paper's setup of many logical
    /// clients per client machine and four 1 Gbps NICs per server.
    void set_nic_group(NodeId node, int group,
                       double bandwidth_bits_per_sec);

    // ---------------------------------------------------- fault injection

    /// Independent per-message drop probability on the directed pair
    /// (0 disables). Sampling is deterministic per seed.
    void set_loss(NodeId from, NodeId to, double probability);

    /// Symmetric convenience: same loss rate in both directions.
    void set_loss_bidirectional(NodeId a, NodeId b, double probability);

    /// Takes the directed link down: every message on it is dropped until
    /// heal_link(). Modelling a cable pull / switch-port failure.
    void fail_link(NodeId from, NodeId to);
    void heal_link(NodeId from, NodeId to);
    void fail_link_bidirectional(NodeId a, NodeId b);
    void heal_link_bidirectional(NodeId a, NodeId b);

    /// Installs a named partition: nodes listed in different groups cannot
    /// exchange messages; nodes absent from every group are unaffected.
    /// Multiple partitions may be active; a message passes only if no
    /// active partition separates its endpoints.
    void partition(const std::string& name,
                   std::vector<std::vector<NodeId>> groups);
    void heal_partition(const std::string& name);

    /// True if an active fault (loss excluded) would block this pair.
    [[nodiscard]] bool reachable(NodeId from, NodeId to) const;

    /// Payload delivery target: a plain function pointer plus context, so
    /// in-flight messages carry no std::function.
    struct PayloadTarget {
        void* ctx = nullptr;
        void (*fn)(void* ctx, NodeId from, NodeId to, Bytes payload) =
            nullptr;
    };

    /// Hands `payload` to `target` on the destination after latency plus
    /// serialization delay for its size. FIFO per directed pair. The
    /// network owns the buffer while the message is in flight
    /// (slab-recycled packet records, no per-message closure allocation).
    /// Messages blocked or lost by an injected fault are counted and
    /// discarded, their payloads recycled into the buffer pool.
    void send(NodeId from, NodeId to, Bytes payload, PayloadTarget target);

    /// Bounded in-flight credit window per directed pair (kernel-bypass
    /// transports post a fixed number of RX descriptors per peer). While
    /// a pair has `window` records in flight, further sends queue and
    /// depart as deliveries return credits. 0 = unlimited (default; the
    /// kernel socket model — no behaviour change).
    void set_credit_window(std::uint32_t window) noexcept {
        credit_window_ = window;
    }
    [[nodiscard]] std::uint32_t credit_window() const noexcept {
        return credit_window_;
    }

    [[nodiscard]] const WireStats& wire_stats() const noexcept {
        return wire_stats_;
    }

    /// The network's size-class payload pool. Every sender draws its
    /// wire frames from it and every receiver recycle()s the frames it
    /// consumed, closing the allocation loop across the message cycle.
    [[nodiscard]] BufferPool& pool() noexcept { return pool_; }
    void recycle(Bytes&& buffer) noexcept {
        pool_.release(std::move(buffer));
    }

    [[nodiscard]] std::uint64_t messages_sent() const noexcept {
        return messages_sent_;
    }
    [[nodiscard]] std::uint64_t bytes_sent() const noexcept {
        return bytes_sent_;
    }
    [[nodiscard]] const DropCounters& drops() const noexcept {
        return drops_;
    }
    /// In-flight packet-record slab behaviour (fresh vs freelist).
    [[nodiscard]] std::uint64_t packet_allocs() const noexcept {
        return packet_allocs_;
    }
    [[nodiscard]] std::uint64_t packet_reuses() const noexcept {
        return packet_reuses_;
    }

  private:
    struct NicGroup {
        double bandwidth_bits_per_sec = 1e9;
        SimTime egress_free_at = 0;
        SimTime ingress_free_at = 0;
    };

    /// In-flight message record, slab-allocated and freelist-recycled.
    struct Packet {
        Bytes payload;
        PayloadTarget target;
        NodeId from = 0;
        NodeId to = 0;
        double wire_bits = 0.0;
        int ingress_group = 0;
        std::size_t frame_bytes = 0;  // for credit-stalled re-sends
        bool credited = false;        // holds one credit of its pair
        Packet* next_free = nullptr;
    };

    [[nodiscard]] const LinkSpec& spec_for(NodeId from, NodeId to) const;
    [[nodiscard]] bool fault_drops(NodeId from, NodeId to,
                                   std::size_t bytes);

    Packet* alloc_packet();
    void free_packet(Packet* packet) noexcept;
    /// Shared latency/bandwidth/FIFO path; consumes the packet.
    void send_packet(std::size_t bytes, Packet* packet);
    void ingress_packet(Packet* packet);
    void deliver_packet(Packet* packet);
    /// Returns the credit a delivered/freed packet held; launches the
    /// next stalled packet of its pair, if any.
    void release_credit(NodeId from, NodeId to);

    Simulator& sim_;
    Rng rng_;
    Rng fault_rng_;  // separate stream: enabling loss must not perturb
                     // the latency-jitter sequence of unaffected links
    LinkSpec default_spec_;
    std::map<std::pair<NodeId, NodeId>, LinkSpec> links_;
    std::map<std::pair<NodeId, NodeId>, SimTime> last_delivery_;
    std::map<NodeId, int> nic_assignment_;
    std::map<int, NicGroup> nic_groups_;
    std::map<std::pair<NodeId, NodeId>, double> loss_;
    std::map<std::pair<NodeId, NodeId>, int> links_down_;  // down-count
    std::map<std::string, std::map<NodeId, int>> partitions_;  // node→group
    std::uint64_t messages_sent_ = 0;
    std::uint64_t bytes_sent_ = 0;
    DropCounters drops_;
    WireStats wire_stats_;
    BufferPool pool_;
    std::deque<Packet> packet_slab_;
    Packet* free_packets_ = nullptr;
    std::uint64_t packet_allocs_ = 0;
    std::uint64_t packet_reuses_ = 0;
    std::uint32_t credit_window_ = 0;
    std::map<std::pair<NodeId, NodeId>, std::uint32_t> credits_in_flight_;
    std::map<std::pair<NodeId, NodeId>, std::deque<Packet*>> credit_stalled_;
};

}  // namespace troxy::sim

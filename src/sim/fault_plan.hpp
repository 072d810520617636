// Deterministic fault schedules.
//
// A FaultPlan is a timeline of fault events — host crash/restart, named
// partitions with heal, link failures (flapping) and probabilistic loss
// windows — that is installed onto a Simulator/Network pair. Host-level
// events are delivered through caller-supplied callbacks so the plan
// stays agnostic of what a "host" is (a TroxyReplicaHost, a PBFT replica,
// a middlebox). Plans are plain data: they can be built explicitly for a
// regression test, generated pseudo-randomly from a seed for chaos runs,
// serialized to a human-readable trace with describe(), and replayed
// bit-identically — the same plan on the same seed produces the same
// event interleaving, message counters and drop counters.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"

namespace troxy::sim {

struct FaultEvent {
    enum class Kind : std::uint8_t {
        CrashHost,    // host crashes, losing volatile state
        RestartHost,  // host restarts empty and rejoins
        Partition,    // named node-set split
        Heal,         // removes a named partition
        LinkDown,     // bidirectional link failure
        LinkUp,       // heals a LinkDown
        Loss,         // sets bidirectional loss probability (0 clears)
    };

    SimTime at = 0;
    Kind kind = Kind::CrashHost;
    int host = -1;                           // CrashHost / RestartHost
    std::string name;                        // Partition / Heal
    std::vector<std::vector<NodeId>> groups; // Partition
    NodeId a = 0, b = 0;                     // LinkDown / LinkUp / Loss
    double probability = 0.0;                // Loss

    [[nodiscard]] std::string describe() const;
};

class FaultPlan {
  public:
    FaultPlan& crash(SimTime at, int host);
    FaultPlan& restart(SimTime at, int host);
    FaultPlan& partition(SimTime at, std::string name,
                         std::vector<std::vector<NodeId>> groups);
    FaultPlan& heal(SimTime at, std::string name);
    FaultPlan& link_down(SimTime at, NodeId a, NodeId b);
    FaultPlan& link_up(SimTime at, NodeId a, NodeId b);
    FaultPlan& loss(SimTime at, NodeId a, NodeId b, double probability);

    /// Generation knobs for random(), which places one fault of each
    /// kind (host crash, partition, link flap, loss window) inside
    /// [start, heal_by]: every crash is restarted, every partition and
    /// link failure healed, and every loss window cleared no later than
    /// heal_by — after that instant the network is fault-free, which is
    /// what chaos liveness checks rely on.
    struct RandomOptions {
        SimTime start = 0;
        SimTime heal_by = 0;
        /// Crashable host indices are [0, hosts); one host crashes.
        int hosts = 0;
        /// Node ids eligible for partition/link/loss events.
        std::vector<NodeId> nodes;
    };

    /// Seeded pseudo-random plan; identical Rng state yields an identical
    /// plan (the generator is the determinism boundary for chaos runs).
    static FaultPlan random(Rng& rng, const RandomOptions& options);

    using HostAction = std::function<void(int host)>;

    /// Installs every event on the simulator. Network-level events mutate
    /// `network` directly; host-level events invoke the callbacks.
    void schedule(Simulator& simulator, Network& network, HostAction crash,
                  HostAction restart) const;

    [[nodiscard]] const std::vector<FaultEvent>& events() const noexcept {
        return events_;
    }
    [[nodiscard]] bool empty() const noexcept { return events_.empty(); }

    /// One line per event, in time order — the reproduction trace to log
    /// next to the seed when a chaos run fails.
    [[nodiscard]] std::string describe() const;

  private:
    std::vector<FaultEvent> events_;
};

}  // namespace troxy::sim

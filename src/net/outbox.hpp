// Deferred send buffer.
//
// A message handler runs synchronously in simulation but its CPU cost must
// elapse before its outgoing messages hit the wire. Handlers queue sends
// into an Outbox while a CostMeter accumulates their cost; flush()
// schedules the actual transmissions after the metered time on the node's
// earliest-free core.
//
// With coalescing enabled, flush() groups the queued messages by
// destination and ships each group as ONE Bundle frame — one wire record
// per destination burst. The per-record cost is charged once per emitted
// *Bundle* record: a destination with a single message keeps its original
// frame and pays exactly what the uncoalesced path pays, so batch-1
// traffic is cost- and byte-identical whether coalescing is on or off.
//
// With zero_copy enabled, Bundle frames are built as FragmentChains —
// inline framing headers plus the queued messages referenced in place —
// and shipped through the scatter-gather network path: no per-burst
// flatten copy, and the chain storage itself is recycled by the network.
// A transport profile, when given, charges the per-record send cost
// (syscall or doorbell plus staging copies) to the flushing meter; the
// zero-copy path pays the per-byte cost only on inline header bytes.
#pragma once

#include <map>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "enclave/meter.hpp"
#include "net/envelope.hpp"
#include "net/fabric.hpp"
#include "net/fragment.hpp"
#include "sim/cost.hpp"
#include "sim/event_fn.hpp"
#include "sim/node.hpp"

namespace troxy::net {

class Outbox {
  public:
    Outbox(Fabric& fabric, sim::Node& node, bool coalesce = false,
           sim::Duration record_cost = 0, bool zero_copy = false,
           const sim::TransportProfile* transport = nullptr)
        : fabric_(fabric),
          node_(node),
          coalesce_(coalesce),
          zero_copy_(zero_copy),
          record_cost_(record_cost),
          transport_(transport) {}

    /// Queues `message` for `to`; transmitted at flush time.
    void send(sim::NodeId to, Bytes message) {
        Queued q;
        q.to = to;
        q.frame = std::move(message);
        enqueue(std::move(q));
    }

    /// Queues an already-chained frame (e.g. a zero-copy state-transfer
    /// response whose chunk payloads are referenced in place). Travels
    /// through the same coalescing path as flat messages: a coalesced
    /// Bundle splices the chain's fragments in, keeping the materialized
    /// bytes identical to what send() of the flattened frame would ship.
    void send_chain(sim::NodeId to, sim::FragmentChain chain) {
        Queued q;
        q.to = to;
        q.chain = std::move(chain);
        q.chained = true;
        enqueue(std::move(q));
    }

    /// Queues a callback to run at flush time (local effects that must
    /// wait for the processing delay, e.g. completing a client reply).
    /// Callbacks run after every queued frame has gone out, in the order
    /// they were deferred.
    void defer(sim::EventFn fn) {
        Queued q;
        q.local = std::move(fn);
        enqueue(std::move(q));
    }

    /// Schedules all queued sends and callbacks after `meter`'s
    /// accumulated cost; resets the meter. `not_before` floors the
    /// completion (used for enclave-thread serialization) without
    /// charging CPU for the wait.
    void flush(enclave::CostMeter& meter, sim::SimTime not_before = 0) {
        if (queue_.empty()) {
            node_.charge(meter.take());
            return;
        }
        std::vector<Queued> queue = collect_frames(meter);
        // NB: the Outbox itself is usually stack-allocated and gone by the
        // time this event fires — capture the long-lived Fabric, not this.
        // exec_ordered keeps the node's wire order equal to its message
        // processing order (single egress path), which the protocol's
        // trusted-counter continuity and the secure channel's stream
        // semantics both rely on.
        auto deliver = [fabric = &fabric_, from = node_.id(),
                        queue = std::move(queue)]() mutable {
            for (Queued& q : queue) {
                if (q.local) continue;
                if (q.chained) {
                    fabric->send_chain(from, q.to, std::move(q.chain));
                } else {
                    fabric->send(from, q.to, std::move(q.frame));
                }
            }
            for (Queued& q : queue) {
                if (q.local) q.local();
            }
        };
        static_assert(sizeof(deliver) <= sim::EventFn::kInlineSize &&
                          std::is_nothrow_move_constructible_v<
                              decltype(deliver)>,
                      "an Outbox flush must schedule an inline event");
        node_.exec_ordered(meter.take(), std::move(deliver), not_before);
    }

    [[nodiscard]] sim::Node& node() noexcept { return node_; }
    [[nodiscard]] Fabric& fabric() noexcept { return fabric_; }

  private:
    /// One queued item, in queue order: a wire frame for `to` — a
    /// contiguous buffer, or a fragment chain when `chained` — or, when
    /// `local` is set, a deferred callback instead of a frame. Frames and
    /// callbacks share one queue so the flush event captures a single
    /// vector and fits EventFn's inline storage.
    struct Queued {
        sim::NodeId to = 0;
        bool chained = false;
        Bytes frame;
        sim::FragmentChain chain;
        sim::EventFn local;

        [[nodiscard]] std::size_t size() const noexcept {
            return chained ? chain.size() : frame.size();
        }
    };

    /// Every flush hands its queue to the event, so a handler pays for
    /// one queue buffer anyway; sizing it for a typical burst (a
    /// broadcast plus a reply) on first use skips the 1 -> 2 -> 4 regrowth.
    static constexpr std::size_t kTypicalBurst = 4;

    void enqueue(Queued&& q) {
        if (queue_.capacity() == 0) queue_.reserve(kTypicalBurst);
        queue_.push_back(std::move(q));
    }

    /// Turns the queue into wire frames, grouping consecutive-by-
    /// destination messages into Bundle frames when coalescing. Order
    /// within a destination is preserved (stable grouping); a destination
    /// with a single message keeps its original frame. Deferred callbacks
    /// keep their relative order. Without coalescing the queue itself is
    /// returned. Charges `meter` the per-record cost for each emitted
    /// frame and, when a transport profile is set, the per-frame send
    /// cost.
    std::vector<Queued> collect_frames(enclave::CostMeter& meter) {
        std::vector<Queued> frames = std::move(queue_);
        queue_.clear();
        if (coalesce_) frames = coalesce(std::move(frames));
        // One per-record charge per emitted wire record: a coalesced
        // burst costs one record, and a singleton group costs exactly
        // what the same message costs uncoalesced — no Bundle surcharge.
        for (const Queued& f : frames) {
            if (f.local) continue;
            meter.add(record_cost_);
            if (transport_ != nullptr) {
                meter.add(transport_->tx(f.chained ? f.chain.copied_bytes()
                                                   : f.frame.size()));
            }
        }
        return frames;
    }

    std::vector<Queued> coalesce(std::vector<Queued> sends) {
        std::map<sim::NodeId, std::vector<Queued>> groups;
        std::vector<sim::NodeId> order;
        std::vector<Queued> locals;
        for (Queued& q : sends) {
            if (q.local) {
                locals.push_back(std::move(q));
                continue;
            }
            auto [it, inserted] = groups.try_emplace(q.to);
            if (inserted) order.push_back(q.to);
            it->second.push_back(std::move(q));
        }
        std::vector<Queued> frames;
        frames.reserve(order.size() + locals.size());
        for (const sim::NodeId to : order) {
            auto& burst = groups[to];
            if (burst.size() == 1) {
                // Batch-1: the original frame travels unchanged.
                frames.push_back(std::move(burst.front()));
                continue;
            }
            Queued f;
            f.to = to;
            if (zero_copy_) {
                // Mixed Bundle chain: flat messages are referenced as
                // Owned payloads, already-chained messages splice their
                // fragments in under the same length prefix —
                // materialized bytes match make_bundle() of the flattened
                // burst exactly.
                f.chain = fabric_.network().acquire_chain();
                append_bundle_head(f.chain, burst.size());
                for (Queued& p : burst) {
                    append_bundle_prefix(f.chain, p.size());
                    if (p.chained) {
                        f.chain.splice(std::move(p.chain));
                        fabric_.network().recycle_chain(std::move(p.chain));
                    } else {
                        f.chain.append_owned(std::move(p.frame));
                    }
                }
                f.chained = true;
            } else {
                sim::BufferPool& pool = fabric_.network().pool();
                std::vector<Bytes> flat;
                flat.reserve(burst.size());
                for (Queued& p : burst) {
                    if (p.chained) {
                        flat.push_back(p.chain.materialize(&pool));
                        p.chain.recycle(pool);
                        fabric_.network().recycle_chain(std::move(p.chain));
                    } else {
                        flat.push_back(std::move(p.frame));
                    }
                }
                f.frame = make_bundle(flat);
            }
            frames.push_back(std::move(f));
        }
        for (Queued& q : locals) frames.push_back(std::move(q));
        return frames;
    }

    Fabric& fabric_;
    sim::Node& node_;
    bool coalesce_ = false;
    bool zero_copy_ = false;
    sim::Duration record_cost_ = 0;
    const sim::TransportProfile* transport_ = nullptr;
    std::vector<Queued> queue_;
};

}  // namespace troxy::net

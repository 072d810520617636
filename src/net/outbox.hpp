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
// per destination burst. A destination with a single message keeps its
// original frame, so batch-1 traffic is cost- and byte-identical whether
// coalescing is on or off.
//
// A transport profile, when given, charges the per-record send cost
// (syscall or doorbell plus staging copies) to the flushing meter once
// per emitted record: a coalesced burst costs one record. Every frame
// stages all of its bytes, except a coalesced Bundle under a
// scatter-gather transport: that one stages only its 3-byte head and
// 4-byte length prefixes, the messages going out by reference.
//
// Queue storage is recycled: the first enqueue takes a spare queue from
// the Fabric, and the flush event hands it back once its frames are on
// the wire, so a warm Outbox allocates no queue storage. Frame storage
// is recycled too: pool() is the network's buffer pool, which every
// sender draws its frames from, and a coalesced Bundle is drawn from it
// while the members it copied go back to it.
#pragma once

#include <type_traits>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/bytes.hpp"
#include "common/serialize.hpp"
#include "enclave/meter.hpp"
#include "net/envelope.hpp"
#include "net/fabric.hpp"
#include "sim/cost.hpp"
#include "sim/event_fn.hpp"
#include "sim/node.hpp"
#include "sim/pool.hpp"

namespace troxy::net {

class Outbox {
  public:
    Outbox(Fabric& fabric, sim::Node& node, bool coalesce = false,
           const sim::TransportProfile* transport = nullptr)
        : fabric_(fabric),
          node_(node),
          coalesce_(coalesce),
          transport_(transport) {}

    /// Queues `message` for `to`; transmitted at flush time.
    void send(sim::NodeId to, Bytes message) {
        OutboxItem& q = enqueue();
        q.to = to;
        q.frame = std::move(message);
    }

    /// Queues a callback to run at flush time (local effects that must
    /// wait for the processing delay, e.g. completing a client reply).
    /// Callbacks run after every queued frame has gone out, in the order
    /// they were deferred.
    void defer(sim::EventFn fn) { enqueue().local = std::move(fn); }

    /// Schedules all queued sends and callbacks after `meter`'s
    /// accumulated cost; resets the meter. `not_before` floors the
    /// completion (used for enclave-thread serialization) without
    /// charging CPU for the wait.
    void flush(enclave::CostMeter& meter, sim::SimTime not_before = 0) {
        if (queue_.empty()) {
            node_.charge(meter.take());
            return;
        }
        std::vector<OutboxItem> queue = collect_frames(meter);
        // NB: the Outbox itself is usually stack-allocated and gone by the
        // time this event fires — capture the long-lived Fabric, not this.
        // exec_ordered keeps the node's wire order equal to its message
        // processing order (single egress path), which the protocol's
        // trusted-counter continuity and the secure channel's stream
        // semantics both rely on. The emptied queue goes back to the
        // Fabric's spare list for the next enqueue.
        auto deliver = [fabric = &fabric_, from = node_.id(),
                        queue = std::move(queue)]() mutable {
            for (OutboxItem& q : queue) {
                if (!q.local) fabric->send(from, q.to, std::move(q.frame));
            }
            for (OutboxItem& q : queue) {
                if (q.local) q.local();
            }
            fabric->release_queue(std::move(queue));
        };
        static_assert(sizeof(deliver) <= sim::EventFn::kInlineSize &&
                          std::is_nothrow_move_constructible_v<
                              decltype(deliver)>,
                      "an Outbox flush must schedule an inline event");
        node_.exec_ordered(meter.take(), std::move(deliver), not_before);
    }

    /// The pool a frame for send() comes from.
    [[nodiscard]] sim::BufferPool& pool() noexcept {
        return fabric_.network().pool();
    }

  private:
    /// Appends a blank item; the first enqueue takes a spare queue from
    /// the Fabric instead of allocating one.
    OutboxItem& enqueue() {
        if (queue_.capacity() == 0) queue_ = fabric_.acquire_queue();
        return queue_.emplace_back();
    }

    /// Turns the queue into wire frames, grouping each destination's
    /// messages into one Bundle frame when coalescing. Without coalescing
    /// the queue itself is returned. When a transport profile is set,
    /// charges `meter` each emitted frame's send cost for the bytes it
    /// stages.
    std::vector<OutboxItem> collect_frames(enclave::CostMeter& meter) {
        std::vector<OutboxItem> frames = std::move(queue_);
        queue_.clear();
        if (coalesce_) frames = coalesce(std::move(frames));
        if (transport_ == nullptr) return frames;
        // One send charge per emitted wire record: a coalesced burst
        // costs one record, and a singleton group costs exactly what the
        // same message costs uncoalesced — no Bundle surcharge.
        for (const OutboxItem& f : frames) {
            if (f.local) continue;
            const bool referenced =
                transport_->scatter_gather && f.bundled > 0;
            meter.add(transport_->tx(referenced ? 3 + 4 * f.bundled
                                                : f.frame.size()));
        }
        return frames;
    }

    /// Destinations are emitted in the order of their first appearance
    /// in the queue, each destination's messages in queue order; a
    /// destination with a single message keeps its original frame.
    /// Deferred callbacks follow every frame, in their relative order.
    /// The frames go into a spare queue and `sends` returns to the spare
    /// list, so grouping allocates no bookkeeping; each Bundle comes from
    /// the pool and each member it copied goes back there.
    std::vector<OutboxItem> coalesce(std::vector<OutboxItem>&& sends) {
        std::vector<OutboxItem> frames = fabric_.acquire_queue();
        for (std::size_t i = 0; i < sends.size(); ++i) {
            OutboxItem& head = sends[i];
            if (head.local || head.grouped) continue;
            std::size_t count = 1;
            std::size_t total = 1 + 2 + 4 + head.frame.size();
            for (std::size_t j = i + 1; j < sends.size(); ++j) {
                const OutboxItem& q = sends[j];
                if (!q.local && !q.grouped && q.to == head.to) {
                    ++count;
                    total += 4 + q.frame.size();
                }
            }
            if (count == 1) {
                // Batch-1: the original frame travels unchanged.
                frames.push_back(std::move(head));
                continue;
            }
            // make_bundle()'s bytes, written once into a pooled wire
            // buffer.
            TROXY_ASSERT(count <= kMaxBundleMessages,
                         "bundle message count exceeds u16 field");
            OutboxItem& f = frames.emplace_back();
            f.to = head.to;
            f.bundled = static_cast<std::uint32_t>(count);
            Writer w(pool().acquire_empty(total));
            w.u8(static_cast<std::uint8_t>(Channel::Bundle));
            w.u16(static_cast<std::uint16_t>(count));
            for (std::size_t j = i; j < sends.size(); ++j) {
                OutboxItem& p = sends[j];
                if (p.local || p.grouped || p.to != f.to) continue;
                p.grouped = true;
                w.u32(static_cast<std::uint32_t>(p.frame.size()));
                w.raw(p.frame);
                pool().release(std::move(p.frame));
            }
            f.frame = std::move(w).take();
        }
        for (OutboxItem& q : sends) {
            if (q.local) frames.push_back(std::move(q));
        }
        fabric_.release_queue(std::move(sends));
        return frames;
    }

    Fabric& fabric_;
    sim::Node& node_;
    bool coalesce_ = false;
    const sim::TransportProfile* transport_ = nullptr;
    std::vector<OutboxItem> queue_;
};

}  // namespace troxy::net

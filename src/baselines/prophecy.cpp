#include "baselines/prophecy.hpp"

#include "net/client_framing.hpp"
#include "net/envelope.hpp"
#include "net/outbox.hpp"

namespace troxy::baselines {

namespace {

/// How long a READ-ONE waits for its replica before it is ordered.
constexpr sim::Duration kFastReadTimeout = sim::milliseconds(100);

}  // namespace

ProphecyMiddlebox::ProphecyMiddlebox(
    net::Fabric& fabric, sim::Node& node, hybster::Config config,
    std::vector<crypto::X25519Key> pinned_keys,
    std::vector<Bytes> replica_keys, crypto::X25519Keypair channel_identity,
    troxy_core::Classifier classifier, const sim::CostProfile& profile,
    Options options, std::uint64_t seed)
    : fabric_(fabric),
      node_(node),
      config_(config),
      classifier_(std::move(classifier)),
      profile_(profile),
      options_(options),
      bft_client_(fabric, node, std::move(config), std::move(pinned_keys),
                  std::move(replica_keys), profile, {}),
      sessions_(channel_identity),
      rng_(seed ^ 0x70726f7068ULL) {}

void ProphecyMiddlebox::attach() {
    fabric_.attach(node_.id(), [this](sim::NodeId from, Bytes message) {
        on_message(from, std::move(message));
    });
    bft_client_.start(nullptr);
}

void ProphecyMiddlebox::on_message(sim::NodeId from, Bytes message) {
    auto unwrapped = net::unwrap_view(message);
    if (unwrapped && unwrapped->first == net::Channel::Client) {
        const ByteView payload = unwrapped->second;
        if (config_.replica_of(from) >= 0) {
            // Replicas answer the BFT client; everyone else is a legacy
            // client of the middlebox itself.
            bft_client_.on_message(from, payload);
        } else {
            sessions_.serve_frame(
                fabric_, node_, profile_, from, payload,
                [&](net::ClientSessions::Session& session,
                    ByteView app_request, auto&, net::Outbox& outbox) {
                    outbox.defer([this, from, generation = session.generation,
                                  request = Bytes(app_request.begin(),
                                                  app_request.end())]() mutable {
                        handle_app_request(from, generation,
                                           std::move(request));
                    });
                });
        }
    }
    // Both paths read the frame synchronously, so the wire buffer can
    // rejoin the pool for the next sender.
    fabric_.network().recycle(std::move(message));
}

void ProphecyMiddlebox::handle_app_request(sim::NodeId client,
                                           std::uint64_t generation,
                                           Bytes app_request) {
    net::ClientSessions::Session* session = sessions_.find(client);
    if (session == nullptr || session->generation != generation) return;
    const net::ClientSessions::Ticket to = session->assign();

    const hybster::RequestInfo info = classifier_(app_request);
    if (!info.is_read) {
        // Writes always go through the full protocol; the sketch is NOT
        // invalidated (Prophecy cannot map writes to cached reads — the
        // source of its weak consistency).
        ++stats_.ordered;
        bft_client_.invoke(app_request, false, [this, to](Bytes result) {
            release_reply(to, result);
        });
        return;
    }

    const Bytes sketch_key = crypto::sha256_bytes(app_request);
    const auto hit = sketch_.find(sketch_key);
    if (hit == sketch_.end()) {
        ++stats_.sketch_misses;
        ordered_read_through(to, std::move(app_request));
        return;
    }

    // Fast path: one random replica, compare against the sketch.
    const auto replica = static_cast<std::uint32_t>(
        rng_.next_below(static_cast<std::uint64_t>(config_.n())));
    const crypto::Sha256Digest expected = hit->second;
    const std::uint64_t number = bft_client_.read_one(
        app_request, replica,
        [this, to, expected, request = app_request](Bytes result) mutable {
            if (constant_time_equal(crypto::sha256(result), expected)) {
                ++stats_.fast_hits;
                release_reply(to, result);
            } else {
                // Replica disagrees with the sketch (stale sketch after a
                // write, or a faulty replica): fall back to an ordered
                // read and refresh the sketch.
                ++stats_.fast_conflicts;
                ordered_read_through(to, std::move(request));
            }
        });
    // A crashed or partitioned replica never answers: after the timeout
    // the read is ordered instead. Cancelling the READ-ONE makes the two
    // outcomes exclusive — a reply that lands later is dropped, so the
    // ticket is released once.
    fabric_.simulator().after(
        kFastReadTimeout,
        [this, number, to, request = std::move(app_request)]() mutable {
            if (!bft_client_.cancel(number)) return;  // answered in time
            ++stats_.fast_timeouts;
            ordered_read_through(to, std::move(request));
        });
}

void ProphecyMiddlebox::ordered_read_through(
    const net::ClientSessions::Ticket& to, Bytes app_request) {
    ++stats_.ordered;
    const Bytes sketch_key = crypto::sha256_bytes(app_request);
    bft_client_.invoke(
        std::move(app_request), true,
        [this, to, sketch_key](Bytes result) {
            if (sketch_.size() >= options_.sketch_capacity) {
                sketch_.erase(sketch_.begin());
            }
            sketch_[sketch_key] = crypto::sha256(result);
            release_reply(to, result);
        });
}

void ProphecyMiddlebox::release_reply(const net::ClientSessions::Ticket& to,
                                      ByteView app_reply) {
    sessions_.release_records(fabric_, node_, profile_, to, app_reply);
}

}  // namespace troxy::baselines

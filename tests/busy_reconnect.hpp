// Busy reconnect: a legacy client re-handshakes with requests in flight.
//
// The client reads keys 0-2; the third reply issues keys 3-7 (reads, or
// writes) and at once calls reconnect(), with all five still in flight.
// The server still answers the old session's copies of them, and the
// client retransmits them on the new session. The new session starts its
// slot window at zero again, so a server that let the old session's
// replies into it would hand key 3's reply to key 6's callback: every
// callback must receive the reply of its own request.
#pragma once

#include <cstdint>
#include <map>

#include "apps/echo_service.hpp"
#include "common/bytes.hpp"
#include "sim/simulator.hpp"
#include "troxy/legacy_client.hpp"

namespace troxy::test_support {

struct BusyReconnect {
    std::map<std::uint64_t, Bytes> replies;  // by key
    int answered = 0;                        // callbacks fired
    std::size_t outstanding_at_reconnect = 0;
};

/// Runs the busy reconnect on `client` for ten simulated seconds. Reads
/// ask for 64-byte replies, so a read of key k must see
/// EchoService::expected_read_reply(k, 0, 64).
inline BusyReconnect run_busy_reconnect(sim::Simulator& simulator,
                                        troxy_core::LegacyClient& client,
                                        bool writes) {
    using apps::EchoService;
    BusyReconnect run;
    auto answer = [&run](std::uint64_t key) {
        return [&run, key](Bytes reply) {
            run.replies[key] = std::move(reply);
            ++run.answered;
        };
    };
    int first_replies = 0;
    client.start([&]() {
        for (std::uint64_t key = 0; key < 3; ++key) {
            client.send(EchoService::make_read(key, 32, 64),
                        [&, key](Bytes reply) {
                            answer(key)(std::move(reply));
                            if (++first_replies < 3) return;
                            for (std::uint64_t k = 3; k < 8; ++k) {
                                client.send(
                                    writes ? EchoService::make_write(k, 32)
                                           : EchoService::make_read(k, 32,
                                                                    64),
                                    answer(k));
                            }
                            run.outstanding_at_reconnect =
                                client.outstanding();
                            client.reconnect();
                        });
        }
    });
    simulator.run_until(sim::seconds(10));
    return run;
}

}  // namespace troxy::test_support

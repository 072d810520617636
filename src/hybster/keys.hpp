// Key-distribution helpers for experiment setup.
//
// Real deployments establish pairwise client↔replica secrets during
// connection setup; the simulation derives them from a master secret at
// *setup time* (trusted experiment code) and hands each party only the
// keys it is entitled to. Byzantine fault injection operates on protocol
// objects, which therefore can never sign with another party's identity.
#pragma once

#include <algorithm>

#include "common/bytes.hpp"
#include "common/serialize.hpp"
#include "crypto/hmac.hpp"
#include "sim/node.hpp"

namespace troxy::hybster {

/// Pairwise secret between a client node and replica `replica`.
inline Bytes client_replica_key(ByteView master, sim::NodeId client,
                                std::uint32_t replica) {
    Writer info;
    info.u32(client);
    info.u32(replica);
    return crypto::hkdf(to_bytes("troxy-client-key"), master, info.data(),
                        32);
}

/// Pairwise link key between replicas `a` and `b` of a PBFT-profile
/// group (symmetric: the same key in both directions).
inline Bytes replica_link_key(ByteView master, std::uint32_t a,
                              std::uint32_t b) {
    Writer info;
    info.u32(std::min(a, b));
    info.u32(std::max(a, b));
    return crypto::hkdf(to_bytes("troxy-replica-link"), master, info.data(),
                        32);
}

}  // namespace troxy::hybster

// Message certification for a replica group, in one of two profiles.
//
// Hybrid profile (Hybster, 2f+1 replicas): the TrinX trusted subsystem.
// PREPAREs and COMMITs carry continuing certificates bound to a trusted
// counter value; every other agreement message carries an independent
// certificate. One tag per message, checkable by every replica.
//
// PBFT profile (3f+1 replicas): link-MAC authenticators and no counter. An
// authenticator holds one HMAC per replica, indexed by the receiving
// replica, each under the sender's pairwise link key with that receiver
// (the sender's own slot stays zero). Certifying a message costs n-1 MACs;
// a receiver checks its own slot, one MAC. A message forwarded inside
// another one (the prepares in a VIEW-CHANGE, the view changes in a
// NEW-VIEW, the checkpoint votes in a state-transfer proof) keeps its
// authenticator, so its final receiver checks it the same way. That makes
// the link MACs stand in for signatures: a Byzantine sender could give
// different receivers disagreeing slots, which PBFT's MAC-based view change
// answers with extra rounds that are not modelled here.
//
// Which profile a replica runs follows from the certifier its deployment
// builder hands it; Config::validate ties the profile to the group size.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/bytes.hpp"
#include "common/inline_vec.hpp"
#include "enclave/meter.hpp"
#include "enclave/trinx.hpp"

namespace troxy::hybster {

using enclave::Certificate;
using enclave::CounterId;
using enclave::CounterValue;

/// An agreement message's certificate: one tag in the hybrid profile, one
/// link MAC per replica (in replica-id order) in the PBFT profile. A
/// default authenticator is one zero tag, which encodes exactly like the
/// bare certificate of the hybrid wire format.
class Authenticator {
  public:
    Authenticator() { tags_.push_back(Certificate{}); }
    /// A one-tag authenticator (the hybrid profile's certificate).
    Authenticator(const Certificate& tag) { tags_.push_back(tag); }
    /// `width` zero tags.
    static Authenticator zeros(std::size_t width);

    [[nodiscard]] std::size_t size() const noexcept { return tags_.size(); }
    [[nodiscard]] Certificate& operator[](std::size_t i) noexcept {
        return tags_.data()[i];
    }
    [[nodiscard]] const Certificate& operator[](std::size_t i) const noexcept {
        return tags_[i];
    }
    [[nodiscard]] const Certificate* begin() const noexcept {
        return tags_.begin();
    }
    [[nodiscard]] const Certificate* end() const noexcept {
        return tags_.end();
    }

    friend bool operator==(const Authenticator& a, const Authenticator& b) {
        return a.tags_ == b.tags_;
    }

  private:
    InlineVec<Certificate, 1> tags_;
};

class Certifier {
  public:
    /// Hybrid profile over the replica's trusted subsystem.
    Certifier(std::shared_ptr<enclave::TrinX> trinx);
    /// PBFT profile: `links[r]` is replica `replica_id`'s pairwise key
    /// with replica r (its own entry is unused).
    Certifier(std::uint32_t replica_id, std::vector<Bytes> links);

    /// True for TrinX: trusted counters, 2f+1 replicas, two phases.
    [[nodiscard]] bool hybrid() const noexcept { return trinx_ != nullptr; }
    /// Tags per authenticator on the wire.
    [[nodiscard]] std::size_t width() const noexcept {
        return hybrid() ? 1 : links_.size();
    }

    struct Ordered {
        CounterValue value;
        Authenticator auth;
    };
    /// Ordering certificate for a PREPARE or COMMIT. Hybrid: TrinX binds
    /// `message` to the next value of `counter` and returns that value.
    /// PBFT: there is no counter; `message` is bound to (`counter`,
    /// `value`) as given, and `value` is returned.
    Ordered certify_ordered(enclave::CostedCrypto& crypto, CounterId counter,
                            ByteView message, CounterValue value = 0);
    [[nodiscard]] bool verify_ordered(enclave::CostedCrypto& crypto,
                                      std::uint32_t sender, CounterId counter,
                                      CounterValue value, ByteView message,
                                      const Authenticator& auth) const;

    /// Certificate without a counter (checkpoints, view changes, state
    /// transfer).
    [[nodiscard]] Authenticator certify(enclave::CostedCrypto& crypto,
                                        ByteView message) const;
    [[nodiscard]] bool verify(enclave::CostedCrypto& crypto,
                              std::uint32_t sender, ByteView message,
                              const Authenticator& auth) const;

  private:
    /// PBFT: the n-1 link MACs over `digest` bound to (counter, value).
    [[nodiscard]] Authenticator link_macs(enclave::CostedCrypto& crypto,
                                          std::uint8_t domain,
                                          CounterId counter,
                                          CounterValue value,
                                          const crypto::Sha256Digest& digest)
        const;
    /// PBFT: checks the receiver's own slot of `sender`'s authenticator.
    [[nodiscard]] bool check_link_mac(enclave::CostedCrypto& crypto,
                                      std::uint8_t domain,
                                      std::uint32_t sender, CounterId counter,
                                      CounterValue value, ByteView message,
                                      const Authenticator& auth) const;

    std::shared_ptr<enclave::TrinX> trinx_;
    std::uint32_t replica_id_ = 0;
    std::vector<Bytes> links_;
};

}  // namespace troxy::hybster

// TrinX — trusted monotonic counter subsystem (Hybster's trusted core).
//
// Hybster prevents equivocation with trusted counters: a replica can bind
// a message to exactly one counter value, certified by an HMAC under a key
// shared only among the trusted subsystems (established via attestation).
// Because the counter can never be reused or rolled back, a Byzantine
// replica cannot certify two different messages for the same (counter,
// value) slot — the property Hybster's 2f+1 agreement depends on.
//
// The same subsystem authenticates Troxy reply certificates (§IV-A: reply
// HMAC keyed by a secret "known amongst all Troxies" plus a per-instance
// identifier).
#pragma once

#include <array>
#include <cstdint>
#include <map>

#include "common/bytes.hpp"
#include "crypto/hmac.hpp"
#include "enclave/meter.hpp"

namespace troxy::enclave {

using CounterId = std::uint32_t;
using CounterValue = std::uint64_t;
using Certificate = crypto::HmacTag;

class TrinX {
  public:
    /// `replica_id` personalizes the certificates; `group_key` is the
    /// secret shared by all trusted subsystems after attestation.
    TrinX(std::uint32_t replica_id, Bytes group_key);

    /// Certifies `message` with the *next* value of counter `counter`
    /// (monotonic, gap-free). Returns the value used and the certificate.
    struct Certified {
        CounterValue value;
        Certificate certificate;
    };
    Certified certify_continuing(CostedCrypto& crypto, CounterId counter,
                                 ByteView message);

    /// Certifies `message` without touching a counter (Troxy reply
    /// authentication does not need ordering, only origin).
    Certificate certify_independent(CostedCrypto& crypto,
                                    ByteView message) const;

    /// Same, for a caller that already hashed the message (avoids
    /// re-hashing large payloads — the digest must be SHA-256 of the
    /// message bytes).
    Certificate certify_independent_digest(
        CostedCrypto& crypto, const crypto::Sha256Digest& digest) const;

    /// Batched variant: certifying many messages in one enclave transition
    /// keeps a running MAC, so only the first item pays the fixed MAC setup
    /// cost (the per-message hash is still charged in full). With
    /// `first_in_batch` true this is cost- and byte-identical to
    /// certify_independent.
    Certificate certify_independent_batched(CostedCrypto& crypto,
                                            ByteView message,
                                            bool first_in_batch) const;

    /// Verifies a certificate allegedly created by `replica_id`'s trusted
    /// subsystem for (counter, value, message).
    [[nodiscard]] bool verify_continuing(CostedCrypto& crypto,
                                         std::uint32_t replica_id,
                                         CounterId counter, CounterValue value,
                                         ByteView message,
                                         const Certificate& cert) const;

    [[nodiscard]] bool verify_independent(CostedCrypto& crypto,
                                          std::uint32_t replica_id,
                                          ByteView message,
                                          const Certificate& cert) const;

    /// Batched variant: verifying many certificates from the same source
    /// in one enclave transition keeps a running MAC per source, so only
    /// the first item pays the fixed MAC setup cost (the per-message hash
    /// is still charged in full). Semantically identical to
    /// verify_independent — the real HMAC check runs per item.
    [[nodiscard]] bool verify_independent_batched(
        CostedCrypto& crypto, std::uint32_t replica_id, ByteView message,
        const Certificate& cert, bool first_from_source) const;

    [[nodiscard]] CounterValue current(CounterId counter) const noexcept;

    [[nodiscard]] std::uint32_t replica_id() const noexcept {
        return replica_id_;
    }

    /// Proactive-recovery handover: a certified record of every counter's
    /// current value, MACed under the group key with its own domain tag
    /// and bound to this replica id. Only an instance provisioned with
    /// the same group key (i.e. attested into this deployment) can mint
    /// or accept one, and a record from replica A never verifies at
    /// replica B.
    [[nodiscard]] Bytes export_handover(CostedCrypto& crypto) const;

    /// Re-binds counters from a handover record: verifies the certificate
    /// (proving the exporter held the provisioned group key and was this
    /// replica), then raises each counter to max(current, recorded) —
    /// never lowers — so a recovered subsystem can never re-certify a
    /// (counter, value) slot the old one already used, e.g. an old view's
    /// ordering counter. Returns false (and changes nothing) on a
    /// malformed or mis-certified record.
    [[nodiscard]] bool import_handover(CostedCrypto& crypto, ByteView blob);

  private:
    /// MAC inputs are fixed-layout records: a domain tag, the binding
    /// fields and the message digest, built on the stack.
    using ContinuingInput =
        std::array<std::uint8_t, 1 + 4 + 4 + 8 + crypto::kSha256DigestSize>;
    using IndependentInput =
        std::array<std::uint8_t, 1 + 4 + crypto::kSha256DigestSize>;

    [[nodiscard]] static ContinuingInput continuing_input(
        std::uint32_t replica_id, CounterId counter, CounterValue value,
        const crypto::Sha256Digest& digest);
    [[nodiscard]] static IndependentInput independent_input(
        std::uint32_t replica_id, const crypto::Sha256Digest& digest);

    std::uint32_t replica_id_;
    Bytes group_key_;
    std::map<CounterId, CounterValue> counters_;
};

}  // namespace troxy::enclave

// Cost metering for one message-handling step.
//
// Protocol handlers run synchronously in simulation but must charge the
// CPU time the real system would spend. A CostMeter accumulates the
// nanoseconds of every operation performed while handling one message;
// the handler then schedules its visible effects after meter.take()
// nanoseconds on its Node. CostedCrypto pairs each real cryptographic
// computation with its modelled cost so the two can never drift apart.
#pragma once

#include "common/bytes.hpp"
#include "crypto/hmac.hpp"
#include "crypto/sha256.hpp"
#include "sim/cost.hpp"

namespace troxy::enclave {

class CostMeter {
  public:
    void add(sim::Duration d) noexcept { total_ += d; }

    [[nodiscard]] sim::Duration total() const noexcept { return total_; }

    /// Returns the accumulated cost and resets the meter.
    sim::Duration take() noexcept {
        const sim::Duration t = total_;
        total_ = 0;
        return t;
    }

  private:
    sim::Duration total_ = 0;
};

/// Real crypto operations that also charge their modelled cost to a meter.
/// The profile decides how expensive each operation is (Java vs native).
class CostedCrypto {
  public:
    // The profile is copied, not referenced: CostedCrypto objects are
    // frequently constructed with a temporary (CostProfile::java()), and a
    // stored reference would dangle once the full expression ends. The
    // profile is a small POD, so the copy is negligible next to any single
    // metered operation.
    CostedCrypto(sim::CostProfile profile, CostMeter& meter) noexcept
        : profile_(profile), meter_(meter) {}

    crypto::Sha256Digest hash(ByteView data) {
        meter_.add(profile_.hash(data.size()));
        return crypto::sha256(data);
    }

    crypto::HmacTag mac(ByteView key, ByteView data) {
        meter_.add(profile_.mac(data.size()));
        return crypto::hmac_sha256(key, data);
    }

    /// MAC creation inside a batch: the first item pays the full MAC cost,
    /// later items ride the running MAC (per-byte only) — the real HMAC is
    /// still computed per item.
    crypto::HmacTag mac_batched(ByteView key, ByteView data,
                                bool first_from_source) {
        meter_.add(first_from_source ? profile_.mac(data.size())
                                     : profile_.mac_continue(data.size()));
        return crypto::hmac_sha256(key, data);
    }

    bool mac_verify(ByteView key, ByteView data, ByteView tag) {
        meter_.add(profile_.mac(data.size()));
        return crypto::hmac_verify(key, data, tag);
    }

    /// MAC verification inside a per-source batch: the first item from a
    /// source pays the full MAC cost, later items ride the running MAC
    /// (per-byte only) — the real verification still runs per item.
    bool mac_verify_batched(ByteView key, ByteView data, ByteView tag,
                            bool first_from_source) {
        meter_.add(first_from_source ? profile_.mac(data.size())
                                     : profile_.mac_continue(data.size()));
        return crypto::hmac_verify(key, data, tag);
    }

    void charge_dh() { meter_.add(profile_.dh()); }
    void charge(sim::Duration d) { meter_.add(d); }
    void charge_copy(std::size_t bytes) { meter_.add(profile_.copy(bytes)); }
    void charge_dispatch() { meter_.add(profile_.dispatch()); }

    [[nodiscard]] const sim::CostProfile& profile() const noexcept {
        return profile_;
    }
    [[nodiscard]] CostMeter& meter() noexcept { return meter_; }

  private:
    sim::CostProfile profile_;
    CostMeter& meter_;
};

}  // namespace troxy::enclave

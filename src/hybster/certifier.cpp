#include "hybster/certifier.hpp"

#include <tuple>
#include <utility>

#include "common/assert.hpp"
#include "common/serialize.hpp"

namespace troxy::hybster {

namespace {

constexpr std::uint8_t kOrderedDomain = 0x04;
constexpr std::uint8_t kPlainDomain = 0x05;

/// Link-MAC input: domain ‖ sender ‖ receiver ‖ counter ‖ value ‖ digest.
/// The receiver is bound in, so a slot never verifies on another link.
using LinkInput =
    std::array<std::uint8_t, 1 + 4 + 4 + 4 + 8 + crypto::kSha256DigestSize>;

LinkInput link_input(std::uint8_t domain, std::uint32_t sender,
                     std::uint32_t receiver, CounterId counter,
                     CounterValue value, const crypto::Sha256Digest& digest) {
    FixedWriter<std::tuple_size_v<LinkInput>> w;
    w.u8(domain);
    w.u32(sender);
    w.u32(receiver);
    w.u32(counter);
    w.u64(value);
    w.raw(digest);
    return w.take();
}

}  // namespace

Authenticator Authenticator::zeros(std::size_t width) {
    Authenticator auth;
    for (std::size_t i = 1; i < width; ++i) auth.tags_.push_back(Certificate{});
    return auth;
}

Certifier::Certifier(std::shared_ptr<enclave::TrinX> trinx)
    : trinx_(std::move(trinx)) {
    TROXY_ASSERT(trinx_ != nullptr, "the hybrid profile needs a TrinX");
}

Certifier::Certifier(std::uint32_t replica_id, std::vector<Bytes> links)
    : replica_id_(replica_id), links_(std::move(links)) {
    TROXY_ASSERT(replica_id_ < links_.size(),
                 "one link key per replica, own slot included");
}

Authenticator Certifier::link_macs(enclave::CostedCrypto& crypto,
                                   std::uint8_t domain, CounterId counter,
                                   CounterValue value,
                                   const crypto::Sha256Digest& digest) const {
    Authenticator auth = Authenticator::zeros(links_.size());
    for (std::uint32_t r = 0; r < links_.size(); ++r) {
        if (r == replica_id_) continue;
        auth[r] = crypto.mac(links_[r], link_input(domain, replica_id_, r,
                                                   counter, value, digest));
    }
    return auth;
}

bool Certifier::check_link_mac(enclave::CostedCrypto& crypto,
                               std::uint8_t domain, std::uint32_t sender,
                               CounterId counter, CounterValue value,
                               ByteView message,
                               const Authenticator& auth) const {
    // Our own slot is never filled: a message claiming to come from us did
    // not, since a replica does not send to itself.
    if (sender >= links_.size() || sender == replica_id_) return false;
    if (auth.size() != links_.size()) return false;
    return crypto.mac_verify(
        links_[sender],
        link_input(domain, sender, replica_id_, counter, value,
                   crypto.hash(message)),
        auth[replica_id_]);
}

Certifier::Ordered Certifier::certify_ordered(enclave::CostedCrypto& crypto,
                                              CounterId counter,
                                              ByteView message,
                                              CounterValue value) {
    if (hybrid()) {
        const auto certified =
            trinx_->certify_continuing(crypto, counter, message);
        return {certified.value, certified.certificate};
    }
    return {value, link_macs(crypto, kOrderedDomain, counter, value,
                             crypto.hash(message))};
}

bool Certifier::verify_ordered(enclave::CostedCrypto& crypto,
                               std::uint32_t sender, CounterId counter,
                               CounterValue value, ByteView message,
                               const Authenticator& auth) const {
    if (hybrid()) {
        return auth.size() == 1 &&
               trinx_->verify_continuing(crypto, sender, counter, value,
                                         message, auth[0]);
    }
    return check_link_mac(crypto, kOrderedDomain, sender, counter, value,
                          message, auth);
}

Authenticator Certifier::certify(enclave::CostedCrypto& crypto,
                                 ByteView message) const {
    if (hybrid()) return trinx_->certify_independent(crypto, message);
    return link_macs(crypto, kPlainDomain, 0, 0, crypto.hash(message));
}

bool Certifier::verify(enclave::CostedCrypto& crypto, std::uint32_t sender,
                       ByteView message, const Authenticator& auth) const {
    if (hybrid()) {
        return auth.size() == 1 &&
               trinx_->verify_independent(crypto, sender, message, auth[0]);
    }
    return check_link_mac(crypto, kPlainDomain, sender, 0, 0, message, auth);
}

}  // namespace troxy::hybster

#include "enclave/trinx.hpp"

#include <algorithm>
#include <array>
#include <tuple>
#include <utility>
#include <vector>

#include "common/serialize.hpp"

namespace troxy::enclave {

TrinX::TrinX(std::uint32_t replica_id, Bytes group_key)
    : replica_id_(replica_id), group_key_(std::move(group_key)) {}

TrinX::ContinuingInput TrinX::continuing_input(
    std::uint32_t replica_id, CounterId counter, CounterValue value,
    const crypto::Sha256Digest& digest) {
    FixedWriter<std::tuple_size_v<ContinuingInput>> w;
    w.u8(0x01);  // domain separation: continuing certificate
    w.u32(replica_id);
    w.u32(counter);
    w.u64(value);
    w.raw(digest);
    return w.take();
}

TrinX::IndependentInput TrinX::independent_input(
    std::uint32_t replica_id, const crypto::Sha256Digest& digest) {
    FixedWriter<std::tuple_size_v<IndependentInput>> w;
    w.u8(0x02);  // domain separation: independent certificate
    w.u32(replica_id);
    w.raw(digest);
    return w.take();
}

TrinX::Certified TrinX::certify_continuing(CostedCrypto& crypto,
                                           CounterId counter,
                                           ByteView message) {
    const CounterValue value = ++counters_[counter];
    // The hash of the full message is charged; the HMAC runs over the
    // short fixed-size input built from that digest.
    const ContinuingInput input =
        continuing_input(replica_id_, counter, value, crypto.hash(message));
    return Certified{value, crypto.mac(group_key_, input)};
}

Certificate TrinX::certify_independent(CostedCrypto& crypto,
                                       ByteView message) const {
    return certify_independent_digest(crypto, crypto.hash(message));
}

Certificate TrinX::certify_independent_digest(
    CostedCrypto& crypto, const crypto::Sha256Digest& digest) const {
    return crypto.mac(group_key_, independent_input(replica_id_, digest));
}

Certificate TrinX::certify_independent_batched(CostedCrypto& crypto,
                                               ByteView message,
                                               bool first_in_batch) const {
    const IndependentInput input =
        independent_input(replica_id_, crypto.hash(message));
    return crypto.mac_batched(group_key_, input, first_in_batch);
}

bool TrinX::verify_continuing(CostedCrypto& crypto, std::uint32_t replica_id,
                              CounterId counter, CounterValue value,
                              ByteView message,
                              const Certificate& cert) const {
    const ContinuingInput input =
        continuing_input(replica_id, counter, value, crypto.hash(message));
    return crypto.mac_verify(group_key_, input, cert);
}

bool TrinX::verify_independent(CostedCrypto& crypto, std::uint32_t replica_id,
                               ByteView message,
                               const Certificate& cert) const {
    const IndependentInput input =
        independent_input(replica_id, crypto.hash(message));
    return crypto.mac_verify(group_key_, input, cert);
}

bool TrinX::verify_independent_batched(CostedCrypto& crypto,
                                       std::uint32_t replica_id,
                                       ByteView message,
                                       const Certificate& cert,
                                       bool first_from_source) const {
    const IndependentInput input =
        independent_input(replica_id, crypto.hash(message));
    return crypto.mac_verify_batched(group_key_, input, cert,
                                     first_from_source);
}

CounterValue TrinX::current(CounterId counter) const noexcept {
    const auto it = counters_.find(counter);
    return it == counters_.end() ? 0 : it->second;
}

namespace {

using HandoverInput =
    std::array<std::uint8_t, 1 + 4 + crypto::kSha256DigestSize>;

/// MAC input for a handover record: its own domain tag so a handover can
/// never double as a continuing/independent certificate input.
HandoverInput handover_input(std::uint32_t replica_id,
                             const crypto::Sha256Digest& digest) {
    FixedWriter<std::tuple_size_v<HandoverInput>> w;
    w.u8(0x03);  // domain separation: recovery handover
    w.u32(replica_id);
    w.raw(digest);
    return w.take();
}

}  // namespace

Bytes TrinX::export_handover(CostedCrypto& crypto) const {
    Writer payload;
    payload.u32(static_cast<std::uint32_t>(counters_.size()));
    for (const auto& [id, value] : counters_) {
        payload.u32(id);
        payload.u64(value);
    }
    Bytes body = std::move(payload).take();
    const Certificate cert = crypto.mac(
        group_key_, handover_input(replica_id_, crypto.hash(body)));
    Writer out;
    out.bytes(body);
    out.raw(cert);
    return std::move(out).take();
}

bool TrinX::import_handover(CostedCrypto& crypto, ByteView blob) {
    try {
        Reader r(blob);
        const ByteView body = r.bytes_view();
        Certificate cert;
        r.read_into(cert);
        r.expect_done();
        if (!crypto.mac_verify(group_key_,
                               handover_input(replica_id_, crypto.hash(body)),
                               cert)) {
            return false;
        }
        Reader p(body);
        const std::uint32_t count = p.u32();
        if (count > 1u << 16) return false;
        // Validate fully before mutating: a truncated body must not leave
        // a half-imported counter set behind.
        std::vector<std::pair<CounterId, CounterValue>> entries;
        entries.reserve(count);
        for (std::uint32_t i = 0; i < count; ++i) {
            const CounterId id = p.u32();
            const CounterValue value = p.u64();
            entries.emplace_back(id, value);
        }
        p.expect_done();
        for (const auto& [id, value] : entries) {
            CounterValue& current = counters_[id];
            current = std::max(current, value);  // never lower
        }
        return true;
    } catch (const DecodeError&) {
        return false;
    }
}

}  // namespace troxy::enclave

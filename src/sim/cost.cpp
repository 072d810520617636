#include "sim/cost.hpp"

namespace troxy::sim {

namespace {
Duration as_duration(double ns) noexcept {
    return ns <= 0.0 ? 0 : static_cast<Duration>(ns);
}
}  // namespace

Duration CostProfile::dispatch() const noexcept {
    return as_duration(dispatch_ns);
}

Duration CostProfile::hash(std::size_t bytes) const noexcept {
    return as_duration(hash_base_ns +
                       hash_per_byte_ns * static_cast<double>(bytes));
}

Duration CostProfile::mac(std::size_t bytes) const noexcept {
    return as_duration(mac_base_ns +
                       mac_per_byte_ns * static_cast<double>(bytes));
}

Duration CostProfile::mac_continue(std::size_t bytes) const noexcept {
    return as_duration(mac_per_byte_ns * static_cast<double>(bytes));
}

Duration CostProfile::aead(std::size_t bytes) const noexcept {
    return as_duration(aead_base_ns +
                       aead_per_byte_ns * static_cast<double>(bytes));
}

Duration CostProfile::dh() const noexcept { return as_duration(dh_op_ns); }

Duration CostProfile::copy(std::size_t bytes) const noexcept {
    return as_duration(memcpy_per_byte_ns * static_cast<double>(bytes));
}

Duration CostProfile::app(std::size_t bytes) const noexcept {
    return as_duration(app_base_ns +
                       app_per_byte_ns * static_cast<double>(bytes));
}

CostProfile CostProfile::java() noexcept {
    // JCA-based HMAC/SHA on OpenJDK 1.8 runs several times slower per byte
    // than hand-written C, and each operation pays JNI/object overhead.
    CostProfile p;
    p.dispatch_ns = 4'000.0;
    p.hash_base_ns = 1'500.0;
    p.hash_per_byte_ns = 6.0;
    p.mac_base_ns = 2'500.0;
    p.mac_per_byte_ns = 6.0;
    p.aead_base_ns = 3'000.0;
    p.aead_per_byte_ns = 9.0;
    p.dh_op_ns = 200'000.0;
    p.memcpy_per_byte_ns = 0.25;
    p.app_base_ns = 1'000.0;
    p.app_per_byte_ns = 0.1;
    return p;
}

CostProfile CostProfile::native() noexcept {
    // Hand-written C with hardware-accelerated primitives: per-byte costs
    // sit 5-8x below the JCA numbers (the gap §VI-C1 attributes the 8 KB
    // convergence to).
    CostProfile p;
    p.dispatch_ns = 2'000.0;
    p.hash_base_ns = 400.0;
    p.hash_per_byte_ns = 0.8;
    p.mac_base_ns = 700.0;
    p.mac_per_byte_ns = 0.8;
    p.aead_base_ns = 900.0;
    p.aead_per_byte_ns = 1.2;
    p.dh_op_ns = 60'000.0;
    p.memcpy_per_byte_ns = 0.1;
    p.app_base_ns = 1'000.0;
    p.app_per_byte_ns = 0.1;
    return p;
}

Duration TransportProfile::tx(std::size_t copied) const noexcept {
    return as_duration(tx_base_ns +
                       tx_per_byte_ns * static_cast<double>(copied));
}

TransportProfile TransportProfile::none() noexcept {
    return TransportProfile{};
}

TransportProfile TransportProfile::kernel_nic() noexcept {
    // sendmsg() round trip through the socket layer (~syscall + skb setup)
    // plus the user→kernel copy of every byte of the record.
    TransportProfile p;
    p.tx_base_ns = 1'800.0;
    p.tx_per_byte_ns = 0.25;
    p.credit_window = 0;
    return p;
}

TransportProfile TransportProfile::bypass() noexcept {
    // Posting a descriptor and ringing the doorbell on a user-mapped
    // queue pair; bytes still staged into registered buffers pay the same
    // copy cost as the kernel path. 128 RX-descriptor credits per peer.
    TransportProfile p;
    p.tx_base_ns = 150.0;
    p.tx_per_byte_ns = 0.25;
    p.credit_window = 128;
    return p;
}

EnclaveCosts EnclaveCosts::sgx_v1() noexcept {
    // Effective transition cost at 3.4 GHz: the raw crossing (~8k cycles)
    // plus TLB flush and cache pollution aftermath;
    // EPC limited to 128 MB (~93 MB usable) with expensive paging.
    EnclaveCosts c;
    c.ecall_transition_ns = 5'300.0;
    c.ocall_transition_ns = 5'300.0;
    c.param_copy_per_byte_ns = 0.15;
    c.epc_page_fault_ns = 12'000.0;
    c.epc_limit_bytes = 93ULL * 1024 * 1024;
    return c;
}

EnclaveCosts EnclaveCosts::jni_only() noexcept {
    EnclaveCosts c;
    c.ecall_transition_ns = 3'000.0;  // JNI downcall, pinning, array copies
    c.ocall_transition_ns = 3'000.0;
    c.param_copy_per_byte_ns = 0.1;
    return c;
}

EnclaveCosts EnclaveCosts::free() noexcept { return EnclaveCosts{}; }

}  // namespace troxy::sim

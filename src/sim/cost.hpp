// CPU cost model.
//
// The paper's performance effects hinge on *relative* processing costs:
// Java (Hybster baseline) authenticates messages slower per byte than the
// native C/C++ Troxy ("authenticating messages with large payload is
// faster in C/C++ than it is in Java", §VI-C1), and entering an SGX
// enclave costs a fixed transition penalty. A CostProfile captures these
// per-operation costs; replicas charge them to their Node before acting on
// a message. Values are calibrated, not measured: they reproduce the
// paper's reported shapes (43% overhead at 256 B writes, crossover at
// 8 KB, 115% read overhead at 256 B, …) on the simulated cluster.
#pragma once

#include <cstddef>
#include <cstdint>

#include "sim/time.hpp"

namespace troxy::sim {

struct CostProfile {
    // Per-message protocol bookkeeping (deserialize, queue, dispatch).
    double dispatch_ns = 0.0;

    // Hashing (SHA-256): base + per byte.
    double hash_base_ns = 0.0;
    double hash_per_byte_ns = 0.0;

    // MAC (HMAC-SHA256) — the dominant cost for message certificates.
    double mac_base_ns = 0.0;
    double mac_per_byte_ns = 0.0;

    // AEAD record protection (secure channel).
    double aead_base_ns = 0.0;
    double aead_per_byte_ns = 0.0;

    // Asymmetric handshake operation (X25519 scalar mult).
    double dh_op_ns = 0.0;

    // Buffer copies in/out of protection domains.
    double memcpy_per_byte_ns = 0.0;

    // Application execution cost per request (service work).
    double app_base_ns = 0.0;
    double app_per_byte_ns = 0.0;

    [[nodiscard]] Duration dispatch() const noexcept;
    [[nodiscard]] Duration hash(std::size_t bytes) const noexcept;
    [[nodiscard]] Duration mac(std::size_t bytes) const noexcept;
    /// Continuation of a running MAC over a batch from one source: the
    /// fixed setup (key schedule, object churn — mac_base_ns) was paid by
    /// the batch's first item, later items only stream bytes.
    [[nodiscard]] Duration mac_continue(std::size_t bytes) const noexcept;
    [[nodiscard]] Duration aead(std::size_t bytes) const noexcept;
    [[nodiscard]] Duration dh() const noexcept;
    [[nodiscard]] Duration copy(std::size_t bytes) const noexcept;
    [[nodiscard]] Duration app(std::size_t bytes) const noexcept;

    /// JVM profile used by the baseline Hybster replica and the
    /// traditional client-side library (JCA crypto, JNI overhead folded
    /// into base costs).
    static CostProfile java() noexcept;

    /// Native C/C++ profile used by ctroxy (outside any enclave).
    static CostProfile native() noexcept;
};

/// Transport-layer send cost: what a process pays per emitted wire
/// record, on top of the link model in sim::Network. The kernel path
/// charges a syscall-sized base plus a user→kernel copy per byte; a
/// kernel-bypass NIC (RECIPE-style RDMA/DPDK) replaces the syscall with
/// a doorbell write and, with scatter-gather over registered buffers,
/// drops most of the per-byte staging copy — but bounds the records in
/// flight per peer by a credit window (receiver-managed RX descriptors),
/// modeled in sim::Network. The default none() profile charges nothing,
/// keeping every pre-existing configuration cost-identical to the seed.
struct TransportProfile {
    /// Per-record send entry: syscall (kernel) or doorbell (bypass).
    double tx_base_ns = 0.0;
    /// Per-byte staging copy into transport buffers.
    double tx_per_byte_ns = 0.0;
    /// Max in-flight records per directed peer before sends stall
    /// waiting for credits (0 = unlimited, the kernel socket model).
    std::uint32_t credit_window = 0;
    /// Scatter-gather send: a coalesced Bundle record stages only its
    /// framing (head and length prefixes) and references the messages
    /// it carries in place; every other record stages all of its bytes.
    bool scatter_gather = false;

    /// Send cost of one record of which `copied` bytes were staged.
    [[nodiscard]] Duration tx(std::size_t copied) const noexcept;

    /// Free transport (the seed's implicit model; charges nothing).
    static TransportProfile none() noexcept;

    /// Kernel NIC: sendmsg()-sized entry plus full per-byte copy.
    static TransportProfile kernel_nic() noexcept;

    /// Kernel-bypass NIC: doorbell-sized entry, same per-byte cost for
    /// whatever is still staged, 128-record credit window. Stages whole
    /// records; set scatter_gather for the zero-copy variant.
    static TransportProfile bypass() noexcept;
};

/// Enclave-specific fixed costs, charged by the EnclaveHost gate on top of
/// a CostProfile. Mirrors §V-A: ecalls flush the TLB, switch stacks and
/// copy parameters; EPC paging encrypts evicted pages.
struct EnclaveCosts {
    double ecall_transition_ns = 0.0;
    double ocall_transition_ns = 0.0;
    double param_copy_per_byte_ns = 0.0;
    double epc_page_fault_ns = 0.0;
    std::size_t epc_limit_bytes = 0;

    /// SGXv1-era costs matching the paper's i7-6700 / SDK v1.9 setup.
    static EnclaveCosts sgx_v1() noexcept;

    /// The "ctroxy" variant: the same native library invoked through JNI
    /// but outside SGX — cheap call transitions, no EPC.
    static EnclaveCosts jni_only() noexcept;

    /// Zero-cost variant (for ablations: "what if transitions were free").
    static EnclaveCosts free() noexcept;
};

}  // namespace troxy::sim

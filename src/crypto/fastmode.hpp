// Fast-crypto mode for large simulations.
//
// Benchmark runs push millions of simulated messages; computing real
// SHA-256/Poly1305 over every one would dominate wall-clock time without
// affecting results, because *modelled* costs (sim::CostProfile), not
// host-CPU costs, determine simulated performance. In fast mode the
// one-shot primitives switch to a keyed 64-bit word-stride hash that keeps
// identical sizes and verification semantics (a tampered message still
// fails to verify) but runs an order of magnitude faster.
//
// Tests and examples leave fast mode off and exercise the real,
// RFC-vector-checked implementations. Each benchmark binary opts in at
// the top of main(). The flag is process-global by design: simulation
// runs are single-threaded and benchmarks are separate binaries.
#pragma once

#include <cstddef>
#include <cstdint>

namespace troxy::crypto {

[[nodiscard]] bool fast_crypto() noexcept;
void set_fast_crypto(bool enabled) noexcept;

namespace detail {
/// A 64-bit keyed hash (8-byte words mixed by multiply–xorshift, the tail
/// bytes by FNV-1a), expanded to n output bytes via SplitMix64.
void fast_digest(const std::uint8_t* data, std::size_t len,
                 std::uint64_t seed, std::uint8_t* out,
                 std::size_t out_len) noexcept;
}  // namespace detail

}  // namespace troxy::crypto

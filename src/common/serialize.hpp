// Bounds-checked binary serialization.
//
// All wire messages (BFT protocol, secure-channel records, cache queries)
// are encoded with Writer and decoded with Reader. Integers are
// little-endian fixed width; variable data is length-prefixed with u32.
// Reader reports malformed input via DecodeError so a Byzantine peer can
// never crash a correct node with a truncated message.
//
// The hot path stays off the heap: Writer appends each integer in one
// insert, FixedWriter builds fixed-layout records (MAC inputs, certified
// views) in a std::array, and Reader reads fixed-size fields straight
// into the caller's array and can borrow a length-prefixed field in place.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

#include "common/assert.hpp"
#include "common/bytes.hpp"

namespace troxy {

/// Thrown by Reader on truncated or oversized input. Protocol code
/// catches this at the message boundary and discards the message,
/// per the system model ("if a correct component receives a message it
/// cannot verify, the component discards the message").
class DecodeError : public std::runtime_error {
  public:
    explicit DecodeError(const std::string& what) : std::runtime_error(what) {}
};

/// Stores the low `n` bytes of `v` little-endian at `out`.
inline void store_le(std::uint8_t* out, std::uint64_t v, int n) noexcept {
    for (int i = 0; i < n; ++i) {
        out[i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
}

class Writer {
  public:
    Writer() = default;

    /// Reuses `backing`'s allocation (pool-recycled wire buffers): the
    /// buffer is cleared, its capacity kept.
    explicit Writer(Bytes&& backing) noexcept : buf_(std::move(backing)) {
        buf_.clear();
    }

    void u8(std::uint8_t v) { buf_.push_back(v); }
    void u16(std::uint16_t v) { put_le(v, 2); }
    void u32(std::uint32_t v) { put_le(v, 4); }
    void u64(std::uint64_t v) { put_le(v, 8); }

    /// Length-prefixed byte string (u32 length).
    void bytes(ByteView b) {
        u32(static_cast<std::uint32_t>(b.size()));
        raw(b);
    }

    void str(std::string_view s) {
        bytes(ByteView(reinterpret_cast<const std::uint8_t*>(s.data()),
                       s.size()));
    }

    /// Appends bytes without a length prefix (fixed-size fields like MACs).
    void raw(ByteView b) { buf_.insert(buf_.end(), b.begin(), b.end()); }

    /// Pre-reserves capacity for `n` further bytes. Hot-path encoders call
    /// this once up front so a message serializes with one allocation.
    void reserve(std::size_t n) { buf_.reserve(buf_.size() + n); }

    [[nodiscard]] const Bytes& data() const& noexcept { return buf_; }
    [[nodiscard]] Bytes take() && noexcept { return std::move(buf_); }
    [[nodiscard]] std::size_t size() const noexcept { return buf_.size(); }

    /// Mutable backing buffer — for encoders that post-process an
    /// already-written region in place (e.g. sealing plaintext where it
    /// sits instead of sealing a copy).
    [[nodiscard]] Bytes& buffer() noexcept { return buf_; }

  private:
    void put_le(std::uint64_t v, int n) {
        std::uint8_t le[8];
        store_le(le, v, n);
        buf_.insert(buf_.end(), le, le + n);
    }

    Bytes buf_;
};

/// Writes a variable-length record through `write(Writer&)` into a
/// caller-owned scratch buffer (cleared, capacity reused) and returns a
/// view of it: once the scratch is warm, building the record allocates
/// nothing. The view is valid until the scratch is written again.
template <typename Write>
ByteView write_scratch(Bytes& scratch, Write&& write) {
    Writer w(std::move(scratch));
    write(w);
    scratch = std::move(w).take();
    return scratch;
}

/// Writer for a record of exactly N bytes (MAC inputs, fixed certified
/// views): the same little-endian layout as Writer, built in a std::array
/// so it never touches the heap. take() checks the record was filled.
template <std::size_t N>
class FixedWriter {
  public:
    void u8(std::uint8_t v) { put_le(v, 1); }
    void u32(std::uint32_t v) { put_le(v, 4); }
    void u64(std::uint64_t v) { put_le(v, 8); }

    void raw(ByteView b) {
        TROXY_ASSERT(b.size() <= N - pos_, "fixed record overflow");
        if (b.empty()) return;
        std::memcpy(buf_.data() + pos_, b.data(), b.size());
        pos_ += b.size();
    }

    [[nodiscard]] std::array<std::uint8_t, N> take() const {
        TROXY_ASSERT(pos_ == N, "fixed record not filled");
        return buf_;
    }

  private:
    void put_le(std::uint64_t v, int n) {
        TROXY_ASSERT(static_cast<std::size_t>(n) <= N - pos_,
                     "fixed record overflow");
        store_le(buf_.data() + pos_, v, n);
        pos_ += static_cast<std::size_t>(n);
    }

    std::array<std::uint8_t, N> buf_{};
    std::size_t pos_ = 0;
};

class Reader {
  public:
    explicit Reader(ByteView data) noexcept : data_(data) {}

    std::uint8_t u8() { return static_cast<std::uint8_t>(get_le(1)); }
    std::uint16_t u16() { return static_cast<std::uint16_t>(get_le(2)); }
    std::uint32_t u32() { return static_cast<std::uint32_t>(get_le(4)); }
    std::uint64_t u64() { return get_le(8); }

    Bytes bytes() {
        const ByteView b = bytes_view();
        return Bytes(b.begin(), b.end());
    }

    /// Borrowed length-prefixed field: the view aliases the input and is
    /// valid only as long as the decoded buffer is.
    ByteView bytes_view() {
        const std::uint32_t n = u32();
        if (n > remaining()) throw DecodeError("length prefix exceeds input");
        const ByteView out = data_.subspan(pos_, n);
        pos_ += n;
        return out;
    }

    std::string str() { return std::string(str_view()); }

    /// Borrowed length-prefixed string; aliases the input like
    /// bytes_view().
    std::string_view str_view() {
        const ByteView b = bytes_view();
        return {reinterpret_cast<const char*>(b.data()), b.size()};
    }

    /// Reads exactly N bytes into a caller's array (digests, certificates)
    /// without a temporary buffer.
    template <std::size_t N>
    void read_into(std::array<std::uint8_t, N>& out) {
        require(N);
        std::memcpy(out.data(), data_.data() + pos_, N);
        pos_ += N;
    }

    [[nodiscard]] std::size_t remaining() const noexcept {
        return data_.size() - pos_;
    }
    [[nodiscard]] bool done() const noexcept { return remaining() == 0; }

    /// Call after decoding a full message to reject trailing garbage.
    void expect_done() const {
        if (!done()) throw DecodeError("trailing bytes after message");
    }

  private:
    void require(std::size_t n) const {
        if (remaining() < n) throw DecodeError("truncated input");
    }

    std::uint64_t get_le(int n) {
        require(static_cast<std::size_t>(n));
        std::uint64_t v = 0;
        for (int i = 0; i < n; ++i) {
            v |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
        }
        pos_ += static_cast<std::size_t>(n);
        return v;
    }

    ByteView data_;
    std::size_t pos_ = 0;
};

}  // namespace troxy

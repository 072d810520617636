// Bounds-checked binary serialization.
//
// All wire messages (BFT protocol, secure-channel records, cache queries)
// are encoded with Writer and decoded with Reader. Integers are
// little-endian fixed width; variable data is length-prefixed with u32.
// Reader reports malformed input via DecodeError so a Byzantine peer can
// never crash a correct node with a truncated message.
//
// A wire message states its layout once, as a list of fields in wire
// order:
//
//     template <class Io, class M> static void layout(Io& io, M& m);
//
// Writer encodes it, Reader decodes it into the caller's object, Sizer
// counts its bytes without allocating, FixedWriter builds it into a
// std::array, and Uncertified<Io> skips the message's own certificate
// (its certified view). They share one field vocabulary: u8/u16/u32/u64,
// flag (a bool byte, 0 or 1), enum8 (an enum byte up to a last value),
// array (a digest), bytes/str (u32 length, then the bytes), cert (one
// tag), auth (an authenticator at the reader's width, or with a cap a
// counted list of tags) and list (a counted list of digests or of structs
// with their own layout; the cap's integer type is the count's wire
// type).
//
// Reader::list rejects a count above its cap, or above what the bytes
// left could hold at the element's minimum size, before it reserves
// anything: a short frame claiming a huge list costs the receiver
// nothing.
//
// The hot path stays off the heap: Writer appends each integer in one
// insert, FixedWriter builds fixed-layout records (MAC inputs, certified
// views) on the stack, and Reader reads fixed-size fields straight into
// the caller's array and can borrow a length-prefixed field in place.
#pragma once

#include <array>
#include <concepts>
#include <cstdint>
#include <cstring>
#include <ranges>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/bytes.hpp"

namespace troxy {

/// Thrown by Reader on truncated or oversized input. Protocol code
/// catches this at the message boundary and discards the message,
/// per the system model ("if a correct component receives a message it
/// cannot verify, the component discards the message").
/// Every throw site names a literal, which the error keeps by pointer:
/// refusing a message allocates nothing.
class DecodeError : public std::exception {
  public:
    explicit DecodeError(const char* what) noexcept : what_(what) {}
    [[nodiscard]] const char* what() const noexcept override { return what_; }

  private:
    const char* what_;
};

/// Stores the low `n` bytes of `v` little-endian at `out`.
inline void store_le(std::uint8_t* out, std::uint64_t v, int n) noexcept {
    for (int i = 0; i < n; ++i) {
        out[i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
}

namespace detail {
template <class T>
inline constexpr bool kIsByteArray = false;
template <std::size_t N>
inline constexpr bool kIsByteArray<std::array<std::uint8_t, N>> = true;
}  // namespace detail

/// One element of a list: a fixed byte array, or a struct with its own
/// layout.
template <class Io, class T>
void layout_of(Io& io, T& item) {
    if constexpr (detail::kIsByteArray<std::remove_const_t<T>>) {
        io.array(item);
    } else {
        std::remove_const_t<T>::layout(io, item);
    }
}

/// The field vocabulary of an encoder, over its two primitives
/// `put_le(v, n)` (the low n bytes of v) and `raw(bytes)`. Fields go
/// through self(), so an encoder may write any of them its own way.
template <class Derived>
class Encoder {
  public:
    static constexpr bool kReads = false;

    void u8(std::uint8_t v) { self().put_le(v, 1); }
    void u16(std::uint16_t v) { self().put_le(v, 2); }
    void u32(std::uint32_t v) { self().put_le(v, 4); }
    void u64(std::uint64_t v) { self().put_le(v, 8); }

    /// Length-prefixed byte string (u32 length).
    void bytes(ByteView b) {
        self().u32(static_cast<std::uint32_t>(b.size()));
        self().raw(b);
    }
    void str(std::string_view s) {
        bytes(ByteView(reinterpret_cast<const std::uint8_t*>(s.data()),
                       s.size()));
    }
    void flag(bool v) { self().u8(v ? 1 : 0); }
    template <class E>
    void enum8(E v, E /*last*/) {
        self().u8(static_cast<std::uint8_t>(v));
    }
    template <std::size_t N>
    void array(const std::array<std::uint8_t, N>& a) {
        self().raw(a);
    }
    template <std::size_t N>
    void cert(const std::array<std::uint8_t, N>& tag) {
        self().raw(tag);
    }
    template <class Tags>
    void auth(const Tags& tags) {
        for (const auto& tag : tags) self().raw(tag);
    }
    template <class Tags, std::unsigned_integral Count>
    void auth(const Tags& tags, Count cap) {
        count(tags.size(), cap);
        auth(tags);
    }
    template <class Range, std::unsigned_integral Count>
    void list(const Range& items, Count cap) {
        count(std::ranges::size(items), cap);
        for (const auto& item : items) layout_of(self(), item);
    }

  private:
    Derived& self() noexcept { return static_cast<Derived&>(*this); }

    template <class Count>
    void count(std::size_t n, Count cap) {
        TROXY_ASSERT(n <= cap, "list longer than its wire cap");
        self().put_le(n, sizeof(Count));
    }
};

class Writer : public Encoder<Writer> {
  public:
    Writer() = default;

    /// Reuses `backing`'s allocation (pool-recycled wire buffers): the
    /// buffer is cleared, its capacity kept.
    explicit Writer(Bytes&& backing) noexcept : buf_(std::move(backing)) {
        buf_.clear();
    }

    void u8(std::uint8_t v) { buf_.push_back(v); }

    /// Appends bytes without a length prefix (fixed-size fields like MACs).
    void raw(ByteView b) { buf_.insert(buf_.end(), b.begin(), b.end()); }
    void put_le(std::uint64_t v, int n) {
        std::uint8_t le[8];
        store_le(le, v, n);
        buf_.insert(buf_.end(), le, le + n);
    }

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
    Bytes buf_;
};

/// Counts the bytes a layout encodes to, allocating nothing.
class Sizer : public Encoder<Sizer> {
  public:
    void raw(ByteView b) noexcept { size_ += b.size(); }
    void put_le(std::uint64_t, int n) noexcept {
        size_ += static_cast<std::size_t>(n);
    }

    [[nodiscard]] std::size_t size() const noexcept { return size_; }

  private:
    std::size_t size_ = 0;
};

/// Encoded size of a message with a layout.
template <class M>
std::size_t wire_size(const M& message) {
    Sizer sizer;
    M::layout(sizer, message);
    return sizer.size();
}

/// Writes or sizes a layout without the message's own certificate: the
/// bytes that certificate covers. Messages nested in a list keep theirs,
/// since the list hands each element the underlying encoder.
template <class Io>
class Uncertified : public Io {
  public:
    using Io::Io;

    template <class... T>
    void cert(const T&...) noexcept {}
    template <class... T>
    void auth(const T&...) noexcept {}
};

/// Writes a variable-length record through `write(Writer&)` into a
/// caller-owned scratch buffer (cleared, capacity reused) and returns a
/// view of it: once the scratch is warm, building the record allocates
/// nothing. The view is valid until the scratch is written again.
template <class W = Writer, typename Write>
ByteView write_scratch(Bytes& scratch, Write&& write) {
    W w(std::move(scratch));
    write(w);
    scratch = std::move(w).take();
    return scratch;
}

/// The certified view of a message with a layout — every field but its
/// own certificate — written into `scratch` like write_scratch().
template <class M>
ByteView write_certified(Bytes& scratch, const M& message) {
    Uncertified<Sizer> size;
    M::layout(size, message);
    return write_scratch<Uncertified<Writer>>(scratch, [&](auto& w) {
        w.reserve(size.size());
        M::layout(w, message);
    });
}

/// write_certified() into a fresh buffer, for cold paths.
template <class M>
Bytes certified_bytes(const M& message) {
    Bytes out;
    (void)write_certified(out, message);
    return out;
}

/// Writer for a record of exactly N bytes (MAC inputs, fixed certified
/// views): the same little-endian layout as Writer, built in a std::array
/// so it never touches the heap. take() checks the record was filled.
template <std::size_t N>
class FixedWriter : public Encoder<FixedWriter<N>> {
  public:
    void raw(ByteView b) {
        TROXY_ASSERT(b.size() <= N - pos_, "fixed record overflow");
        if (b.empty()) return;
        std::memcpy(buf_.data() + pos_, b.data(), b.size());
        pos_ += b.size();
    }
    void put_le(std::uint64_t v, int n) {
        TROXY_ASSERT(static_cast<std::size_t>(n) <= N - pos_,
                     "fixed record overflow");
        store_le(buf_.data() + pos_, v, n);
        pos_ += static_cast<std::size_t>(n);
    }

    [[nodiscard]] std::array<std::uint8_t, N> take() const {
        TROXY_ASSERT(pos_ == N, "fixed record not filled");
        return buf_;
    }

  private:
    std::array<std::uint8_t, N> buf_{};
    std::size_t pos_ = 0;
};

class Reader {
  public:
    static constexpr bool kReads = true;

    /// `auth_width` is the tag count of every authenticator field read.
    explicit Reader(ByteView data, std::size_t auth_width = 1) noexcept
        : data_(data), auth_width_(auth_width) {}

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

    // The layout vocabulary: each reads into the field it names, reusing
    // the field's own buffer.
    void u8(std::uint8_t& v) { v = u8(); }
    void u16(std::uint16_t& v) { v = u16(); }
    void u32(std::uint32_t& v) { v = u32(); }
    void u64(std::uint64_t& v) { v = u64(); }
    void bytes(Bytes& out) {
        const ByteView b = bytes_view();
        out.assign(b.begin(), b.end());
    }
    void str(std::string& out) { out.assign(str_view()); }
    void flag(bool& v) {
        const std::uint8_t raw = u8();
        if (raw > 1) throw DecodeError("flag byte above 1");
        v = raw == 1;
    }
    template <class E>
    void enum8(E& v, E last) {
        const std::uint8_t raw = u8();
        if (raw > static_cast<std::uint8_t>(last)) {
            throw DecodeError("enum value out of range");
        }
        v = static_cast<E>(raw);
    }
    template <std::size_t N>
    void array(std::array<std::uint8_t, N>& a) {
        read_into(a);
    }
    template <std::size_t N>
    void cert(std::array<std::uint8_t, N>& tag) {
        read_into(tag);
    }
    template <class Auth>
    void auth(Auth& auth) {
        if (auth.size() != auth_width_) auth = Auth::zeros(auth_width_);
        for (std::size_t i = 0; i < auth_width_; ++i) read_into(auth[i]);
    }
    template <class T, std::unsigned_integral Count>
    void list(std::vector<T>& items, Count cap) {
        const auto count = static_cast<Count>(get_le(sizeof(Count)));
        if (count > cap) throw DecodeError("list count above its cap");
        if (count > remaining() / min_size<T>()) {
            throw DecodeError("list count exceeds input");
        }
        items.clear();
        items.reserve(count);
        for (Count i = 0; i < count; ++i) {
            layout_of(*this, items.emplace_back());
        }
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

    /// The fewest bytes a list element can take: a default element's.
    template <class T>
    static std::size_t min_size() {
        const T probe{};
        Sizer sizer;
        layout_of(sizer, probe);
        TROXY_ASSERT(sizer.size() > 0, "list elements take wire bytes");
        return sizer.size();
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
    std::size_t auth_width_;
};

}  // namespace troxy

#include "hybster/messages.hpp"

#include <cstring>
#include <new>
#include <tuple>

#include "common/assert.hpp"

#if defined(__has_include) && __has_include(<sanitizer/asan_interface.h>)
#include <sanitizer/asan_interface.h>  // no-op macros without ASan
#endif
#ifndef ASAN_POISON_MEMORY_REGION
#define ASAN_POISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#define ASAN_UNPOISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#endif

namespace troxy::hybster {

// ------------------------------------------------------------ RequestBody

namespace {

// Size classes step by 64 B up to 4 KiB, so a block wastes less than one
// step; kUnpooled marks a larger block, which the heap serves directly.
constexpr std::size_t kClassStep = 64;
constexpr std::uint32_t kClasses = 64;
constexpr std::uint32_t kUnpooled = kClasses;
// Retention bound per thread. A stable checkpoint frees every group's
// log up to it at about the same time, and the next interval takes the
// blocks back one by one, so the lists must hold a few intervals' worth
// (about 2,000 blocks on an unbatched Fig. 6 run); what does not fit goes
// back to the heap.
constexpr std::size_t kRetainedBytes = 8 * 1024 * 1024;

constexpr std::size_t class_bytes(std::uint32_t size_class) {
    return (size_class + 1) * kClassStep;
}

constexpr std::uint32_t size_class_of(std::size_t bytes) {
    return bytes > class_bytes(kClasses - 1)
               ? kUnpooled
               : static_cast<std::uint32_t>((bytes - 1) / kClassStep);
}

/// One thread's spare blocks: an intrusive list per class, linked through
/// each waiting block's first word. Plain data, so a body freed during
/// static destruction still finds it; `closed` then routes it to the heap.
struct FreeLists {
    void* head[kClasses];
    std::size_t retained_bytes;
    bool closed;
};
constinit thread_local FreeLists t_free_lists{};

/// Returns a thread's retained blocks to the heap when the thread ends.
struct FreeListsReaper {
    FreeListsReaper() = default;
    FreeListsReaper(const FreeListsReaper&) = delete;
    FreeListsReaper& operator=(const FreeListsReaper&) = delete;
    ~FreeListsReaper() {
        FreeLists& lists = t_free_lists;
        lists.closed = true;
        for (std::uint32_t c = 0; c < kClasses; ++c) {
            while (void* block = lists.head[c]) {
                ASAN_UNPOISON_MEMORY_REGION(block, class_bytes(c));
                std::memcpy(&lists.head[c], block, sizeof(void*));
                ::operator delete(block);
            }
        }
        lists.retained_bytes = 0;
    }
};

void* take_block(std::uint32_t size_class, std::size_t bytes) {
    if (size_class == kUnpooled) return ::operator new(bytes);
    FreeLists& lists = t_free_lists;
    void* block = lists.head[size_class];
    if (block == nullptr) return ::operator new(class_bytes(size_class));
    ASAN_UNPOISON_MEMORY_REGION(block, class_bytes(size_class));
    std::memcpy(&lists.head[size_class], block, sizeof(void*));
    lists.retained_bytes -= class_bytes(size_class);
    return block;
}

void give_block(void* block, std::uint32_t size_class) {
    FreeLists& lists = t_free_lists;
    if (size_class == kUnpooled || lists.closed ||
        lists.retained_bytes + class_bytes(size_class) > kRetainedBytes) {
        ::operator delete(block);
        return;
    }
    static thread_local FreeListsReaper reaper;
    (void)reaper;
    std::memcpy(block, &lists.head[size_class], sizeof(void*));
    ASAN_POISON_MEMORY_REGION(block, class_bytes(size_class));
    lists.head[size_class] = block;
    lists.retained_bytes += class_bytes(size_class);
}

}  // namespace

RequestBody::RequestBody(ByteView payload, std::size_t auth_count) {
    if (payload.empty() && auth_count == 0) return;
    const std::size_t cert_bytes = auth_count * sizeof(Certificate);
    const std::size_t size = sizeof(Block) + payload.size() + cert_bytes;
    const std::uint32_t size_class = size_class_of(size);
    block_ = static_cast<Block*>(take_block(size_class, size));
    block_->refs = 1;
    block_->payload_size = static_cast<std::uint32_t>(payload.size());
    block_->auth_count = static_cast<std::uint32_t>(auth_count);
    block_->size_class = size_class;
    if (!payload.empty()) {
        std::memcpy(bytes(), payload.data(), payload.size());
    }
    if (cert_bytes != 0) std::memset(certs(), 0, cert_bytes);
}

RequestBody::~RequestBody() {
    if (block_ != nullptr && --block_->refs == 0) {
        give_block(block_, block_->size_class);
    }
}

std::span<Certificate> RequestBody::auth_slots() {
    if (block_ == nullptr) return {};
    TROXY_ASSERT(block_->refs == 1, "request body is already shared");
    return {certs(), block_->auth_count};
}

// ---------------------------------------------------------------- Request

void Request::assign(ByteView payload, std::size_t auth_count) {
    body_ = RequestBody(payload, auth_count);
    digest_cache_.reset();
}

Request Request::decode(Reader& r) {
    Request req;
    RequestId::layout(r, req.id);
    r.u8(req.flags);
    const ByteView payload = r.bytes_view();
    const std::uint8_t count = r.u8();
    if (r.remaining() < count * sizeof(Certificate)) {
        throw DecodeError("truncated input");
    }
    req.body_ = RequestBody(payload, count);
    for (Certificate& cert : req.body_.auth_slots()) r.cert(cert);
    return req;
}

const crypto::Sha256Digest& Request::digest() const {
    if (!digest_cache_) digest_cache_ = crypto::sha256(signed_view());
    return *digest_cache_;
}

const crypto::Sha256Digest& Request::digest_with(
    enclave::CostedCrypto& crypto, Bytes& scratch) const {
    if (!digest_cache_) digest_cache_ = crypto.hash(signed_view(scratch));
    return *digest_cache_;
}

// ------------------------------------------------------------------ Batch

const crypto::Sha256Digest& Batch::digest() const {
    if (digest_cache_) return *digest_cache_;
    if (requests.size() == 1) {
        digest_cache_ = requests.front().digest();
        return *digest_cache_;
    }
    Writer w;
    w.reserve(requests.size() * crypto::kSha256DigestSize);
    for (const Request& request : requests) w.raw(request.digest());
    digest_cache_ = crypto::sha256(w.data());
    return *digest_cache_;
}

const crypto::Sha256Digest& Batch::digest_with(
    enclave::CostedCrypto& crypto, Bytes& scratch) const {
    if (digest_cache_) return *digest_cache_;
    for (const Request& request : requests) {
        (void)request.digest_with(crypto, scratch);
    }
    if (requests.size() == 1) {
        digest_cache_ = requests.front().digest();
        return *digest_cache_;
    }
    digest_cache_ = crypto.hash(write_scratch(scratch, [this](Writer& w) {
        w.reserve(requests.size() * crypto::kSha256DigestSize);
        for (const Request& request : requests) w.raw(request.digest());
    }));
    return *digest_cache_;
}

// ---------------------------------------------------------------- Prepare

AgreementView Prepare::certified_view() const {
    // The counter certifies the batch *digest*, not the serialized batch:
    // the digest binds every member, and certification cost stays constant
    // in the batch size. Callers charge the digest via digest_with() before
    // certifying; here the memoized value is free.
    //
    // The member count is certified alongside the digest. Without it, one
    // certificate could cover two structurally different batches: a
    // single-member batch digests to the raw request digest, and a request
    // whose signed bytes were ground to equal the concatenated member
    // digests of a k-member batch would share its combining hash. Binding
    // (count, digest) makes those certified views distinct, so a Byzantine
    // leader cannot equivocate between them under one counter value.
    FixedWriter<std::tuple_size_v<AgreementView>> w;
    w.u64(view);
    w.u64(seq);
    w.u32(replica);
    w.u32(static_cast<std::uint32_t>(batch.size()));
    w.raw(batch.digest());
    return w.take();
}

// ----------------------------------------------------------------- Commit

AgreementView Commit::certified_view() const {
    // (batch_size, batch_digest) pins the batch structure — mirror of
    // Prepare::certified_view(), see the rationale there.
    FixedWriter<std::tuple_size_v<AgreementView>> w;
    w.u64(view);
    w.u64(seq);
    w.u32(replica);
    w.u32(batch_size);
    w.raw(batch_digest);
    return w.take();
}

// ------------------------------------------------------ certified views

CheckpointMsg::View CheckpointMsg::certified_view() const {
    Uncertified<FixedWriter<std::tuple_size_v<View>>> w;
    layout(w, *this);
    return w.take();
}

namespace {

/// The type tag of M, then what `fields` writes of `message`.
template <class M, class Fields>
Bytes tagged_view(const M& message, Fields fields) {
    Uncertified<Sizer> size;
    fields(size, message);
    Uncertified<Writer> w;
    w.reserve(1 + size.size());
    w.u8(static_cast<std::uint8_t>(M::kType));
    fields(w, message);
    return std::move(w).take();
}

}  // namespace

Bytes StateRequest::certified_view() const {
    return tagged_view(*this, [](auto& io, auto& m) { layout(io, m); });
}

Bytes StateResponse::certified_view() const {
    return tagged_view(*this, [](auto& io, auto& m) { head(io, m); });
}

// -------------------------------------------------------------- top level

Bytes encode_message(const Message& message) {
    return std::visit(
        [](const auto& msg) {
            return detail::encode_sized(msg, std::nullopt, nullptr);
        },
        message);
}

namespace {

/// Reads a T from `data` (type tag included) into `out`; false on a
/// wrong tag, malformed fields or trailing bytes.
template <typename T>
bool read_tagged(ByteView data, T& out, std::size_t auth_width) {
    if (data.empty() || data[0] != static_cast<std::uint8_t>(T::kType)) {
        return false;
    }
    try {
        Reader r(data.subspan(1), auth_width);
        T::layout(r, out);
        r.expect_done();
        return true;
    } catch (const DecodeError&) {
        return false;
    }
}

template <typename T>
std::optional<Message> read_message(ByteView data, std::size_t auth_width) {
    T message;
    if (!read_tagged(data, message, auth_width)) return std::nullopt;
    return Message(std::move(message));
}

}  // namespace

std::optional<Message> decode_message(ByteView data,
                                      std::size_t auth_width) {
    if (data.empty()) return std::nullopt;
    switch (static_cast<MsgType>(data[0])) {
        case MsgType::Request: return read_message<Request>(data, auth_width);
        case MsgType::Prepare: return read_message<Prepare>(data, auth_width);
        case MsgType::Commit: return read_message<Commit>(data, auth_width);
        case MsgType::Reply: return read_message<Reply>(data, auth_width);
        case MsgType::Checkpoint:
            return read_message<CheckpointMsg>(data, auth_width);
        case MsgType::ViewChange:
            return read_message<ViewChange>(data, auth_width);
        case MsgType::NewView: return read_message<NewView>(data, auth_width);
        case MsgType::StateRequest:
            return read_message<StateRequest>(data, auth_width);
        case MsgType::StateResponse:
            return read_message<StateResponse>(data, auth_width);
    }
    return std::nullopt;
}

bool decode_prepare_into(ByteView data, Prepare& out,
                         std::size_t auth_width) {
    return read_tagged(data, out, auth_width);
}

bool decode_reply_into(ByteView data, Reply& out) {
    return read_tagged(data, out, 1);
}

}  // namespace troxy::hybster

#include "hybster/service.hpp"

#include <vector>

namespace troxy::hybster {

namespace {

// Retention bound per thread, counted as each kept buffer's capacity plus
// its Bytes object. An executed batch holds one result per member until
// its replies are delivered, so the list settles at about one batch's
// worth; the bound only matters for a caller that gives back buffers it
// did not take.
constexpr std::size_t kRetainedBytes = 1024 * 1024;

/// One thread's spare result buffers. Plain data, so a buffer given back
/// during static destruction still finds it; `closed` then routes it to
/// the heap.
struct SpareResults {
    std::vector<Bytes>* buffers;  // null until the first give
    std::size_t retained_bytes;
    bool closed;
};
constinit thread_local SpareResults t_spare_results{};

/// Owns a thread's spare buffers and returns them to the heap when the
/// thread ends.
struct SpareResultsOwner {
    SpareResultsOwner() { t_spare_results.buffers = &buffers; }
    SpareResultsOwner(const SpareResultsOwner&) = delete;
    SpareResultsOwner& operator=(const SpareResultsOwner&) = delete;
    ~SpareResultsOwner() {
        SpareResults& spares = t_spare_results;
        spares.closed = true;
        spares.buffers = nullptr;
        spares.retained_bytes = 0;
    }

    std::vector<Bytes> buffers;
};

std::size_t retained_size(const Bytes& buffer) {
    return buffer.capacity() + sizeof(Bytes);
}

}  // namespace

Bytes take_result_buffer() {
    SpareResults& spares = t_spare_results;
    if (spares.buffers == nullptr || spares.buffers->empty()) return {};
    Bytes buffer = std::move(spares.buffers->back());
    spares.buffers->pop_back();
    spares.retained_bytes -= retained_size(buffer);
    return buffer;
}

void give_result_buffer(Bytes buffer) {
    SpareResults& spares = t_spare_results;
    if (buffer.capacity() == 0 || spares.closed ||
        spares.retained_bytes + retained_size(buffer) > kRetainedBytes) {
        return;
    }
    static thread_local SpareResultsOwner owner;
    (void)owner;
    buffer.clear();
    spares.retained_bytes += retained_size(buffer);
    spares.buffers->push_back(std::move(buffer));
}

}  // namespace troxy::hybster

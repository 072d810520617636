#include "http/page_service.hpp"

#include "common/serialize.hpp"
#include "http/http.hpp"

namespace troxy::http {

namespace {

hybster::RequestInfo classify_http(ByteView request) {
    hybster::RequestInfo info;
    auto parsed = parse_request(request);
    if (!parsed) {
        info.is_read = true;
        info.state_key = "http:invalid";
        return info;
    }
    info.is_read = parsed->method == "GET" || parsed->method == "HEAD";
    info.state_key = "http:" + parsed->path;
    return info;
}

/// The 200 response every page reply is: its body is the page.
const HttpResponse& html_ok() {
    static const HttpResponse response = [] {
        HttpResponse ok;
        ok.headers["content-type"] = "text/html";
        return ok;
    }();
    return response;
}

/// `response` with `content` as its body, in a reply buffer from the
/// spare list.
Bytes reply_of(const HttpResponse& response, ByteView content) {
    Bytes reply = hybster::take_result_buffer();
    response.serialize_into(reply, content);
    return reply;
}

/// A plain-text error response whose body is its reason phrase.
Bytes error_reply(int status, std::string reason) {
    HttpResponse response;
    response.status = status;
    response.reason = std::move(reason);
    response.headers["content-type"] = "text/plain";
    response.body = to_bytes(response.reason);
    return reply_of(response, response.body);
}

}  // namespace

std::size_t PageService::initial_size(int page) {
    // Cycle through the paper's 4 KB … 18 KB response range.
    return 4096 + static_cast<std::size_t>(page % 15) * 1024;
}

std::string PageService::initial_content(int page) {
    const std::size_t size = initial_size(page);
    std::string content;
    content.reserve(size);
    const std::string stamp = "<page id=\"" + std::to_string(page) + "\">";
    content += stamp;
    std::uint64_t state = static_cast<std::uint64_t>(page) * 2654435761u + 1;
    while (content.size() < size - 8) {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        content += "abcdefghijklmnopqrstuvwxyz"[state % 26];
    }
    content += "</page>";
    return content;
}

PageService::PageService(int page_count) {
    for (int page = 0; page < page_count; ++page) {
        pages_["/page/" + std::to_string(page)] = initial_content(page);
    }
}

hybster::RequestInfo PageService::classify(ByteView request) const {
    return classify_http(request);
}

troxy_core::Classifier PageService::classifier() {
    return [](ByteView request) { return classify_http(request); };
}

Bytes PageService::execute(ByteView request) {
    auto parsed = parse_request(request);
    if (!parsed) return error_reply(400, "Bad Request");

    if (parsed->method == "GET") {
        const auto it = pages_.find(parsed->path);
        if (it == pages_.end()) return error_reply(404, "Not Found");
        const std::string& page = it->second;
        return reply_of(
            html_ok(),
            ByteView(reinterpret_cast<const std::uint8_t*>(page.data()),
                     page.size()));
    }
    if (parsed->method == "POST" || parsed->method == "PUT") {
        pages_[parsed->path] = to_string(parsed->body);
        return reply_of(html_ok(), parsed->body);
    }
    return error_reply(405, "Method Not Allowed");
}

Bytes PageService::checkpoint() const {
    Writer w;
    w.u32(static_cast<std::uint32_t>(pages_.size()));
    for (const auto& [path, content] : pages_) {
        w.str(path);
        w.str(content);
    }
    return std::move(w).take();
}

void PageService::restore(ByteView snapshot) {
    pages_.clear();
    Reader r(snapshot);
    const std::uint32_t count = r.u32();
    for (std::uint32_t i = 0; i < count; ++i) {
        std::string path = r.str();
        pages_[std::move(path)] = r.str();
    }
}

sim::Duration PageService::execution_cost(ByteView request) const {
    // HTTP parsing plus page lookup/copy.
    return sim::nanoseconds(3'000 + request.size() / 4);
}

Bytes PageService::make_get(int page) {
    HttpRequest request;
    request.method = "GET";
    request.path = "/page/" + std::to_string(page);
    request.headers["host"] = "replicated.example";
    return request.serialize();
}

Bytes PageService::make_post(int page, ByteView body) {
    HttpRequest request;
    request.method = "POST";
    request.path = "/page/" + std::to_string(page);
    request.headers["host"] = "replicated.example";
    request.body.assign(body.begin(), body.end());
    return request.serialize();
}

}  // namespace troxy::http

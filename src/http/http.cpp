#include "http/http.hpp"

#include <algorithm>
#include <charconv>
#include <iterator>

namespace troxy::http {

namespace {

constexpr std::string_view kCrlf = "\r\n";

std::string to_lower(std::string_view s) {
    std::string out(s);
    std::transform(out.begin(), out.end(), out.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    return out;
}

/// Splits head (start line + headers) from body at the blank line.
struct Split {
    std::string head;
    Bytes body;
};

std::optional<Split> split_message(ByteView data) {
    const std::string text(data.begin(), data.end());
    const std::size_t blank = text.find("\r\n\r\n");
    if (blank == std::string::npos) return std::nullopt;
    Split out;
    out.head = text.substr(0, blank);
    out.body.assign(data.begin() + static_cast<std::ptrdiff_t>(blank + 4),
                    data.end());
    return out;
}

std::optional<std::map<std::string, std::string>> parse_headers(
    std::string_view head, std::size_t first_line_end) {
    std::map<std::string, std::string> headers;
    std::size_t pos = first_line_end;
    while (pos < head.size()) {
        if (head.substr(pos, 2) == kCrlf) pos += 2;
        const std::size_t line_end = head.find(kCrlf, pos);
        const std::string_view line =
            head.substr(pos, line_end == std::string_view::npos
                                 ? std::string_view::npos
                                 : line_end - pos);
        if (line.empty()) break;
        const std::size_t colon = line.find(':');
        if (colon == std::string_view::npos) return std::nullopt;
        std::string_view value = line.substr(colon + 1);
        while (!value.empty() && value.front() == ' ') value.remove_prefix(1);
        headers[to_lower(line.substr(0, colon))] = std::string(value);
        if (line_end == std::string_view::npos) break;
        pos = line_end;
    }
    return headers;
}

std::optional<std::size_t> content_length(
    const std::map<std::string, std::string>& headers) {
    const auto it = headers.find("content-length");
    if (it == headers.end()) return 0;
    std::size_t value = 0;
    const auto [ptr, ec] = std::from_chars(
        it->second.data(), it->second.data() + it->second.size(), value);
    if (ec != std::errc() || ptr != it->second.data() + it->second.size()) {
        return std::nullopt;
    }
    return value;
}

}  // namespace

Bytes HttpRequest::serialize() const {
    std::string out = method + " " + path + " HTTP/1.1" + std::string(kCrlf);
    auto headers_copy = headers;
    headers_copy["content-length"] = std::to_string(body.size());
    for (const auto& [name, value] : headers_copy) {
        out += name + ": " + value + std::string(kCrlf);
    }
    out += kCrlf;
    Bytes bytes = to_bytes(out);
    bytes.insert(bytes.end(), body.begin(), body.end());
    return bytes;
}

Bytes HttpResponse::serialize() const {
    Bytes out;
    serialize_into(out, body);
    return out;
}

void HttpResponse::serialize_into(Bytes& out, ByteView content) const {
    // Status line and content-length need at most 64 bytes besides the
    // reason; every other header its name, value and four separators.
    std::size_t size = 64 + reason.size() + content.size();
    for (const auto& [name, value] : headers) {
        size += name.size() + value.size() + 4;
    }
    out.clear();
    out.reserve(size);
    const auto put = [&out](std::string_view text) {
        out.insert(out.end(), text.begin(), text.end());
    };
    const auto put_number = [&out](auto value) {
        char digits[24];
        const auto result =
            std::to_chars(std::begin(digits), std::end(digits), value);
        out.insert(out.end(), std::begin(digits), result.ptr);
    };
    put("HTTP/1.1 ");
    put_number(status);
    put(" ");
    put(reason);
    put(kCrlf);
    // Headers in name order, with content-length set to the body's size
    // in its place among them.
    constexpr std::string_view kLength = "content-length";
    bool length_written = false;
    const auto put_length = [&] {
        put(kLength);
        put(": ");
        put_number(content.size());
        put(kCrlf);
        length_written = true;
    };
    for (const auto& [name, value] : headers) {
        if (!length_written && name >= kLength) put_length();
        if (name == kLength) continue;
        put(name);
        put(": ");
        put(value);
        put(kCrlf);
    }
    if (!length_written) put_length();
    put(kCrlf);
    out.insert(out.end(), content.begin(), content.end());
}

std::optional<HttpRequest> parse_request(ByteView data) {
    auto split = split_message(data);
    if (!split) return std::nullopt;

    const std::size_t line_end = split->head.find(kCrlf);
    const std::string_view first_line =
        std::string_view(split->head)
            .substr(0, line_end == std::string::npos ? split->head.size()
                                                     : line_end);

    const std::size_t sp1 = first_line.find(' ');
    const std::size_t sp2 =
        sp1 == std::string_view::npos ? sp1 : first_line.find(' ', sp1 + 1);
    if (sp1 == std::string_view::npos || sp2 == std::string_view::npos) {
        return std::nullopt;
    }
    const std::string_view version = first_line.substr(sp2 + 1);
    if (!version.starts_with("HTTP/1.")) return std::nullopt;

    HttpRequest request;
    request.method = std::string(first_line.substr(0, sp1));
    request.path = std::string(first_line.substr(sp1 + 1, sp2 - sp1 - 1));

    auto headers = parse_headers(
        split->head, line_end == std::string::npos ? split->head.size()
                                                   : line_end);
    if (!headers) return std::nullopt;
    request.headers = std::move(*headers);

    const auto length = content_length(request.headers);
    if (!length || *length != split->body.size()) return std::nullopt;
    request.body = std::move(split->body);
    return request;
}

std::optional<HttpResponse> parse_response(ByteView data) {
    auto split = split_message(data);
    if (!split) return std::nullopt;

    const std::size_t line_end = split->head.find(kCrlf);
    const std::string_view first_line =
        std::string_view(split->head)
            .substr(0, line_end == std::string::npos ? split->head.size()
                                                     : line_end);

    if (!first_line.starts_with("HTTP/1.")) return std::nullopt;
    const std::size_t sp1 = first_line.find(' ');
    if (sp1 == std::string_view::npos) return std::nullopt;
    const std::size_t sp2 = first_line.find(' ', sp1 + 1);

    HttpResponse response;
    const std::string_view status_text =
        first_line.substr(sp1 + 1, sp2 == std::string_view::npos
                                       ? std::string_view::npos
                                       : sp2 - sp1 - 1);
    int status = 0;
    const auto [ptr, ec] = std::from_chars(
        status_text.data(), status_text.data() + status_text.size(), status);
    if (ec != std::errc() || status < 100 || status > 599) {
        return std::nullopt;
    }
    (void)ptr;
    response.status = status;
    if (sp2 != std::string_view::npos) {
        response.reason = std::string(first_line.substr(sp2 + 1));
    }

    auto headers = parse_headers(
        split->head, line_end == std::string::npos ? split->head.size()
                                                   : line_end);
    if (!headers) return std::nullopt;
    response.headers = std::move(*headers);

    const auto length = content_length(response.headers);
    if (!length || *length != split->body.size()) return std::nullopt;
    response.body = std::move(split->body);
    return response;
}

}  // namespace troxy::http

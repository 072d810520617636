// Minimal HTTP/1.1 message handling.
//
// Enough of the protocol for the §VI-D web-service experiment: request
// line + headers + Content-Length body, response status line + headers +
// body. Messages carry their own length ("for many communication
// protocols, including HTTP, identifying message boundaries is
// straightforward", §III-E), which is exactly the property the Troxy
// relies on to treat requests as opaque records.
#pragma once

#include <map>
#include <optional>
#include <string>

#include "common/bytes.hpp"

namespace troxy::http {

struct HttpRequest {
    std::string method;  // "GET", "POST", ...
    std::string path;    // "/page/7"
    std::map<std::string, std::string> headers;
    Bytes body;

    [[nodiscard]] Bytes serialize() const;
};

struct HttpResponse {
    int status = 200;
    std::string reason = "OK";
    std::map<std::string, std::string> headers;
    Bytes body;

    [[nodiscard]] Bytes serialize() const;
    /// serialize() with `content` in place of `body`, written into `out`
    /// (its contents replaced, its capacity kept): a server answers with
    /// bytes it holds elsewhere without copying them into a response.
    void serialize_into(Bytes& out, ByteView content) const;
};

/// Parses a complete HTTP request; nullopt on malformed or incomplete
/// input (the secure channel delivers whole records, so incomplete means
/// malformed here).
std::optional<HttpRequest> parse_request(ByteView data);

/// Parses a complete HTTP response.
std::optional<HttpResponse> parse_response(ByteView data);

}  // namespace troxy::http

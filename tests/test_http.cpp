#include <gtest/gtest.h>

#include "http/http.hpp"
#include "http/page_service.hpp"

namespace troxy::http {
namespace {

TEST(HttpParser, ParsesGetRequest) {
    const Bytes raw = to_bytes(
        "GET /page/3 HTTP/1.1\r\nHost: example.com\r\n"
        "Content-Length: 0\r\n\r\n");
    const auto request = parse_request(raw);
    ASSERT_TRUE(request.has_value());
    EXPECT_EQ(request->method, "GET");
    EXPECT_EQ(request->path, "/page/3");
    EXPECT_EQ(request->headers.at("host"), "example.com");
    EXPECT_TRUE(request->body.empty());
}

TEST(HttpParser, ParsesPostWithBody) {
    const Bytes raw = to_bytes(
        "POST /page/1 HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello");
    const auto request = parse_request(raw);
    ASSERT_TRUE(request.has_value());
    EXPECT_EQ(request->method, "POST");
    EXPECT_EQ(to_string(request->body), "hello");
}

TEST(HttpParser, HeaderNamesCaseInsensitive) {
    const Bytes raw = to_bytes(
        "GET / HTTP/1.1\r\ncOnTeNt-LeNgTh: 0\r\nX-Custom: Value\r\n\r\n");
    const auto request = parse_request(raw);
    ASSERT_TRUE(request.has_value());
    EXPECT_EQ(request->headers.at("x-custom"), "Value");
}

TEST(HttpParser, RejectsMalformedInput) {
    EXPECT_FALSE(parse_request(to_bytes("")).has_value());
    EXPECT_FALSE(parse_request(to_bytes("GET /")).has_value());  // no CRLF
    EXPECT_FALSE(parse_request(to_bytes("GARBAGE\r\n\r\n")).has_value());
    // Body shorter than Content-Length.
    EXPECT_FALSE(parse_request(to_bytes(
                     "POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc"))
                     .has_value());
    // Non-numeric Content-Length.
    EXPECT_FALSE(parse_request(to_bytes(
                     "GET / HTTP/1.1\r\nContent-Length: abc\r\n\r\n"))
                     .has_value());
}

TEST(HttpParser, RequestSerializeParseRoundTrip) {
    HttpRequest request;
    request.method = "POST";
    request.path = "/page/9";
    request.headers["host"] = "h";
    request.body = to_bytes("body bytes");
    const auto parsed = parse_request(request.serialize());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->method, "POST");
    EXPECT_EQ(parsed->path, "/page/9");
    EXPECT_EQ(parsed->body, request.body);
}

TEST(HttpParser, ResponseSerializeParseRoundTrip) {
    HttpResponse response;
    response.status = 404;
    response.reason = "Not Found";
    response.body = to_bytes("missing");
    const auto parsed = parse_response(response.serialize());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->status, 404);
    EXPECT_EQ(parsed->reason, "Not Found");
    EXPECT_EQ(to_string(parsed->body), "missing");
}

// The wire form: status line, headers in name order with content-length
// among them (a caller's own content-length replaced), blank line, body.
TEST(HttpParser, ResponseSerializesHeadersInNameOrder) {
    HttpResponse response;
    response.status = 201;
    response.reason = "Created";
    response.headers["accept-ranges"] = "none";
    response.headers["content-length"] = "999";
    response.headers["server"] = "replicated";
    response.body = to_bytes("made");
    EXPECT_EQ(to_string(response.serialize()),
              "HTTP/1.1 201 Created\r\naccept-ranges: none\r\n"
              "content-length: 4\r\nserver: replicated\r\n\r\nmade");

    Bytes out = to_bytes("stale contents");
    response.headers.clear();
    response.serialize_into(out, to_bytes("other body"));
    EXPECT_EQ(to_string(out),
              "HTTP/1.1 201 Created\r\ncontent-length: 10\r\n\r\n"
              "other body");
}

TEST(HttpParser, ResponseRejectsBadStatus) {
    EXPECT_FALSE(parse_response(to_bytes(
                     "HTTP/1.1 9999 Weird\r\nContent-Length: 0\r\n\r\n"))
                     .has_value());
    EXPECT_FALSE(parse_response(to_bytes(
                     "NOTHTTP 200 OK\r\nContent-Length: 0\r\n\r\n"))
                     .has_value());
}

// -------------------------------------------------------------- PageService

TEST(PageService, GetReturnsPage) {
    PageService service(8);
    const Bytes raw = service.execute(PageService::make_get(2));
    const auto response = parse_response(raw);
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(response->status, 200);
    EXPECT_EQ(to_string(response->body), PageService::initial_content(2));
}

TEST(PageService, GetReplyIsTheExactHtmlResponse) {
    PageService service(8);
    const std::string page = PageService::initial_content(5);
    EXPECT_EQ(to_string(service.execute(PageService::make_get(5))),
              "HTTP/1.1 200 OK\r\ncontent-length: " +
                  std::to_string(page.size()) +
                  "\r\ncontent-type: text/html\r\n\r\n" + page);
}

TEST(PageService, GetUnknownPageIs404) {
    PageService service(2);
    const auto response =
        parse_response(service.execute(PageService::make_get(99)));
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(response->status, 404);
}

TEST(PageService, PostUpdatesPage) {
    PageService service(4);
    service.execute(PageService::make_post(1, to_bytes("<p>updated</p>")));
    const auto response =
        parse_response(service.execute(PageService::make_get(1)));
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(to_string(response->body), "<p>updated</p>");
}

TEST(PageService, PageSizesInPaperRange) {
    // §VI-D: response sizes between 4 KB and 18 KB.
    for (int page = 0; page < 20; ++page) {
        const std::size_t size = PageService::initial_size(page);
        EXPECT_GE(size, 4096u);
        EXPECT_LE(size, 18 * 1024u);
    }
}

TEST(PageService, ClassifierMapsMethodsToReadWrite) {
    const auto classify = PageService::classifier();
    const auto get = classify(PageService::make_get(3));
    EXPECT_TRUE(get.is_read);
    EXPECT_EQ(get.state_key, "http:/page/3");

    const auto post = classify(PageService::make_post(3, to_bytes("x")));
    EXPECT_FALSE(post.is_read);
    EXPECT_EQ(post.state_key, "http:/page/3");

    // Unparseable data is conservatively a read of an "invalid" partition.
    const auto junk = classify(to_bytes("junk"));
    EXPECT_TRUE(junk.is_read);
}

TEST(PageService, MalformedRequestGets400) {
    PageService service(2);
    const auto response = parse_response(service.execute(to_bytes("junk")));
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(response->status, 400);
}

TEST(PageService, UnsupportedMethodGets405) {
    PageService service(2);
    HttpRequest request;
    request.method = "PATCH";
    request.path = "/page/0";
    const auto response = parse_response(service.execute(request.serialize()));
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(response->status, 405);
}

TEST(PageService, CheckpointRestore) {
    PageService a(4);
    a.execute(PageService::make_post(0, to_bytes("changed")));
    PageService b(0);
    b.restore(a.checkpoint());
    const auto response =
        parse_response(b.execute(PageService::make_get(0)));
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(to_string(response->body), "changed");
}

TEST(PageService, DeterministicExecution) {
    PageService a(4), b(4);
    const Bytes get = PageService::make_get(1);
    EXPECT_EQ(a.execute(get), b.execute(get));
}

}  // namespace
}  // namespace troxy::http

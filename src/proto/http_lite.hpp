// HTTP-lite: the line-framed application protocol the prototype speaks.
// It keeps exactly what the experiments need from HTTP and nothing else.
//
//   request :=  "GET <url> <version> <size>\r\n"      (client -> proxy,
//                proxy -> origin)
//            |  "SGET <url> <version> <size>\r\n"     (proxy -> sibling:
//                serve from cache only; never forward — prevents loops)
//   response := "<status> <size>\r\n" followed by <size> body bytes
//   status   := OK | LOCAL_HIT | REMOTE_HIT | MISS | NOT_CACHED | ERROR
//
// The size travels in the request because the benchmark's origin servers
// reply with exactly the number of bytes the trace recorded (Section VII:
// "each request's URL carries the size of the request in the trace file,
// and the server replies with the specified number of bytes").
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace sc {

enum class HttpLiteStatus : std::uint8_t {
    ok,          ///< origin reply
    local_hit,   ///< proxy served from its own cache
    remote_hit,  ///< proxy served via a sibling
    miss,        ///< proxy fetched from origin
    not_cached,  ///< sibling didn't have it (SGET only); empty body
    error,
};

[[nodiscard]] const char* http_lite_status_name(HttpLiteStatus s);
[[nodiscard]] std::optional<HttpLiteStatus> parse_http_lite_status(std::string_view s);

struct HttpLiteRequest {
    bool sibling_only = false;  ///< SGET
    std::string url;
    std::uint64_t version = 0;
    std::uint64_t size = 0;
};

struct HttpLiteResponseHeader {
    HttpLiteStatus status = HttpLiteStatus::error;
    std::uint64_t size = 0;
};

[[nodiscard]] std::string format_request(const HttpLiteRequest& r);
[[nodiscard]] std::optional<HttpLiteRequest> parse_request(std::string_view line);

[[nodiscard]] std::string format_response_header(const HttpLiteResponseHeader& h);
[[nodiscard]] std::optional<HttpLiteResponseHeader> parse_response_header(std::string_view line);

/// Deterministic synthetic body of the given size ('x' fill). Capped
/// generation helper for servers.
[[nodiscard]] std::string synth_body(std::uint64_t size);

}  // namespace sc

#include "proto/http_lite.hpp"

#include <charconv>
#include <vector>

namespace sc {
namespace {

std::vector<std::string_view> split_ws(std::string_view s) {
    std::vector<std::string_view> out;
    std::size_t i = 0;
    while (i < s.size()) {
        while (i < s.size() && s[i] == ' ') ++i;
        const std::size_t start = i;
        while (i < s.size() && s[i] != ' ') ++i;
        if (i > start) out.push_back(s.substr(start, i - start));
    }
    return out;
}

template <typename Int>
std::optional<Int> to_int(std::string_view f) {
    Int v{};
    const auto [ptr, ec] = std::from_chars(f.data(), f.data() + f.size(), v);
    if (ec != std::errc{} || ptr != f.data() + f.size()) return std::nullopt;
    return v;
}

}  // namespace

const char* http_lite_status_name(HttpLiteStatus s) {
    switch (s) {
        case HttpLiteStatus::ok: return "OK";
        case HttpLiteStatus::local_hit: return "LOCAL_HIT";
        case HttpLiteStatus::remote_hit: return "REMOTE_HIT";
        case HttpLiteStatus::miss: return "MISS";
        case HttpLiteStatus::not_cached: return "NOT_CACHED";
        case HttpLiteStatus::error: return "ERROR";
    }
    return "?";
}

std::optional<HttpLiteStatus> parse_http_lite_status(std::string_view s) {
    if (s == "OK") return HttpLiteStatus::ok;
    if (s == "LOCAL_HIT") return HttpLiteStatus::local_hit;
    if (s == "REMOTE_HIT") return HttpLiteStatus::remote_hit;
    if (s == "MISS") return HttpLiteStatus::miss;
    if (s == "NOT_CACHED") return HttpLiteStatus::not_cached;
    if (s == "ERROR") return HttpLiteStatus::error;
    return std::nullopt;
}

std::string format_request(const HttpLiteRequest& r) {
    std::string out = r.sibling_only ? "SGET " : "GET ";
    out += r.url;
    out += ' ';
    out += std::to_string(r.version);
    out += ' ';
    out += std::to_string(r.size);
    out += "\r\n";
    return out;
}

std::optional<HttpLiteRequest> parse_request(std::string_view line) {
    const auto fields = split_ws(line);
    if (fields.size() != 4) return std::nullopt;
    HttpLiteRequest r;
    if (fields[0] == "GET") {
        r.sibling_only = false;
    } else if (fields[0] == "SGET") {
        r.sibling_only = true;
    } else {
        return std::nullopt;
    }
    r.url = std::string(fields[1]);
    const auto version = to_int<std::uint64_t>(fields[2]);
    const auto size = to_int<std::uint64_t>(fields[3]);
    if (!version || !size) return std::nullopt;
    r.version = *version;
    r.size = *size;
    return r;
}

std::string format_response_header(const HttpLiteResponseHeader& h) {
    std::string out = http_lite_status_name(h.status);
    out += ' ';
    out += std::to_string(h.size);
    out += "\r\n";
    return out;
}

std::optional<HttpLiteResponseHeader> parse_response_header(std::string_view line) {
    const auto fields = split_ws(line);
    if (fields.size() != 2) return std::nullopt;
    const auto status = parse_http_lite_status(fields[0]);
    const auto size = to_int<std::uint64_t>(fields[1]);
    if (!status || !size.has_value()) return std::nullopt;
    return HttpLiteResponseHeader{*status, *size};
}

std::string synth_body(std::uint64_t size) { return std::string(size, 'x'); }

}  // namespace sc

// The Squid-style access log every real proxy ships with: one line per
// client request with status, size, and latency.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <vector>

#include "proto/mini_proxy.hpp"
#include "proto/origin_server.hpp"

namespace sc {
namespace {

std::vector<std::string> read_lines(const std::string& path) {
    std::ifstream in(path);
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line))
        if (!line.empty()) lines.push_back(line);
    return lines;
}

TEST(AccessLog, OneLinePerRequestWithStatusAndUrl) {
    const std::string path = ::testing::TempDir() + "/sc_access_log_test.log";
    std::remove(path.c_str());

    OriginServer origin({});
    MiniProxyConfig cfg;
    cfg.id = 7;
    cfg.origin = origin.endpoint();
    cfg.mode = ShareMode::none;
    cfg.access_log_path = path;
    auto p = std::make_unique<MiniProxy>(cfg);
    p->start();

    const auto get = [&](const std::string& url) {
        TcpConnection c = TcpConnection::connect(p->http_endpoint());
        c.write_all(format_request({false, url, 0, 123}));
        const auto header = parse_response_header(*c.read_line());
        c.discard_exact(header->size);
        return header->status;
    };

    EXPECT_EQ(get("http://logged/a"), HttpLiteStatus::miss);
    EXPECT_EQ(get("http://logged/a"), HttpLiteStatus::local_hit);
    p->stop();

    const auto lines = read_lines(path);
    ASSERT_EQ(lines.size(), 2u);

    // "<epoch-ms> <proxy-id> <status> <size> <latency-us> <url>"
    std::istringstream first(lines[0]);
    long long epoch = 0, size = 0, latency = -1;
    int id = 0;
    std::string status, url;
    first >> epoch >> id >> status >> size >> latency >> url;
    EXPECT_GT(epoch, 1'000'000'000'000LL);  // sane epoch-ms
    EXPECT_EQ(id, 7);
    EXPECT_EQ(status, "MISS");
    EXPECT_EQ(size, 123);
    EXPECT_GE(latency, 0);
    EXPECT_EQ(url, "http://logged/a");

    std::istringstream second(lines[1]);
    second >> epoch >> id >> status;
    EXPECT_EQ(status, "LOCAL_HIT");
    std::remove(path.c_str());
}

TEST(AccessLog, UnwritablePathFailsConstruction) {
    OriginServer origin({});
    MiniProxyConfig cfg;
    cfg.origin = origin.endpoint();
    cfg.access_log_path = "/nonexistent-dir/access.log";
    EXPECT_THROW(MiniProxy proxy(cfg), std::runtime_error);
}

TEST(AccessLog, DisabledByDefault) {
    OriginServer origin({});
    MiniProxyConfig cfg;
    cfg.origin = origin.endpoint();
    MiniProxy p(cfg);  // no throw, no file created
    SUCCEED();
}

}  // namespace
}  // namespace sc

#include "proto/origin_server.hpp"

#include <gtest/gtest.h>

#include <chrono>

#include "proto/http_lite.hpp"
#include "proto/tcp.hpp"

namespace sc {
namespace {

TEST(OriginServer, ServesRequestedByteCount) {
    OriginServer server({.port = 0, .reply_delay = std::chrono::milliseconds(0)});
    TcpConnection c = TcpConnection::connect(server.endpoint());
    c.write_all(format_request({false, "http://any/url", 0, 5000}));
    const auto line = c.read_line();
    ASSERT_TRUE(line.has_value());
    const auto header = parse_response_header(*line);
    ASSERT_TRUE(header.has_value());
    EXPECT_EQ(header->status, HttpLiteStatus::ok);
    EXPECT_EQ(header->size, 5000u);
    std::string body;
    c.read_exact(5000, body);
    EXPECT_EQ(body.size(), 5000u);
    EXPECT_EQ(server.requests_served(), 1u);
}

TEST(OriginServer, PersistentConnectionServesMany) {
    OriginServer server({});
    TcpConnection c = TcpConnection::connect(server.endpoint());
    for (int i = 0; i < 20; ++i) {
        c.write_all(format_request({false, "http://u/" + std::to_string(i), 0,
                                    static_cast<std::uint64_t>(10 + i)}));
        const auto header = parse_response_header(*c.read_line());
        ASSERT_TRUE(header.has_value());
        ASSERT_EQ(header->size, static_cast<std::uint64_t>(10 + i));
        c.discard_exact(header->size);
    }
    EXPECT_EQ(server.requests_served(), 20u);
}

TEST(OriginServer, ConcurrentClients) {
    OriginServer server({});
    std::vector<std::thread> clients;
    std::atomic<int> ok{0};
    for (int t = 0; t < 8; ++t) {
        clients.emplace_back([&server, &ok] {
            TcpConnection c = TcpConnection::connect(server.endpoint());
            for (int i = 0; i < 10; ++i) {
                c.write_all(format_request({false, "http://c/u", 0, 100}));
                const auto header = parse_response_header(*c.read_line());
                ASSERT_TRUE(header.has_value());
                c.discard_exact(header->size);
                ++ok;
            }
        });
    }
    for (auto& t : clients) t.join();
    EXPECT_EQ(ok.load(), 80);
    EXPECT_EQ(server.requests_served(), 80u);
}

TEST(OriginServer, ReplyDelayIsApplied) {
    OriginServer server({.port = 0, .reply_delay = std::chrono::milliseconds(80)});
    TcpConnection c = TcpConnection::connect(server.endpoint());
    const auto start = std::chrono::steady_clock::now();
    c.write_all(format_request({false, "http://slow/u", 0, 10}));
    ASSERT_TRUE(c.read_line().has_value());
    const auto elapsed = std::chrono::steady_clock::now() - start;
    EXPECT_GE(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count(), 75);
}

TEST(OriginServer, MalformedRequestGetsError) {
    OriginServer server({});
    TcpConnection c = TcpConnection::connect(server.endpoint());
    c.write_all("NONSENSE LINE\n");
    const auto header = parse_response_header(*c.read_line());
    ASSERT_TRUE(header.has_value());
    EXPECT_EQ(header->status, HttpLiteStatus::error);
}

TEST(OriginServer, StopIsIdempotent) {
    OriginServer server({});
    server.stop();
    server.stop();
}

}  // namespace
}  // namespace sc

#include "icp/udp_socket.hpp"

#include <gtest/gtest.h>

#include <system_error>
#include <vector>

namespace sc {
namespace {

TEST(Endpoint, ToStringAndLoopback) {
    const Endpoint ep = Endpoint::loopback(8080);
    EXPECT_EQ(ep.host, 0x7f000001u);
    EXPECT_EQ(ep.to_string(), "127.0.0.1:8080");
}

TEST(Endpoint, SockaddrRoundTrip) {
    const Endpoint ep{0x7f000001u, 12345};
    EXPECT_EQ(Endpoint::from_sockaddr(ep.to_sockaddr()), ep);
}

TEST(UdpSocket, BindsEphemeralPort) {
    UdpSocket s;
    const Endpoint ep = s.local_endpoint();
    EXPECT_EQ(ep.host, 0x7f000001u);
    EXPECT_GT(ep.port, 0);
}

TEST(UdpSocket, SendAndReceive) {
    UdpSocket a, b;
    const std::vector<std::uint8_t> payload = {1, 2, 3, 4, 5};
    a.send_to(b.local_endpoint(), payload);
    const auto dgram = b.receive(1000);
    ASSERT_TRUE(dgram.has_value());
    EXPECT_EQ(dgram->payload, payload);
    EXPECT_EQ(dgram->from, a.local_endpoint());
}

TEST(UdpSocket, ReceiveTimesOut) {
    UdpSocket s;
    const auto dgram = s.receive(20);
    EXPECT_FALSE(dgram.has_value());
}

TEST(UdpSocket, PreservesDatagramBoundaries) {
    UdpSocket a, b;
    a.send_to(b.local_endpoint(), std::vector<std::uint8_t>{1});
    a.send_to(b.local_endpoint(), std::vector<std::uint8_t>{2, 2});
    const auto first = b.receive(1000);
    const auto second = b.receive(1000);
    ASSERT_TRUE(first && second);
    EXPECT_EQ(first->payload.size(), 1u);
    EXPECT_EQ(second->payload.size(), 2u);
}

TEST(UdpSocket, EmptyDatagram) {
    UdpSocket a, b;
    a.send_to(b.local_endpoint(), std::span<const std::uint8_t>{});
    const auto dgram = b.receive(1000);
    ASSERT_TRUE(dgram.has_value());
    EXPECT_TRUE(dgram->payload.empty());
}

TEST(UdpSocket, MoveTransfersOwnership) {
    UdpSocket a;
    const Endpoint ep = a.local_endpoint();
    UdpSocket b = std::move(a);
    EXPECT_EQ(b.local_endpoint(), ep);
    UdpSocket c;
    c = std::move(b);
    EXPECT_EQ(c.local_endpoint(), ep);
    // And the moved-to socket still works.
    UdpSocket peer;
    peer.send_to(c.local_endpoint(), std::vector<std::uint8_t>{9});
    ASSERT_TRUE(c.receive(1000).has_value());
}

TEST(Endpoint, ParseForms) {
    EXPECT_EQ(Endpoint::parse("10.1.2.3:8080"), (Endpoint{0x0a010203u, 8080}));
    EXPECT_EQ(Endpoint::parse("8080"), Endpoint::loopback(8080));
    EXPECT_EQ(Endpoint::parse(":9000"), Endpoint::any(9000));
    EXPECT_EQ(Endpoint::parse("127.0.0.1:1"), Endpoint::loopback(1));
    EXPECT_FALSE(Endpoint::parse("").has_value());
    EXPECT_FALSE(Endpoint::parse("hostname:80").has_value());   // no DNS
    EXPECT_FALSE(Endpoint::parse("1.2.3.4:").has_value());      // missing port
    EXPECT_FALSE(Endpoint::parse("1.2.3.4:99999").has_value()); // port overflow
    EXPECT_FALSE(Endpoint::parse("1.2.3:80").has_value());      // short quad
    EXPECT_FALSE(Endpoint::parse("256.0.0.1:80").has_value());  // octet overflow
    EXPECT_FALSE(Endpoint::parse("1.2.3.4:8a").has_value());    // junk in port
}

TEST(UdpSocket, BindAnyInterfaceReceivesLoopbackTraffic) {
    UdpSocket any_sock(Endpoint::any(0));
    const std::uint16_t port = any_sock.local_endpoint().port;
    UdpSocket sender;
    sender.send_to(Endpoint::loopback(port), std::vector<std::uint8_t>{42});
    const auto dgram = any_sock.receive(1000);
    ASSERT_TRUE(dgram.has_value());
    EXPECT_EQ(dgram->payload, std::vector<std::uint8_t>{42});
}

TEST(UdpSocket, LargeDatagram) {
    UdpSocket a, b;
    const std::vector<std::uint8_t> payload(32'000, 0x5a);
    a.send_to(b.local_endpoint(), payload);
    const auto dgram = b.receive(1000);
    ASSERT_TRUE(dgram.has_value());
    EXPECT_EQ(dgram->payload, payload);
}

TEST(UdpSocket, LivePortCannotBeBoundTwice) {
    // With SO_REUSEADDR on both sockets Linux lets the second bind share the
    // port (and may even hand two ephemeral binds the same one), after which
    // unicast datagrams reach only one of the pair.
    UdpSocket live;
    EXPECT_THROW(UdpSocket second(live.local_endpoint()), std::system_error);
}

}  // namespace
}  // namespace sc

#include "icp/udp_socket.hpp"

#include "net/fd_poll.hpp"

#include <arpa/inet.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <system_error>
#include <utility>

#include "obs/metrics.hpp"

namespace sc {
namespace {

[[noreturn]] void throw_errno(const char* what) {
    throw std::system_error(errno, std::generic_category(), what);
}

// Process-wide datagram accounting, shared by every socket (the ICP
// control plane is one logical transport per proxy process).
struct UdpMetrics {
    obs::Counter datagrams_sent = obs::metrics().counter(
        "sc_udp_datagrams_sent_total", "UDP datagrams sent (ICP queries, replies, updates)");
    obs::Counter datagrams_received = obs::metrics().counter(
        "sc_udp_datagrams_received_total", "UDP datagrams received");
    obs::Counter bytes_sent =
        obs::metrics().counter("sc_udp_bytes_sent_total", "UDP payload bytes sent");
    obs::Counter bytes_received =
        obs::metrics().counter("sc_udp_bytes_received_total", "UDP payload bytes received");
    obs::Counter send_errors =
        obs::metrics().counter("sc_udp_send_errors_total", "sendto() failures");
    obs::Counter faults_injected = obs::metrics().counter(
        "sc_udp_faults_injected_total",
        "datagrams dropped/duplicated/held by configured fault injection");
};

UdpMetrics& udp_metrics() {
    static UdpMetrics m;
    return m;
}

}  // namespace

std::string Endpoint::to_string() const {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%u.%u.%u.%u:%u", (host >> 24) & 0xff, (host >> 16) & 0xff,
                  (host >> 8) & 0xff, host & 0xff, port);
    return buf;
}

sockaddr_in Endpoint::to_sockaddr() const {
    sockaddr_in sa{};
    sa.sin_family = AF_INET;
    sa.sin_addr.s_addr = htonl(host);
    sa.sin_port = htons(port);
    return sa;
}

Endpoint Endpoint::from_sockaddr(const sockaddr_in& sa) {
    return Endpoint{ntohl(sa.sin_addr.s_addr), ntohs(sa.sin_port)};
}

Endpoint Endpoint::loopback(std::uint16_t port) { return Endpoint{0x7f000001u, port}; }

Endpoint Endpoint::any(std::uint16_t port) { return Endpoint{0, port}; }

std::optional<Endpoint> Endpoint::parse(std::string_view spec) {
    if (spec.empty()) return std::nullopt;
    std::uint32_t host = 0x7f000001u;  // bare port -> loopback
    std::string_view port_part = spec;
    if (const auto colon = spec.rfind(':'); colon != std::string_view::npos) {
        port_part = spec.substr(colon + 1);
        const std::string_view host_part = spec.substr(0, colon);
        if (!host_part.empty()) {
            unsigned a = 0, b = 0, c = 0, d = 0;
            char tail = 0;
            const std::string host_str(host_part);
            if (std::sscanf(host_str.c_str(), "%u.%u.%u.%u%c", &a, &b, &c, &d, &tail) != 4 ||
                a > 255 || b > 255 || c > 255 || d > 255)
                return std::nullopt;
            host = (a << 24) | (b << 16) | (c << 8) | d;
        } else {
            host = 0;  // ":port" -> any
        }
    }
    if (port_part.empty()) return std::nullopt;
    long port = 0;
    for (const char ch : port_part) {
        if (ch < '0' || ch > '9') return std::nullopt;
        port = port * 10 + (ch - '0');
        if (port > 65535) return std::nullopt;
    }
    return Endpoint{host, static_cast<std::uint16_t>(port)};
}

UdpSocket::UdpSocket(std::uint16_t port) : UdpSocket(Endpoint::loopback(port)) {}

UdpSocket::UdpSocket(const Endpoint& bind_addr) {
    fd_ = ::socket(AF_INET, SOCK_DGRAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) throw_errno("socket");
    // No SO_REUSEADDR: on Linux two UDP sockets that both set it may be
    // handed the same ephemeral port, and unicast datagrams to that port
    // then reach only one of them. UDP has no TIME_WAIT to step over, so a
    // restart on a freed port binds without it.
    const sockaddr_in sa = bind_addr.to_sockaddr();
    if (::bind(fd_, reinterpret_cast<const sockaddr*>(&sa), sizeof sa) < 0) {
        close_fd();
        throw_errno("bind");
    }
}

UdpSocket::~UdpSocket() { close_fd(); }

UdpSocket::UdpSocket(UdpSocket&& other) noexcept : fd_(std::exchange(other.fd_, -1)) {}

UdpSocket& UdpSocket::operator=(UdpSocket&& other) noexcept {
    if (this != &other) {
        close_fd();
        fd_ = std::exchange(other.fd_, -1);
    }
    return *this;
}

void UdpSocket::close_fd() noexcept {
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

Endpoint UdpSocket::local_endpoint() const {
    sockaddr_in sa{};
    socklen_t len = sizeof sa;
    if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&sa), &len) < 0)
        throw_errno("getsockname");
    return Endpoint::from_sockaddr(sa);
}

UdpFaultConfig UdpFaultConfig::from_env() {
    UdpFaultConfig cfg;
    const auto read_rate = [](const char* name, double& out) {
        if (const char* v = std::getenv(name); v != nullptr && *v != '\0') out = std::atof(v);
    };
    read_rate("SC_UDP_FAULT_LOSS", cfg.loss);
    read_rate("SC_UDP_FAULT_DUP", cfg.duplicate);
    read_rate("SC_UDP_FAULT_REORDER", cfg.reorder);
    if (const char* v = std::getenv("SC_UDP_FAULT_SEED"); v != nullptr && *v != '\0')
        cfg.seed = std::strtoull(v, nullptr, 10);
    return cfg;
}

void UdpSocket::set_fault_injection(const UdpFaultConfig& cfg) {
    if (!cfg.any()) {
        fault_.reset();
        return;
    }
    auto state = std::make_unique<FaultState>();
    state->cfg = cfg;
    state->rng.seed(cfg.seed);
    fault_ = std::move(state);
}

void UdpSocket::transmit(const Endpoint& to, std::span<const std::uint8_t> payload) {
    const sockaddr_in sa = to.to_sockaddr();
    const ssize_t n = ::sendto(fd_, payload.data(), payload.size(), 0,
                               reinterpret_cast<const sockaddr*>(&sa), sizeof sa);
    if (n < 0) {
        udp_metrics().send_errors.inc();
        throw_errno("sendto");
    }
    udp_metrics().datagrams_sent.inc();
    udp_metrics().bytes_sent.inc(payload.size());
}

void UdpSocket::send_to(const Endpoint& to, std::span<const std::uint8_t> payload) {
    if (fault_ == nullptr) {
        transmit(to, payload);
        return;
    }
    bool drop = false;
    bool dup = false;
    std::optional<HeldDatagram> flush;
    {
        MutexLock lock(fault_->mu);
        std::uniform_real_distribution<double> roll(0.0, 1.0);
        const UdpFaultConfig& cfg = fault_->cfg;
        drop = cfg.loss > 0.0 && roll(fault_->rng) < cfg.loss;
        dup = !drop && cfg.duplicate > 0.0 && roll(fault_->rng) < cfg.duplicate;
        const bool hold = !drop && cfg.reorder > 0.0 && roll(fault_->rng) < cfg.reorder;
        if (hold && !fault_->held) {
            fault_->held = HeldDatagram{to, {payload.begin(), payload.end()}};
            udp_metrics().faults_injected.inc();
            return;
        }
        if (fault_->held) {
            flush = std::move(fault_->held);
            fault_->held.reset();
        }
    }
    if (drop) {
        udp_metrics().faults_injected.inc();
    } else {
        transmit(to, payload);
        if (dup) {
            udp_metrics().faults_injected.inc();
            transmit(to, payload);
        }
    }
    // A previously held datagram goes out *after* the one that followed it:
    // that is the reordering.
    if (flush) transmit(flush->to, flush->payload);
}

std::optional<Datagram> UdpSocket::receive(int timeout_ms) {
    if (!net::wait_fd_readable(fd_, timeout_ms)) return std::nullopt;

    std::vector<std::uint8_t> buf(65536);
    sockaddr_in sa{};
    socklen_t len = sizeof sa;
    const ssize_t n = ::recvfrom(fd_, buf.data(), buf.size(), 0,
                                 reinterpret_cast<sockaddr*>(&sa), &len);
    if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) return std::nullopt;
        throw_errno("recvfrom");
    }
    buf.resize(static_cast<std::size_t>(n));
    udp_metrics().datagrams_received.inc();
    udp_metrics().bytes_received.inc(buf.size());
    return Datagram{Endpoint::from_sockaddr(sa), std::move(buf)};
}

}  // namespace sc

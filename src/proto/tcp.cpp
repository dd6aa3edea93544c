#include "proto/tcp.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <system_error>
#include <utility>

#include "net/fd_poll.hpp"
#include "obs/metrics.hpp"

namespace sc {
namespace {

[[noreturn]] void throw_errno(const char* what) {
    throw std::system_error(errno, std::generic_category(), what);
}

struct TcpMetrics {
    obs::Counter accepts = obs::metrics().counter(
        "sc_tcp_accepts_total", "Connections accepted (clients and SGET peers)");
    obs::Counter connects = obs::metrics().counter(
        "sc_tcp_connects_total", "Outbound connections established (origin, siblings)");
    obs::Counter bytes_written =
        obs::metrics().counter("sc_tcp_bytes_written_total", "TCP bytes written");
    obs::Counter bytes_read =
        obs::metrics().counter("sc_tcp_bytes_read_total", "TCP bytes read");
};

TcpMetrics& tcp_metrics() {
    static TcpMetrics m;
    return m;
}

}  // namespace

TcpConnection::TcpConnection(int fd) : fd_(fd) {}

TcpConnection::~TcpConnection() { close(); }

TcpConnection::TcpConnection(TcpConnection&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)), buf_(std::move(other.buf_)), pos_(other.pos_) {}

TcpConnection& TcpConnection::operator=(TcpConnection&& other) noexcept {
    if (this != &other) {
        close();
        fd_ = std::exchange(other.fd_, -1);
        buf_ = std::move(other.buf_);
        pos_ = other.pos_;
    }
    return *this;
}

void TcpConnection::close() noexcept {
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

TcpConnection TcpConnection::connect(const Endpoint& to) {
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) throw_errno("socket");
    const int one = 1;
    (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    const sockaddr_in sa = to.to_sockaddr();
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&sa), sizeof sa) < 0) {
        const int saved = errno;
        ::close(fd);
        errno = saved;
        throw_errno("connect");
    }
    tcp_metrics().connects.inc();
    return TcpConnection(fd);
}

bool TcpConnection::fill_buffer() {
    char chunk[16384];
    for (;;) {
        const ssize_t n = ::read(fd_, chunk, sizeof chunk);
        if (n > 0) {
            buf_.append(chunk, static_cast<std::size_t>(n));
            tcp_metrics().bytes_read.inc(static_cast<std::uint64_t>(n));
            return true;
        }
        if (n == 0) return false;  // EOF
        if (errno == EINTR) continue;
        throw_errno("read");
    }
}

TcpConnection::Fill TcpConnection::fill_available() {
    char chunk[16384];
    for (;;) {
        const ssize_t n = ::recv(fd_, chunk, sizeof chunk, MSG_DONTWAIT);
        if (n > 0) {
            buf_.append(chunk, static_cast<std::size_t>(n));
            tcp_metrics().bytes_read.inc(static_cast<std::uint64_t>(n));
            return Fill::data;
        }
        if (n == 0) return Fill::eof;
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) return Fill::would_block;
        throw_errno("recv");
    }
}

std::optional<std::string> TcpConnection::buffered_line() {
    const std::size_t nl = buf_.find('\n', pos_);
    if (nl == std::string::npos) return std::nullopt;
    std::string line = buf_.substr(pos_, nl - pos_);
    pos_ = nl + 1;
    if (pos_ == buf_.size()) {
        buf_.clear();
        pos_ = 0;
    }
    if (!line.empty() && line.back() == '\r') line.pop_back();
    return line;
}

std::optional<std::string> TcpConnection::read_line() {
    for (;;) {
        if (auto line = buffered_line()) return line;
        if (!fill_buffer()) {
            if (pos_ < buf_.size())
                throw std::runtime_error("EOF in the middle of a line");
            return std::nullopt;
        }
    }
}

bool TcpConnection::wait_readable(int timeout_ms) {
    if (pos_ < buf_.size()) return true;
    return net::wait_fd_readable(fd_, timeout_ms);
}

void TcpConnection::read_exact(std::size_t n, std::string& out) {
    out.clear();
    out.reserve(n);
    // Drain readahead first.
    const std::size_t have = std::min(n, buf_.size() - pos_);
    out.append(buf_, pos_, have);
    pos_ += have;
    if (pos_ == buf_.size()) {
        buf_.clear();
        pos_ = 0;
    }
    while (out.size() < n) {
        char chunk[65536];
        const std::size_t want = std::min(sizeof chunk, n - out.size());
        const ssize_t got = ::read(fd_, chunk, want);
        if (got > 0) {
            out.append(chunk, static_cast<std::size_t>(got));
            tcp_metrics().bytes_read.inc(static_cast<std::uint64_t>(got));
            continue;
        }
        if (got == 0) throw std::runtime_error("EOF during body read");
        if (errno == EINTR) continue;
        throw_errno("read");
    }
}

void TcpConnection::discard_exact(std::size_t n) {
    std::string sink;
    read_exact(n, sink);
}

void TcpConnection::write_all(std::string_view data) {
    write_all(std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(data.data()), data.size()));
}

void TcpConnection::write_all(std::span<const std::uint8_t> data) {
    tcp_metrics().bytes_written.inc(data.size());
    std::size_t off = 0;
    while (off < data.size()) {
        // MSG_NOSIGNAL: a peer that closed early (e.g. curl aborting an
        // admin-endpoint read) must surface as EPIPE, not kill the process.
        const ssize_t n =
            ::send(fd_, data.data() + off, data.size() - off, MSG_NOSIGNAL);
        if (n > 0) {
            off += static_cast<std::size_t>(n);
            continue;
        }
        if (n < 0 && errno == EINTR) continue;
        throw_errno("write");
    }
}

std::size_t TcpConnection::write_some(std::string_view data) {
    if (data.empty()) return 0;
    while (true) {
        const ssize_t n =
            ::send(fd_, data.data(), data.size(), MSG_DONTWAIT | MSG_NOSIGNAL);
        if (n >= 0) {
            tcp_metrics().bytes_written.inc(static_cast<std::uint64_t>(n));
            return static_cast<std::size_t>(n);
        }
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) return 0;
        throw_errno("write");
    }
}

TcpListener::TcpListener(std::uint16_t port) : TcpListener(Endpoint::loopback(port)) {}

TcpListener::TcpListener(const Endpoint& bind_addr) {
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) throw_errno("socket");
    const int one = 1;
    (void)::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    const sockaddr_in sa = bind_addr.to_sockaddr();
    if (::bind(fd_, reinterpret_cast<const sockaddr*>(&sa), sizeof sa) < 0) {
        close_fd();
        throw_errno("bind");
    }
    // Ask for the largest backlog the kernel allows (it clamps to
    // net.core.somaxconn). A small hard-coded backlog drops SYNs during
    // connect bursts — the client then sits in a ~1s retransmit stall even
    // though the accept loop is keeping up, which caps connection setup
    // throughput at backlog-per-second for serial clients.
    if (::listen(fd_, SOMAXCONN) < 0) {
        close_fd();
        throw_errno("listen");
    }
}

TcpListener::~TcpListener() { close_fd(); }

TcpListener::TcpListener(TcpListener&& other) noexcept : fd_(std::exchange(other.fd_, -1)) {}

TcpListener& TcpListener::operator=(TcpListener&& other) noexcept {
    if (this != &other) {
        close_fd();
        fd_ = std::exchange(other.fd_, -1);
    }
    return *this;
}

void TcpListener::close_fd() noexcept {
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

Endpoint TcpListener::local_endpoint() const {
    sockaddr_in sa{};
    socklen_t len = sizeof sa;
    if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&sa), &len) < 0)
        throw_errno("getsockname");
    return Endpoint::from_sockaddr(sa);
}

std::optional<TcpConnection> TcpListener::accept(int timeout_ms) {
    if (!net::wait_fd_readable(fd_, timeout_ms)) return std::nullopt;
    const int conn = ::accept4(fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (conn < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK || errno == ECONNABORTED)
            return std::nullopt;
        throw_errno("accept");
    }
    const int one = 1;
    (void)::setsockopt(conn, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    tcp_metrics().accepts.inc();
    return TcpConnection(conn);
}

}  // namespace sc

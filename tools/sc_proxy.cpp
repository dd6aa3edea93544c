// sc_proxy — run one "squidlet" proxy standalone; assemble a federation by
// starting several and pointing them at each other.
//
//   sc_origin --port 9000 --delay-ms 50 &
//   sc_proxy --id 1 --http-port 8081 --icp-port 3131 --origin 9000
//            --sibling 2:8082:3132,3:8083:3133 --mode summary &
//   sc_proxy --id 2 --http-port 8082 --icp-port 3132 --origin 9000
//            --sibling 1:8081:3131,3:8083:3133 --mode summary &
//   ...
//
// --sibling takes id:http-port:icp-port (loopback). Modes: none, icp,
// summary, digest (Squid Cache-Digest-style pull: a DIRREQ to each live
// sibling every keepalive tick, answered with its full bitmap over ICP).
// --workers N serves requests with an N-thread pool (default 1 = serial,
// arrival order).
// --cache-shards M splits the LRU cache into M lock shards (power of
// two; default 0 = auto, min(workers, 8)).
// --dynamic-membership 0 disables runtime mesh joins; --fault-loss /
// --fault-dup / --fault-reorder / --fault-seed inject deterministic ICP
// datagram faults for soak testing (or SC_UDP_FAULT_* env vars).
// Prints a line of registry counts every few seconds until killed.
// --metrics-out FILE dumps the sc::obs registry as JSON on shutdown; live
// metrics are also served at GET /__metrics on the HTTP port.
#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cli.hpp"
#include "obs/metrics.hpp"
#include "proto/mini_proxy.hpp"

namespace {
volatile std::sig_atomic_t g_stop = 0;
void handle_signal(int) { g_stop = 1; }

struct SiblingSpec {
    sc::NodeId id;
    sc::Endpoint http;
    sc::Endpoint icp;
};

std::vector<SiblingSpec> parse_siblings(const std::string& csv) {
    // One or more comma-separated id:http:icp triples.
    std::vector<SiblingSpec> out;
    std::size_t start = 0;
    while (start < csv.size()) {
        const std::size_t comma = csv.find(',', start);
        const std::string item =
            csv.substr(start, comma == std::string::npos ? std::string::npos : comma - start);
        // id:http:icp (loopback) or id:host:http:icp (wide-area).
        unsigned id = 0, http = 0, icp = 0;
        unsigned a = 0, b = 0, c = 0, d = 0;
        if (std::sscanf(item.c_str(), "%u:%u.%u.%u.%u:%u:%u", &id, &a, &b, &c, &d, &http,
                        &icp) == 7 &&
            a <= 255 && b <= 255 && c <= 255 && d <= 255 && http <= 65535 && icp <= 65535) {
            const std::uint32_t host = (a << 24) | (b << 16) | (c << 8) | d;
            out.push_back({id, sc::Endpoint{host, static_cast<std::uint16_t>(http)},
                           sc::Endpoint{host, static_cast<std::uint16_t>(icp)}});
        } else if (std::sscanf(item.c_str(), "%u:%u:%u", &id, &http, &icp) == 3 &&
                   http <= 65535 && icp <= 65535) {
            out.push_back({id, sc::Endpoint::loopback(static_cast<std::uint16_t>(http)),
                           sc::Endpoint::loopback(static_cast<std::uint16_t>(icp))});
        } else {
            std::fprintf(stderr,
                         "bad --sibling '%s' (want id:http:icp or id:host:http:icp)\n",
                         item.c_str());
            std::exit(2);
        }
        if (comma == std::string::npos) break;
        start = comma + 1;
    }
    return out;
}

}  // namespace

int main(int argc, char** argv) {
    using namespace sc;
    const cli::Flags flags(argc, argv,
                           {"id", "http-port", "icp-port", "origin", "sibling", "mode",
                            "cache-mb", "threshold", "hit-obj-bytes", "bind",
                            "access-log", "metrics-out", "workers", "cache-shards",
                            "disk-dir", "disk-capacity-mb", "dynamic-membership",
                            "fault-loss", "fault-dup", "fault-reorder", "fault-seed",
                            "event-backend", "idle-timeout-ms", "max-requests-per-conn"});

    MiniProxyConfig cfg;
    cfg.id = static_cast<NodeId>(flags.get_int("id", 1));
    cfg.http_port = static_cast<std::uint16_t>(flags.get_int("http-port", 0));
    cfg.icp_port = static_cast<std::uint16_t>(flags.get_int("icp-port", 0));
    const auto origin_ep = Endpoint::parse(flags.require("origin"));
    if (!origin_ep) { std::fprintf(stderr, "bad --origin\n"); return 2; }
    cfg.origin = *origin_ep;
    if (flags.has("bind")) {
        const auto bind_ep = Endpoint::parse(flags.require("bind") + ":0");
        if (!bind_ep) { std::fprintf(stderr, "bad --bind\n"); return 2; }
        cfg.bind_host = bind_ep->host;
    }
    cfg.access_log_path = flags.get("access-log", "");
    cfg.cache_bytes = static_cast<std::uint64_t>(flags.get_double("cache-mb", 64.0) *
                                                 1024.0 * 1024.0);
    cfg.update_threshold = flags.get_double("threshold", 0.01);
    cfg.hit_obj_max_bytes = static_cast<std::uint64_t>(flags.get_int("hit-obj-bytes", 0));
    cfg.workers = static_cast<int>(flags.get_int("workers", 1));
    if (cfg.workers < 1) { std::fprintf(stderr, "bad --workers\n"); return 2; }
    // 0 = auto (min(workers, 8)); explicit values must be a power of two.
    const long long shards = flags.get_int("cache-shards", 0);
    if (shards < 0 || (shards > 0 && (shards & (shards - 1)) != 0)) {
        std::fprintf(stderr, "bad --cache-shards (want 0 or a power of two)\n");
        return 2;
    }
    cfg.cache_shards = static_cast<std::size_t>(shards);
    // Disk tier: --disk-dir enables the log-structured L2 (warm restart
    // recovers any existing log there); --disk-capacity-mb sizes it
    // (default 8x the RAM cache).
    cfg.disk_dir = flags.get("disk-dir", "");
    cfg.disk_capacity_bytes = static_cast<std::uint64_t>(
        flags.get_double("disk-capacity-mb", 0.0) * 1024.0 * 1024.0);
    // --dynamic-membership 0 pins the mesh to the --sibling list (unknown
    // SECHO/DIRREQ senders are ignored instead of auto-joined).
    cfg.dynamic_membership = flags.get_int("dynamic-membership", 1) != 0;
    // ICP fault injection for soak tests: probabilities in [0,1]. The same
    // knobs are honoured from SC_UDP_FAULT_{LOSS,DUP,REORDER,SEED} when no
    // flag is given (flags win).
    cfg.udp_faults.loss = flags.get_double("fault-loss", 0.0);
    cfg.udp_faults.duplicate = flags.get_double("fault-dup", 0.0);
    cfg.udp_faults.reorder = flags.get_double("fault-reorder", 0.0);
    cfg.udp_faults.seed = static_cast<std::uint64_t>(flags.get_int("fault-seed", 1));

    // Event-loop readiness backend: poll or epoll (default: epoll on
    // Linux; SC_EVENT_BACKEND applies when the flag is absent).
    if (flags.has("event-backend")) {
        const std::string backend = flags.require("event-backend");
        cfg.event_backend = net::parse_event_backend_kind(backend);
        if (!cfg.event_backend) {
            std::fprintf(stderr, "bad --event-backend '%s' (want poll or epoll)\n",
                         backend.c_str());
            return 2;
        }
    }
    // Keep-alive session limits: idle reap (0 = never) and per-connection
    // request cap (0 = unlimited).
    cfg.idle_timeout = std::chrono::milliseconds(flags.get_int("idle-timeout-ms", 60'000));
    cfg.max_requests_per_connection =
        static_cast<std::uint32_t>(flags.get_int("max-requests-per-conn", 0));

    const std::string mode = flags.get("mode", "summary");
    if (mode == "none") cfg.mode = ShareMode::none;
    else if (mode == "icp") cfg.mode = ShareMode::icp;
    else if (mode == "summary") cfg.mode = ShareMode::summary;
    else if (mode == "digest") cfg.mode = ShareMode::digest_pull;
    else { std::fprintf(stderr, "bad --mode\n"); return 2; }

    std::unique_ptr<MiniProxy> owned;
    try {
        owned = std::make_unique<MiniProxy>(cfg);
    } catch (const std::exception& e) {
        // A --disk-dir that cannot be created, a port already in use, ...
        std::fprintf(stderr, "sc_proxy: %s\n", e.what());
        return 2;
    }
    MiniProxy& proxy = *owned;
    if (flags.has("sibling")) {
        for (const SiblingSpec& s : parse_siblings(flags.require("sibling")))
            proxy.add_sibling(s.id, s.icp, s.http);
    }
    proxy.start();
    std::printf("proxy %u: HTTP %s  ICP %s  mode=%s  backend=%s\n", proxy.id(),
                proxy.http_endpoint().to_string().c_str(),
                proxy.icp_endpoint().to_string().c_str(), share_mode_name(cfg.mode),
                net::event_backend_kind_name(proxy.event_backend_kind()));
    std::fflush(stdout);

    std::signal(SIGINT, handle_signal);
    std::signal(SIGTERM, handle_signal);
    // Short sleeps so a SIGTERM is honoured promptly (sleep_for restarts
    // across EINTR; a long nap would delay the --metrics-out dump).
    auto next_report = std::chrono::steady_clock::now() + std::chrono::seconds(3);
    while (g_stop == 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        if (std::chrono::steady_clock::now() < next_report) continue;
        next_report += std::chrono::seconds(3);
        // The registry is the proxy's only count source.
        const auto snap = obs::metrics().snapshot();
        const auto count = [&](const char* name) -> unsigned long long {
            const auto* s = snap.find(name, {{"node", std::to_string(proxy.id())}});
            return s != nullptr ? s->counter : 0;
        };
        if (count("sc_proxy_requests_total") == 0) continue;
        std::printf("req=%llu localHit=%llu remoteHit=%llu queries=%llu updates=%llu "
                    "falseHit=%llu\n",
                    count("sc_proxy_requests_total"), count("sc_cache_hits_total"),
                    count("sc_proxy_remote_hits_total"), count("sc_proxy_icp_queries_sent_total"),
                    count("sc_proxy_updates_sent_total"), count("sc_proxy_false_hit_queries_total"));
        std::fflush(stdout);
    }
    proxy.stop();

    if (flags.has("metrics-out")) {
        const std::string path = flags.require("metrics-out");
        std::ofstream out(path);
        if (!out) {
            std::fprintf(stderr, "cannot write --metrics-out %s\n", path.c_str());
            return 2;
        }
        out << obs::to_json(obs::metrics().snapshot()) << '\n';
    }
    return 0;
}

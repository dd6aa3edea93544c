#include "workload.hpp"

#include <sched.h>

#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "trace/generator.hpp"

namespace sc::bench {
namespace {

constexpr std::uint64_t kMiB = 1024 * 1024;

std::vector<Workload> make_workloads() {
    std::vector<Workload> out;

    // Nearly every request a local hit: the per-request cost of session, parse,
    // cache lookup and body write-out, with summary, ICP and origin idle.
    Workload hot;
    hot.name = "hot_hits";
    hot.mode = ShareMode::summary;
    hot.cache_bytes = 64 * kMiB;
    // The warm-up is one pass over the measured stream, after which every
    // document a client asks for is in its proxy's cache: the window is all
    // local hits however many times it goes round.
    hot.measured_requests = 100'000;
    hot.may_wrap = true;
    hot.profile.name = "hot";
    hot.profile.clients = 64;
    hot.profile.proxy_groups = kProxies;
    hot.profile.shared_docs = 2'000;
    hot.profile.private_fraction = 0.0;
    hot.profile.size_lo = 512;
    hot.profile.size_hi = 4096;
    hot.profile.modify_probability = 0.0;
    hot.profile.seed = 0x407'0001;
    out.push_back(hot);

    // The paper's mix (Table IV scaled down): local hits, remote hits via
    // summary probe + ICP query + sibling fetch, and origin misses.
    Workload summary;
    summary.name = "upisa_summary";
    summary.mode = ShareMode::summary;
    summary.cache_bytes = 16 * kMiB;
    // About 8k requests/s on a 4-vCPU VM, 160k in a 20 s window, of which
    // the furthest client sends about a sixth of its share: the measured
    // stream lasts a 20 s window at 5x that throughput.
    summary.warmup_requests = 16'500;
    summary.measured_requests = 960'000;
    summary.profile = standard_profile(TraceKind::upisa, 0.05);
    summary.profile.size_hi = 256.0 * 1024;
    out.push_back(summary);

    // Same trace, classic ICP: every local miss queries all 3 siblings.
    Workload icp = summary;
    icp.name = "upisa_icp";
    icp.mode = ShareMode::icp;
    out.push_back(icp);

    // The write side: modified documents replace cached versions, large
    // bodies evict often, and every admission is logged by the disk tier.
    Workload churn = summary;
    churn.name = "churn_disk";
    churn.cache_bytes = 4 * kMiB;
    churn.disk_bytes = 32 * kMiB;
    churn.profile.modify_probability = 0.05;
    churn.profile.size_lo = 4'000;
    churn.profile.size_hi = 256'000;
    out.push_back(churn);
    return out;
}

const std::vector<Workload>& workloads() {
    static const std::vector<Workload> all = make_workloads();
    return all;
}

}  // namespace

const Workload* find_workload(std::string_view name) {
    for (const auto& w : workloads())
        if (w.name == name) return &w;
    return nullptr;
}

std::vector<std::string> workload_names() {
    std::vector<std::string> names;
    for (const auto& w : workloads()) names.push_back(w.name);
    return names;
}

Streams make_streams(const Workload& w, std::uint64_t seed) {
    TraceProfile p = w.profile;
    p.requests = w.warmup_requests + w.measured_requests;
    // The seed picks the trace, never the workload: upisa_summary and
    // upisa_icp replay the same requests for the same seed.
    p.seed = p.seed ^ (seed * 0x9e3779b97f4a7c15ull);
    TraceGenerator gen(p);

    Streams s;
    s.per_client.resize(kProxies);
    s.warmup.resize(kProxies);
    std::unordered_map<std::string, std::uint32_t> ids;
    for (std::uint64_t i = 0; auto r = gen.next(); ++i) {
        const auto [it, fresh] = ids.try_emplace(r->url, static_cast<std::uint32_t>(s.urls.size()));
        if (fresh) s.urls.push_back(std::move(r->url));
        auto& to = i < w.warmup_requests ? s.warmup : s.per_client;
        to[r->client_id % kProxies].push_back(
            {it->second, static_cast<std::uint32_t>(r->version), r->size});
    }
    for (int c = 0; c < kProxies; ++c) {
        const auto& stream = s.per_client[static_cast<std::size_t>(c)];
        if (stream.empty()) throw std::runtime_error("a client's measured stream is empty");
        if (w.may_wrap) {
            auto& warm = s.warmup[static_cast<std::size_t>(c)];
            warm.insert(warm.end(), stream.begin(), stream.end());
        }
    }
    return s;
}

MiniProxyConfig proxy_config(const Workload& w, int index) {
    MiniProxyConfig cfg;
    cfg.id = static_cast<NodeId>(index + 1);
    cfg.mode = w.mode;
    cfg.cache_bytes = w.cache_bytes;
    cfg.disk_capacity_bytes = w.disk_bytes;
    cfg.workers = w.workers;
    cfg.event_backend = net::EventBackendKind::epoll;
    return cfg;
}

void pin_to_cpu_slot(int slot) {
    static const std::vector<int> cpus = [] {
        cpu_set_t allowed;
        CPU_ZERO(&allowed);
        if (sched_getaffinity(0, sizeof allowed, &allowed) != 0)
            throw std::runtime_error("sched_getaffinity failed");
        std::vector<int> out;
        for (int c = 0; c < CPU_SETSIZE; ++c)
            if (CPU_ISSET(c, &allowed)) out.push_back(c);
        return out;
    }();
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus[static_cast<std::size_t>(slot) % cpus.size()], &one);
    if (sched_setaffinity(0, sizeof one, &one) != 0)
        throw std::runtime_error("sched_setaffinity failed");
}

Mesh::Mesh(const Workload& w, const std::filesystem::path& disk_root) {
    origin_ = std::make_unique<OriginServer>(
        OriginServer::Config{.port = 0, .reply_delay = kOriginDelay});
    if (w.disk_bytes != 0) {
        // The store aborts on a missing parent directory (README, defect 3).
        std::filesystem::create_directories(disk_root);
    }
    for (int i = 0; i < kProxies; ++i) {
        MiniProxyConfig cfg = proxy_config(w, i);
        cfg.origin = origin_->endpoint();
        if (w.disk_bytes != 0) {
            cfg.disk_dir = (disk_root / ("node-" + std::to_string(i + 1))).string();
            disk_dirs_.push_back(cfg.disk_dir);
        }
        proxies_.push_back(std::make_unique<MiniProxy>(cfg));
    }
    for (auto& p : proxies_)
        for (auto& q : proxies_)
            if (p != q) p->add_sibling(q->id(), q->icp_endpoint(), q->http_endpoint());
    // Threads inherit the affinity of the thread that creates them.
    cpu_set_t caller;
    CPU_ZERO(&caller);
    if (sched_getaffinity(0, sizeof caller, &caller) != 0)
        throw std::runtime_error("sched_getaffinity failed");
    for (int i = 0; i < kProxies; ++i) {
        pin_to_cpu_slot(i);
        proxies_[static_cast<std::size_t>(i)]->start();
    }
    if (sched_setaffinity(0, sizeof caller, &caller) != 0)
        throw std::runtime_error("sched_setaffinity failed");
    if (w.mode != ShareMode::summary) return;
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    for (auto& p : proxies_) {
        while (p->synced_replicas() != kProxies - 1) {
            if (std::chrono::steady_clock::now() > deadline)
                throw std::runtime_error("summary replicas did not sync within 10 s");
            std::this_thread::sleep_for(std::chrono::microseconds(100));
        }
    }
}

Mesh::~Mesh() {
    // The origin goes first, listener included: a worker still waiting on an
    // origin reply then sees EOF, and its reconnect is refused, so stopping
    // the proxies cannot hang on a broken origin exchange.
    origin_.reset();
    for (auto& p : proxies_) p->stop();
}

}  // namespace sc::bench

// Workloads, request streams and the 4-proxy mesh the cluster benchmark
// drives. Everything a run depends on is derived from (workload, seed):
// the same pair always yields the same request streams.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "proto/mini_proxy.hpp"
#include "proto/origin_server.hpp"
#include "trace/profile.hpp"

namespace sc::bench {

inline constexpr int kProxies = 4;
inline constexpr auto kOriginDelay = std::chrono::milliseconds(1);

struct Workload {
    std::string name;
    ShareMode mode = ShareMode::summary;
    /// Request workers per proxy. With 1, two proxies that SGET from each
    /// other deadlock until fetch_timeout (README, defect 1).
    int workers = 2;
    std::uint64_t cache_bytes = 0;
    /// Disk-tier capacity; 0 runs the RAM-only cache.
    std::uint64_t disk_bytes = 0;
    /// Requests at the head of the trace that warm the caches untimed.
    std::uint64_t warmup_requests = 0;
    /// Requests after the warm-up, the measured stream. A client that
    /// reaches the end of its share starts it over (a wrap), so the window
    /// lasts exactly --seconds.
    std::uint64_t measured_requests = 0;
    /// Whether a wrap is allowed. A second pass replays requests whose
    /// documents are already cached, so where it would change the hit mix a
    /// wrap fails the run, and the stream is sized to end well after the
    /// window even at several times the throughput measured today. A
    /// workload that may wrap warms up with one more pass over its measured
    /// stream, so the window's first pass is already a later one and what
    /// the window sees does not depend on how far it gets.
    bool may_wrap = false;
    /// Trace profile before the seed and request count are applied.
    TraceProfile profile;
};

/// The four workloads, by name; nullptr for an unknown name.
[[nodiscard]] const Workload* find_workload(std::string_view name);
[[nodiscard]] std::vector<std::string> workload_names();

/// One request of a client's stream. URLs are interned in Streams::urls.
struct StreamRequest {
    std::uint32_t url = 0;
    std::uint32_t version = 0;
    std::uint64_t size = 0;
};

/// The trace split by proxy: trace client c goes to proxy c mod 4 (the
/// paper's experiment 3), in trace order. The first warmup_requests of the
/// trace warm the caches untimed; the rest is the measured stream.
struct Streams {
    std::vector<std::string> urls;
    std::vector<std::vector<StreamRequest>> warmup;      ///< kProxies entries
    std::vector<std::vector<StreamRequest>> per_client;  ///< kProxies entries
};

[[nodiscard]] Streams make_streams(const Workload& w, std::uint64_t seed);

/// Pins the calling thread to CPU slot `slot`: the slot-th CPU this
/// process may run on, wrapping when there are fewer CPUs than slots.
void pin_to_cpu_slot(int slot);

/// One origin plus 4 fully meshed proxies. Construction starts every
/// node and, in summary mode, returns only once every proxy holds a
/// synced replica of each of its 3 siblings.
///
/// Proxy i's event loop and workers run on CPU slot i, and so does client
/// i: each proxy owns a core with its clients, as each proxy owned a
/// workstation in the paper's testbed, and traffic between proxies crosses
/// cores. The origin floats. Unpinned, the 16 ping-ponging threads landed
/// differently on every run and throughput varied by about 15% between
/// back-to-back runs on a 4-vCPU VM; pinned, they agree within a few percent.
class Mesh {
public:
    /// `disk_root` holds the proxies' disk tiers; unused without one.
    Mesh(const Workload& w, const std::filesystem::path& disk_root);
    ~Mesh();

    Mesh(const Mesh&) = delete;
    Mesh& operator=(const Mesh&) = delete;

    [[nodiscard]] MiniProxy& proxy(int i) { return *proxies_[static_cast<std::size_t>(i)]; }
    [[nodiscard]] const OriginServer& origin() const { return *origin_; }
    /// Disk-tier directory of each proxy (empty without a disk tier).
    [[nodiscard]] const std::vector<std::string>& disk_dirs() const { return disk_dirs_; }

private:
    std::unique_ptr<OriginServer> origin_;
    std::vector<std::unique_ptr<MiniProxy>> proxies_;
    std::vector<std::string> disk_dirs_;
};

/// The proxy config every mesh node (and the layer replay) is built from.
[[nodiscard]] MiniProxyConfig proxy_config(const Workload& w, int index);

}  // namespace sc::bench

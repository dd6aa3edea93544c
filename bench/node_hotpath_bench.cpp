// Hot-path acceptance benchmark for the sharded request path (plain
// binary, exit 1 on violation; CI runs it as its own step, like
// proxy_concurrency_bench).
//
// Scenario: the MiniProxy worker-pool request path with the transport
// stripped away — a shared ProtocolEngine over a sharded LruCache whose
// hooks write the SummaryCacheNode's counting filter, probing four sibling
// replicas held by that node as lock-free snapshots. Every op is one
// request: local lookup, and on a miss a replica probe plus admit, with
// the delta log dropped periodically the way the elected flusher takes it.
//
// Checks, each fatal on violation (exit 1):
//   1. Contended scaling: at 8 threads the 8-shard cache must beat the
//      1-shard cache by >= SC_HOTPATH_SPEEDUP_MIN (default 2.0). Skipped
//      with a note when hardware_concurrency() < 4 — a single-core box
//      serializes both configs; the multi-core CI runner is the evidence.
//   2. Zero-allocation probe: deriving the Bloom indexes (inline buffer),
//      loading the replica snapshot, and probing every filter performs 0
//      heap allocations per probe, counted by replaced operator new.
//
// Also prints a 1/2/4/8/16-thread scaling table for the full path and
// appends every measurement to BENCH_hotpath.json (see bench_json.hpp).
#include <atomic>
#include <barrier>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench_json.hpp"
#include "cache/lru_cache.hpp"
#include "core/protocol_engine.hpp"
#include "core/summary_cache_node.hpp"
#include "icp/icp_message.hpp"
#include "summary/bloom_summary.hpp"

#if __has_include(<execinfo.h>)
#include <execinfo.h>
#include <unistd.h>
#define SC_BENCH_HAVE_BACKTRACE 1
#endif

// --- allocation counter ------------------------------------------------------
// Replace the global allocator so the zero-alloc gate can count heap
// traffic. The counter is relaxed: the gate section runs single-threaded.
// While the gate runs, g_capture_stacks additionally records the call stack
// of the first few offending allocations into fixed storage (capturing must
// not itself allocate), so a regression names the culprit instead of just
// a count.

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};

constexpr int kMaxCapturedStacks = 8;
constexpr int kMaxStackFrames = 32;
std::atomic<bool> g_capture_stacks{false};
std::atomic<int> g_captured{0};
void* g_stack_frames[kMaxCapturedStacks][kMaxStackFrames];
int g_stack_depths[kMaxCapturedStacks];

void maybe_capture_stack() {
#if SC_BENCH_HAVE_BACKTRACE
    if (!g_capture_stacks.load(std::memory_order_relaxed)) return;
    // backtrace() can allocate internally (libgcc lazy init); the guard
    // keeps that from recursing into another capture.
    static thread_local bool capturing = false;
    if (capturing) return;
    capturing = true;
    const int slot = g_captured.fetch_add(1, std::memory_order_relaxed);
    if (slot < kMaxCapturedStacks)
        g_stack_depths[slot] = backtrace(g_stack_frames[slot], kMaxStackFrames);
    capturing = false;
#endif
}

void dump_captured_stacks() {
#if SC_BENCH_HAVE_BACKTRACE
    const int n = std::min(g_captured.load(std::memory_order_relaxed),
                           kMaxCapturedStacks);
    for (int i = 0; i < n; ++i) {
        std::fprintf(stderr, "--- offending allocation #%d of %d captured ---\n",
                     i + 1, n);
        // _fd variant: symbolizing must not allocate while we report on
        // allocations. Frames 0-1 are the capture machinery itself.
        backtrace_symbols_fd(g_stack_frames[i], g_stack_depths[i], STDERR_FILENO);
    }
#else
    std::fprintf(stderr, "(no <execinfo.h>: offending call stacks unavailable)\n");
#endif
}
}  // namespace

void* operator new(std::size_t n) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    maybe_capture_stack();
    if (void* p = std::malloc(n != 0 ? n : 1)) return p;
    throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace sc;

std::vector<std::string> make_urls(std::size_t n) {
    std::vector<std::string> urls;
    urls.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        urls.push_back("http://server" + std::to_string(i % 97) + ".example.com/path/doc" +
                       std::to_string(i));
    return urls;
}

constexpr std::size_t kUrls = 8192;  // power of two: index masking below
constexpr std::uint64_t kDocBytes = 8192;

/// The proxy's request path with the sockets removed: engine + sharded
/// cache + node-held sibling replicas, wired exactly like MiniProxy
/// (cache hooks -> the node's counting filter; probes -> replica
/// snapshots, the node itself being the engine's lock-free PeerDirectory).
struct HotPath {
    LruCache cache;
    SummaryCacheNode node;
    core::ProtocolEngine engine;

    HotPath(std::size_t shards, const std::vector<std::string>& urls)
        : cache(LruCacheConfig{32ull * 1024 * 1024, kDefaultMaxObjectBytes, shards}),
          node([] {
              SummaryCacheNodeConfig c;
              c.node_id = 0;
              c.expected_docs = kUrls;
              return c;
          }()),
          engine(core::ProtocolEngineConfig{0, core::DeltaBatcherConfig{0.01, 0.0, 0}},
                 cache, nullptr, &node) {
        // Four siblings, each advertising an interleaved half of the URL
        // universe: probes mix promising peers and empty candidate sets.
        for (NodeId id = 1; id <= 4; ++id) {
            SummaryCacheNodeConfig c;
            c.node_id = id;
            c.expected_docs = kUrls;
            SummaryCacheNode sibling(c);
            for (std::size_t i = id - 1; i < urls.size(); i += 8)
                sibling.on_cache_insert(urls[i]);
            node.apply_sibling_update(decode_dirupdate(sibling.encode_full_update()));
        }
        // Production hook wiring: cache hooks write the node's counting
        // filter under its leaf lock (docs/PROTOCOL.md "Locking").
        cache.set_insert_hook([this](const LruCache::Entry& e) { node.on_cache_insert(e.url); });
        cache.set_removal_hook([this](const LruCache::Entry& e) { node.on_cache_erase(e.url); });
    }
};

/// Run `threads` workers for `ops_per_thread` requests each against one
/// shared HotPath; returns ns per op (wall clock across all threads).
double timed_hotpath_ns(HotPath& hp, int threads, std::size_t ops_per_thread) {
    std::barrier sync(threads + 1);
    std::atomic<std::uint64_t> served{0};
    std::vector<std::thread> workers;
    workers.reserve(static_cast<std::size_t>(threads));
    const auto urls = make_urls(kUrls);
    for (int t = 0; t < threads; ++t) {
        workers.emplace_back([&hp, &sync, &served, &urls, t, ops_per_thread] {
            std::size_t i = static_cast<std::size_t>(t) * 977;  // decorrelate threads
            std::uint64_t local = 0;
            sync.arrive_and_wait();
            for (std::size_t n = 0; n < ops_per_thread; ++n) {
                const std::string& url = urls[i++ & (kUrls - 1)];
                if (hp.engine.lookup_local(url, 0) == LruCache::Lookup::hit) {
                    ++local;
                    continue;
                }
                local += hp.engine.probe(url).size();
                (void)hp.engine.admit(url, kDocBytes, 0);
                // Stand in for the elected flusher: keep the node's delta
                // log bounded the way encode_pending_updates does live.
                if ((n & 8191) == 8191) hp.node.discard_delta();
            }
            served.fetch_add(local, std::memory_order_relaxed);
            sync.arrive_and_wait();
        });
    }
    sync.arrive_and_wait();
    const auto start = std::chrono::steady_clock::now();
    sync.arrive_and_wait();
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    for (auto& w : workers) w.join();
    if (served.load() == 0) std::fprintf(stderr, "hotpath served nothing?\n");
    return secs * 1e9 / (static_cast<double>(ops_per_thread) * threads);
}

/// Best of `trials` fresh runs (fresh HotPath each: cold cache, same mix).
double best_hotpath_ns(std::size_t shards, int threads, std::size_t ops_per_thread,
                       int trials) {
    const auto urls = make_urls(kUrls);
    double best = 1e300;
    for (int t = 0; t < trials; ++t) {
        HotPath hp(shards, urls);
        const double ns = timed_hotpath_ns(hp, threads, ops_per_thread);
        if (ns < best) best = ns;
    }
    return best;
}

bool check_contended_speedup(double ns_shards8_t8) {
    const char* min_env = std::getenv("SC_HOTPATH_SPEEDUP_MIN");
    const double min_speedup = min_env ? std::atof(min_env) : 2.0;
    const double ns_shards1 = best_hotpath_ns(/*shards=*/1, /*threads=*/8,
                                              /*ops_per_thread=*/1 << 16, /*trials=*/3);
    sc::bench::append_record({"node_hotpath_shards1", 8, ns_shards1, -1.0});
    const double speedup = ns_shards1 / ns_shards8_t8;
    std::printf("contended-speedup: 8 threads shards=1 %.1fns/op shards=8 %.1fns/op "
                "speedup=%.2fx min=%.2fx\n",
                ns_shards1, ns_shards8_t8, speedup, min_speedup);
    const unsigned cores = std::thread::hardware_concurrency();
    if (cores < 4) {
        std::printf("SKIP: contended-speedup gate needs >= 4 cores (have %u); "
                    "the multi-core CI runner enforces it\n", cores);
        return true;
    }
    if (speedup < min_speedup) {
        std::printf("FAIL: sharded cache speedup %.2fx below %.2fx at 8 threads\n", speedup,
                    min_speedup);
        return false;
    }
    return true;
}

bool check_zero_alloc_probe() {
    const auto urls = make_urls(kUrls);
    HotPath hp(/*shards=*/8, urls);
    // The simulator-side probe objects too: an own summary hashing once
    // into the inline index buffer, reused against four peer summaries.
    BloomSummary own(kUrls, {});
    std::vector<BloomSummary> peers;
    for (int p = 0; p < 4; ++p) {
        peers.emplace_back(kUrls, BloomSummaryConfig{});
        for (std::size_t i = static_cast<std::size_t>(p); i < urls.size(); i += 8)
            peers.back().on_insert(urls[i]);
        peers.back().publish();
    }
    // Pre-screen URLs whose probe comes back all-empty: a true positive
    // legitimately allocates the candidate vector, so the zero-alloc claim
    // is about the probe machinery, measured on all-miss probes (the
    // common case — most URLs are nowhere).
    std::vector<const std::string*> screened;
    for (const std::string& url : urls)
        if (hp.node.promising_siblings(url).empty()) screened.push_back(&url);
    if (screened.size() < 256) {
        std::printf("FAIL: only %zu all-miss URLs to measure (expected thousands)\n",
                    screened.size());
        return false;
    }

    constexpr int kRounds = 64;  // revisit each URL: steady state, big sample
    std::uint64_t sink = 0;
#if SC_BENCH_HAVE_BACKTRACE
    {  // warm backtrace()'s lazy libgcc init outside the measured window
        void* warm[2];
        (void)backtrace(warm, 2);
    }
#endif
    const auto start = std::chrono::steady_clock::now();
    const std::uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
    g_capture_stacks.store(true, std::memory_order_relaxed);
    for (int r = 0; r < kRounds; ++r) {
        for (const std::string* url : screened) {
            sink += hp.node.promising_siblings(*url).size();
            const SummaryProbe probe = own.make_probe(*url);
            for (const BloomSummary& peer : peers) sink += peer.predicts(probe) ? 1 : 0;
        }
    }
    g_capture_stacks.store(false, std::memory_order_relaxed);
    const std::uint64_t allocs = g_alloc_count.load(std::memory_order_relaxed) - before;
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    const double ops = static_cast<double>(screened.size()) * kRounds;
    const double allocs_per_op = static_cast<double>(allocs) / ops;
    const double ns_per_op = secs * 1e9 / ops;
    std::printf("zero-alloc-probe: %.0f probes, %llu allocs (%.6f/op), %.1fns/op "
                "(fp sink=%llu)\n",
                ops, static_cast<unsigned long long>(allocs), allocs_per_op, ns_per_op,
                static_cast<unsigned long long>(sink));
    sc::bench::append_record({"probe_zero_alloc", 1, ns_per_op, allocs_per_op});
    if (allocs != 0) {
        std::printf("FAIL: probe path allocated (%llu allocations over %.0f probes)\n",
                    static_cast<unsigned long long>(allocs), ops);
        dump_captured_stacks();
        return false;
    }
    return true;
}

}  // namespace

int main() {
    // Thread-scaling table for the full request path on the 8-shard cache
    // (the 8-thread row doubles as the speedup gate's numerator).
    double ns_shards8_t8 = 0.0;
    for (const int threads : {1, 2, 4, 8, 16}) {
        const double ns = best_hotpath_ns(/*shards=*/8, threads,
                                          /*ops_per_thread=*/1 << 16,
                                          /*trials=*/threads == 8 ? 3 : 1);
        std::printf("hotpath: shards=8 threads=%-2d %.1fns/op\n", threads, ns);
        sc::bench::append_record({"node_hotpath_shards8", threads, ns, -1.0});
        if (threads == 8) ns_shards8_t8 = ns;
    }

    bool ok = check_contended_speedup(ns_shards8_t8);
    ok = check_zero_alloc_probe() && ok;
    std::printf(ok ? "node_hotpath_bench: OK\n" : "node_hotpath_bench: FAILED\n");
    return ok ? 0 : 1;
}

#include "layer_replay.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <limits>
#include <stdexcept>
#include <type_traits>

#include "cache/lru_cache.hpp"
#include "core/protocol_engine.hpp"
#include "core/summary_cache_node.hpp"
#include "icp/icp_message.hpp"
#include "proto/http_lite.hpp"
#include "proto/http_session.hpp"
#include "store/log_store.hpp"
#include "store/tiered_store.hpp"
#include "summary/message_costs.hpp"

namespace sc::bench {
namespace {

using Clock = std::chrono::steady_clock;

struct Probe {
    double total_ns = 0;
    std::uint64_t calls = 0;
};

/// Times single calls, removing the cost of the two clock reads.
class Stopwatch {
public:
    Stopwatch() {
        std::int64_t best = std::numeric_limits<std::int64_t>::max();
        for (int i = 0; i < 2000; ++i) {
            const auto a = Clock::now();
            const auto b = Clock::now();
            best = std::min<std::int64_t>(best, (b - a).count());
        }
        overhead_ns_ = static_cast<double>(best);
    }

    template <typename Fn>
    auto time(Probe& p, Fn&& fn) {
        const auto start = Clock::now();
        if constexpr (std::is_void_v<std::invoke_result_t<Fn>>) {
            fn();
            record(p, start);
        } else {
            auto result = fn();
            record(p, start);
            return result;
        }
    }

private:
    void record(Probe& p, Clock::time_point start) const {
        const double ns = static_cast<double>((Clock::now() - start).count());
        p.total_ns += std::max(0.0, ns - overhead_ns_);
        ++p.calls;
    }

    double overhead_ns_ = 0;
};

/// One replayed proxy: the cache, summary node and engine MiniProxy builds.
struct Node {
    std::unique_ptr<store::TieredCacheStore> cache;
    std::unique_ptr<SummaryCacheNode> summary;
    std::unique_ptr<core::ProtocolEngine> engine;
    HttpSessionParser parser;
};

Node make_node(const Workload& w, int index, const std::filesystem::path& dir) {
    const MiniProxyConfig cfg = proxy_config(w, index);
    Node n;
    // MiniProxy's shard rule: min(workers, 8) rounded down to a power of two.
    auto l1 = std::make_unique<LruCache>(LruCacheConfig{
        cfg.cache_bytes, cfg.max_object_bytes,
        std::bit_floor(static_cast<std::size_t>(std::min(cfg.workers, 8)))});
    std::unique_ptr<store::LogStructuredStore> l2;
    if (w.disk_bytes != 0) {
        store::LogStoreConfig lc;
        lc.dir = (dir / ("node-" + std::to_string(index + 1))).string();
        lc.capacity_bytes = w.disk_bytes;
        lc.max_object_bytes = cfg.max_object_bytes;
        l2 = std::make_unique<store::LogStructuredStore>(std::move(lc));
    }
    n.cache = std::make_unique<store::TieredCacheStore>(std::move(l1), std::move(l2));
    n.summary = std::make_unique<SummaryCacheNode>(SummaryCacheNodeConfig{
        cfg.id, std::max<std::uint64_t>(1, cfg.cache_bytes / kAverageDocumentBytes), cfg.bloom});
    n.engine = std::make_unique<core::ProtocolEngine>(
        core::ProtocolEngineConfig{cfg.id,
                                   core::DeltaBatcherConfig{cfg.update_threshold, 0.0, 0}},
        *n.cache, nullptr, n.summary.get());
    SummaryCacheNode* node = n.summary.get();
    n.cache->set_insert_hook([node](const CacheStore::Entry& e) { node->on_cache_insert(e.url); });
    n.cache->set_removal_hook([node](const CacheStore::Entry& e) { node->on_cache_erase(e.url); });
    return n;
}

class Replay {
public:
    Replay(const Workload& w, const Streams& s, const std::filesystem::path& dir) : streams_(s) {
        for (int i = 0; i < kProxies; ++i) nodes_.push_back(make_node(w, i, dir));
        // Every replica starts from a real full-bitmap bootstrap.
        for (int i = 0; i < kProxies; ++i)
            for (const auto& chunk : node(i).summary->encode_full_update_chunks())
                apply_to_siblings(i, chunk, /*timed=*/false);
    }

    void step(int p, const StreamRequest& r) {
        Node& n = node(p);
        const std::string& url = streams_.urls[r.url];
        line_ = "GET ";
        line_ += url;
        line_ += ' ';
        line_ += std::to_string(r.version);
        line_ += ' ';
        line_ += std::to_string(r.size);
        if (!sw_.time(parse_, [&] { return n.parser.on_line(line_); }))
            throw std::logic_error("replayed request line did not parse");

        const auto lookup =
            sw_.time(lookup_, [&] { return n.engine->lookup_local(url, r.version); });
        const auto peers = sw_.time(probe_, [&] { return n.engine->probe(url); });
        query_.request_number = ++query_number_;
        query_.sender_host = static_cast<std::uint32_t>(p + 1);
        query_.requester_host = query_.sender_host;
        query_.url = url;
        sw_.time(codec_, [&] {
            const IcpQuery q = decode_query(encode_query(query_));
            IcpReply reply;
            reply.opcode = peers.empty() ? IcpOpcode::miss : IcpOpcode::hit;
            reply.request_number = q.request_number;
            reply.sender_host = q.sender_host;
            reply.url = q.url;
            return decode_reply(encode_reply(reply)).request_number;
        });
        if (lookup != CacheStore::Lookup::hit &&
            sw_.time(admit_, [&] { return n.engine->admit(url, r.size, r.version); }))
            flush(p);
        (void)sw_.time(synth_, [&] { return synth_body(r.size); });
    }

    [[nodiscard]] std::vector<LayerCost> costs() const {
        const auto cost = [](const char* metric, const char* entry, const Probe& p) {
            return LayerCost{metric, entry,
                             p.calls ? p.total_ns / static_cast<double>(p.calls) : 0.0, p.calls};
        };
        return {
            cost("proto.parse_ns", "HttpSessionParser::on_line", parse_),
            cost("proto.synth_body_ns", "synth_body", synth_),
            cost("cache.lookup_ns", "ProtocolEngine::lookup_local", lookup_),
            cost("cache.admit_ns", "ProtocolEngine::admit", admit_),
            cost("summary.probe_ns", "SummaryCacheNode::promising_siblings", probe_),
            cost("summary.delta_encode_ns", "SummaryCacheNode::encode_pending_updates", encode_),
            cost("summary.delta_apply_ns", "decode_dirupdate + apply_sibling_update", apply_),
            cost("icp.codec_ns", "encode/decode_query + encode/decode_reply", codec_),
        };
    }

private:
    Node& node(int i) { return nodes_[static_cast<std::size_t>(i)]; }

    void flush(int p) {
        Node& n = node(p);
        const auto flushed = n.engine->maybe_flush(0.0, [&] {
            return sw_.time(encode_, [&] { return n.summary->encode_pending_updates(); });
        });
        if (!flushed) return;
        for (const auto& msg : flushed->first) apply_to_siblings(p, msg, /*timed=*/true);
    }

    void apply_to_siblings(int from, const std::vector<std::uint8_t>& msg, bool timed) {
        for (int j = 0; j < kProxies; ++j) {
            if (j == from) continue;
            SummaryCacheNode& sibling = *node(j).summary;
            const auto apply = [&] { return sibling.apply_sibling_update(decode_dirupdate(msg)); };
            const auto result = timed ? sw_.time(apply_, apply) : apply();
            if (result != SummaryApplyResult::applied && result != SummaryApplyResult::partial)
                throw std::logic_error("in-order replayed update was not applied");
        }
    }

    const Streams& streams_;
    std::vector<Node> nodes_;
    Stopwatch sw_;
    std::string line_;
    IcpQuery query_;
    std::uint32_t query_number_ = 0;
    Probe parse_, synth_, lookup_, admit_, probe_, encode_, apply_, codec_;
};

}  // namespace

std::vector<LayerCost> replay_layers(const Workload& w, const Streams& s,
                                     const std::vector<std::uint64_t>& measured,
                                     std::uint64_t max_requests,
                                     const std::filesystem::path& dir) {
    // The disk tier aborts on a missing parent directory (README, defect 3).
    if (w.disk_bytes != 0) std::filesystem::create_directories(dir);
    Replay replay(w, s, dir);
    std::uint64_t budget = max_requests;
    // Round-robin across clients approximates the interleaving the mesh saw.
    const auto run = [&](auto&& count, auto&& request_at) {
        std::uint64_t longest = 0;
        for (int c = 0; c < kProxies; ++c) longest = std::max(longest, count(c));
        for (std::uint64_t i = 0; i < longest && budget > 0; ++i)
            for (int c = 0; c < kProxies && budget > 0; ++c)
                if (i < count(c)) {
                    replay.step(c, request_at(c, i));
                    --budget;
                }
    };
    const auto at = [](const auto& v, int c) -> const auto& {
        return v[static_cast<std::size_t>(c)];
    };
    run([&](int c) { return static_cast<std::uint64_t>(at(s.warmup, c).size()); },
        [&](int c, std::uint64_t i) { return at(s.warmup, c)[i]; });
    run([&](int c) { return at(measured, c); },
        [&](int c, std::uint64_t i) {
            const auto& stream = at(s.per_client, c);
            return stream[i % stream.size()];
        });
    return replay.costs();
}

}  // namespace sc::bench

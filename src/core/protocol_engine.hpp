// ProtocolEngine — the summary-cache decision pipeline, transport-free.
//
// One engine per proxy. It owns the full request path of Section III/V:
//
//   lookup_local  — is the document in our own cache (version-checked)?
//   probe         — which peers' replicated summaries look promising?
//   run_*_round   — the sibling-query/origin-fetch decision: sequential
//                   probing for the summary protocol (one query at a
//                   time, stop at the first fresh copy; a stale copy ends
//                   the round), multicast for classic ICP;
//   admit         — insert the fetched document and account it toward the
//                   update-delay threshold;
//   maybe_flush / maybe_publish — directory maintenance: elect one
//                   flusher per threshold crossing (DeltaBatcher) and
//                   emit the cheaper of delta / full-bitmap (§VI-A, done
//                   by the summary or SummaryCacheNode the caller hands
//                   the flush to).
//
// The trace simulators (src/sim) and the live MiniProxy (src/proto) both
// drive THIS object, so the semantics measured in Figures 5-8 are, by
// construction, the semantics on the wire. How to actually ask a peer is
// the caller's job: the round helpers take a callback that returns what
// the peer answered, so the simulator peeks sibling caches while the
// proxy sends real ICP datagrams — the decision logic stays here.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <utility>
#include <vector>

#include "cache/cache_store.hpp"
#include "core/delta_batcher.hpp"
#include "core/peer_directory.hpp"
#include "summary/summary.hpp"

namespace sc::core {

struct ProtocolEngineConfig {
    std::uint32_t node_id = 0;
    DeltaBatcherConfig batching;
};

/// What a queried peer turned out to hold.
enum class PeerAnswer {
    absent,  ///< nothing cached — the summary was wrong (wasted query)
    fresh,   ///< cached, version matches — remote hit
    stale,   ///< cached but out of date — the document comes from the origin
};

/// Result of one sibling-query round.
struct RoundOutcome {
    std::optional<std::uint32_t> winner;  ///< peer that served a fresh copy
    bool stale_ended = false;             ///< a stale copy ended the round
    std::uint64_t queries = 0;            ///< queries actually sent
    std::uint64_t wasted_queries = 0;     ///< queries answered "absent"
};

/// Outcome of a directory flush elected by maybe_publish.
struct PublishOutcome {
    std::uint64_t wire_bytes = 0;  ///< update bytes for ONE peer (0: churn netted out)
    std::uint64_t batch_size = 0;  ///< inserts coalesced into this flush
};

class ProtocolEngine {
public:
    /// `summary` (nullable) is the engine's own directory summary — the
    /// simulators pass it so maybe_publish can snapshot it; the live proxy
    /// passes nullptr and routes flushes through its SummaryCacheNode via
    /// maybe_flush. `peers` (nullable) answers probe().
    ProtocolEngine(ProtocolEngineConfig config, CacheStore& cache, DirectorySummary* summary,
                   const PeerDirectory* peers)
        : config_(config),
          cache_(cache),
          summary_(summary),
          peers_(peers),
          batcher_(config.batching) {}

    [[nodiscard]] std::uint32_t id() const { return config_.node_id; }
    [[nodiscard]] CacheStore& cache() { return cache_; }
    [[nodiscard]] DeltaBatcher& batcher() { return batcher_; }
    [[nodiscard]] DirectorySummary* summary() { return summary_; }

    // --- step 1: local lookup --------------------------------------------
    [[nodiscard]] CacheStore::Lookup lookup_local(std::string_view url,
                                                  std::uint64_t version) {
        return cache_.lookup(url, version);
    }

    // --- step 2: peer-digest probe ---------------------------------------
    [[nodiscard]] std::vector<std::uint32_t> probe(std::string_view url) const {
        return peers_ != nullptr ? peers_->promising_peers(url)
                                 : std::vector<std::uint32_t>{};
    }

    // --- step 3: the query round -----------------------------------------
    /// Summary protocol: probe candidates ONE AT A TIME (the Squid
    /// cache-digest behaviour the paper's message accounting reflects). An
    /// "absent" answer is a wasted query and probing moves on; "fresh"
    /// wins the round; "stale" ends it — the document comes from the
    /// origin. `ask(peer)` performs the actual query.
    template <typename AskFn>
    RoundOutcome run_sequential_round(const std::vector<std::uint32_t>& candidates,
                                      AskFn&& ask) {
        RoundOutcome out;
        for (const std::uint32_t peer : candidates) {
            ++out.queries;
            switch (ask(peer)) {
                case PeerAnswer::absent:
                    ++out.wasted_queries;  // summary lied about this peer
                    continue;
                case PeerAnswer::fresh:
                    out.winner = peer;
                    return out;
                case PeerAnswer::stale:
                    out.stale_ended = true;
                    return out;
            }
        }
        return out;
    }

    /// Classic ICP: the query goes to every candidate at once and every
    /// reply comes back; the first fresh answer (in candidate order) wins.
    template <typename AskFn>
    RoundOutcome run_multicast_round(const std::vector<std::uint32_t>& candidates,
                                     AskFn&& ask) {
        RoundOutcome out;
        out.queries = candidates.size();
        for (const std::uint32_t peer : candidates) {
            switch (ask(peer)) {
                case PeerAnswer::absent: continue;
                case PeerAnswer::fresh: out.winner = peer; return out;
                case PeerAnswer::stale: out.stale_ended = true; continue;
            }
        }
        return out;
    }

    // --- step 4: insert --------------------------------------------------
    /// Admit a fetched document into the local cache. Returns whether the
    /// cache accepted it; every accepted document counts toward the
    /// update-delay threshold (the directory summary itself is mirrored by
    /// the cache hooks, not here).
    bool admit(std::string_view url, std::uint64_t size, std::uint64_t version) {
        const bool inserted = cache_.insert(url, size, version);
        if (inserted) batcher_.on_new_document();
        return inserted;
    }

    // --- step 5: directory maintenance -----------------------------------
    /// If the update threshold is crossed (and this caller wins the flush
    /// epoch), run `flush()` to encode/apply the pending changes and
    /// return its result plus the batch size. `flush` runs outside any
    /// cache lock and may call back into the cache. No other caller can
    /// win a flush until `flush` returns, so a flush that also sends its
    /// batch puts batches on the wire in order.
    template <typename FlushFn>
    auto maybe_flush(double now, FlushFn&& flush)
        -> std::optional<std::pair<decltype(flush()), std::uint64_t>> {
        const std::uint64_t pending =
            batcher_.config().min_update_changes > 0 && summary_ != nullptr
                ? summary_->pending_changes()
                : batcher_.config().min_update_changes;  // floor self-satisfied
        const auto batch = batcher_.try_begin_flush(cache_.document_count(), now, pending);
        if (!batch) return std::nullopt;
        auto result = flush();
        batcher_.finish_flush(now, *batch);
        return std::make_pair(std::move(result), *batch);
    }

    /// The simulators' flush: snapshot the own summary's published view
    /// and report the one-peer wire cost (cheaper of delta / full, §VI-A).
    std::optional<PublishOutcome> maybe_publish(double now) {
        auto flushed = maybe_flush(now, [this] { return summary_->publish(); });
        if (!flushed) return std::nullopt;
        return PublishOutcome{flushed->first, flushed->second};
    }

private:
    ProtocolEngineConfig config_;
    CacheStore& cache_;
    DirectorySummary* summary_;
    const PeerDirectory* peers_;
    DeltaBatcher batcher_;
};

}  // namespace sc::core

// Proxy document cache with the replacement policy of Section II:
// least-recently-used eviction under a byte capacity, documents larger
// than 250 KB never cached, and perfect consistency modeled by treating a
// hit on a document whose last-modified stamp (version) changed as a miss.
//
// Eviction/insert/erase hooks let the owning proxy mirror the directory
// into its counting Bloom filter or other summary representation.
//
// Sharding: the cache is split into `config.shards` (a power of two)
// independent shards, each with its own mutex, LRU list, index, and byte
// budget (capacity_bytes / shards). A URL always lands in the shard its
// hash selects, so workers touching different URLs contend only when they
// collide on a shard. `shards = 1` (the default, used by every simulator)
// is exactly the historical single-list cache: one global LRU order, one
// global byte budget, identical eviction sequence. With more shards the
// LRU order and budget are per-shard — eviction order is only LRU within
// a shard, which is why byte-identical repro runs pin shards = 1.
//
// Thread safety: every public method takes the target shard's mutex, so a
// cache can be shared by the proxy's worker pool without external locking
// (`bench/micro_primitives` measures the contended cost; the
// `sc_cache_shard_lock_wait` histogram records waits observed in
// production). Hooks run under a shard mutex: they must not call back
// into the cache, and any lock they take must be a LEAF lock — one under
// which no code path calls back into the cache or takes further locks.
// SummaryCacheNode's local-filter mutex is the canonical example: the
// proxy's hooks write the counting filter under it, and because nothing
// is called while it is held, flush callbacks may call back into the
// cache safely. See docs/PROTOCOL.md "Locking" and
// tests/core/delta_batcher_test.cpp (deadlock regression).
// All accessors return copies (`entry_copy`, `lru_entry`); no pointer
// into cache-owned storage escapes a shard lock.
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "cache/cache_store.hpp"
#include "util/thread_annotations.hpp"

namespace sc {

/// 250 KB in the paper's sense (decimal kilobytes, as proxies configured).
inline constexpr std::uint64_t kDefaultMaxObjectBytes = 250'000;

struct LruCacheConfig {
    std::uint64_t capacity_bytes = 0;
    std::uint64_t max_object_bytes = kDefaultMaxObjectBytes;
    /// Number of independent shards; must be a power of two. 1 (the
    /// default) preserves the historical single-list LRU exactly.
    std::size_t shards = 1;
};

class LruCache final : public CacheStore {
public:
    using Lookup = CacheStore::Lookup;
    using Entry = CacheStore::Entry;

    /// Called with the entry being removed — fires for every removal
    /// (evictions, explicit erase, stale replacement).
    using RemovalHook = CacheStore::EntryHook;

    explicit LruCache(LruCacheConfig config);

    /// Look up `url` expecting `version`; promotes to MRU on hit. A version
    /// mismatch removes the stale entry and reports miss_changed.
    Lookup lookup(std::string_view url, std::uint64_t version) override;

    /// Does the directory contain the URL (any version)? No promotion.
    [[nodiscard]] bool contains(std::string_view url) const override;

    /// Version of a cached URL, if present. No promotion.
    [[nodiscard]] std::optional<std::uint64_t> cached_version(
        std::string_view url) const override;

    /// Copy of the entry for a cached URL, if present. No promotion.
    [[nodiscard]] std::optional<Entry> entry_copy(std::string_view url) const override;

    /// Insert (or refresh) a document as MRU, evicting LRU entries as
    /// needed. Returns false — and caches nothing — if the document
    /// exceeds max_object_bytes or its shard's byte budget
    /// (capacity_bytes / shards; the whole capacity when shards == 1).
    bool insert(std::string_view url, std::uint64_t size, std::uint64_t version) override;

    /// Promote an entry to MRU without a version check (the single-copy
    /// sharing scheme does this on remote hits instead of copying).
    void touch(std::string_view url) override;

    /// Remove an entry if present. Returns true if something was removed.
    bool erase(std::string_view url) override;

    /// Hooks are shared by all shards; setting one locks every shard, so
    /// install hooks before concurrent use (or accept the stall).
    void set_removal_hook(RemovalHook hook) override;
    void set_insert_hook(EntryHook hook) override;

    [[nodiscard]] std::uint64_t used_bytes() const override;
    [[nodiscard]] std::uint64_t capacity_bytes() const override {
        return config_.capacity_bytes;
    }
    [[nodiscard]] std::size_t document_count() const override;
    [[nodiscard]] const LruCacheConfig& config() const { return config_; }
    [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }

    /// Copy of the least-recently-used entry (eviction candidate), if any.
    /// With shards == 1 this is THE global LRU entry; with more shards it
    /// is the LRU of the lowest-numbered non-empty shard (each shard
    /// evicts independently, so no single global candidate exists).
    [[nodiscard]] std::optional<Entry> lru_entry() const;

    /// Iterate all entries, shard by shard, MRU to LRU within each shard
    /// (the full MRU→LRU order when shards == 1). Runs under each shard's
    /// mutex in turn: fn must not call back into the cache.
    template <typename Fn>
    void for_each(Fn&& fn) const {
        for (const Shard& s : shards_) {
            const MutexLock lock(s.mu);
            for (const Entry& e : s.order) fn(e);
        }
    }

    /// CacheStore iteration — delegates to for_each (same locking rules).
    void for_each_entry(const EntryHook& fn) const override { for_each(fn); }

    /// Cumulative eviction count across all shards.
    [[nodiscard]] std::uint64_t eviction_count() const;

private:
    using List = std::list<Entry>;

    struct Shard {
        mutable Mutex mu;
        List order SC_GUARDED_BY(mu);  // front = MRU, back = LRU
        // keys view into list nodes
        std::unordered_map<std::string_view, List::iterator> index SC_GUARDED_BY(mu);
        std::uint64_t capacity = 0;  ///< this shard's byte budget (set once, pre-thread)
        std::uint64_t used_bytes SC_GUARDED_BY(mu) = 0;
        std::uint64_t evictions SC_GUARDED_BY(mu) = 0;
    };

    [[nodiscard]] Shard& shard_for(std::string_view url);
    [[nodiscard]] const Shard& shard_for(std::string_view url) const;

    /// Lock a shard, recording the wait in sc_cache_shard_lock_wait when
    /// the fast try_lock loses (the uncontended path stays untimed).
    /// Returned by value: guaranteed copy elision hands the held scoped
    /// capability to the caller, which the analysis tracks via SC_ACQUIRE.
    [[nodiscard]] static MutexLock lock_shard(const Shard& shard) SC_ACQUIRE(shard.mu);

    void remove(Shard& shard, List::iterator it, bool is_eviction) SC_REQUIRES(shard.mu);
    void evict_until_fits(Shard& shard, std::uint64_t incoming) SC_REQUIRES(shard.mu);

    LruCacheConfig config_;
    std::vector<Shard> shards_;   // size is a power of two, never resized
    std::size_t shard_mask_ = 0;  // shards_.size() - 1
    // Hooks are read under any ONE shard's mutex and written only with ALL
    // shard mutexes held — a quorum rule the TSA cannot express, so the
    // two writers carry SC_NO_THREAD_SAFETY_ANALYSIS (see the .cpp).
    RemovalHook on_remove_;
    EntryHook on_insert_;
};

}  // namespace sc

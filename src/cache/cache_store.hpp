// Abstract document-cache directory interface.
//
// The protocol engine (src/core/protocol_engine.hpp) and the live proxy
// talk to the cache through this interface so that the concrete store can
// be swapped — today a single mutex-protected LruCache, later a sharded
// implementation — without touching the protocol layers.
//
// Hook discipline (shared by every implementation): hooks run under the
// store's internal lock(s) and must not call back into the store; any
// lock a hook takes must be a leaf lock (see docs/PROTOCOL.md "Locking").
// SummaryCacheNode's on_cache_insert / on_cache_erase satisfy this by
// design.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>

namespace sc {

class CacheStore {
public:
    enum class Lookup {
        hit,              ///< present with matching version
        miss_absent,      ///< not in cache
        miss_changed,     ///< present but version differs (stale; evicted)
    };

    struct Entry {
        std::string url;
        std::uint64_t size = 0;
        std::uint64_t version = 0;
    };

    using EntryHook = std::function<void(const Entry&)>;

    virtual ~CacheStore() = default;

    /// Look up `url` expecting `version`; promotes on hit. A version
    /// mismatch removes the stale entry and reports miss_changed.
    virtual Lookup lookup(std::string_view url, std::uint64_t version) = 0;

    /// Does the directory contain the URL (any version)? No promotion.
    [[nodiscard]] virtual bool contains(std::string_view url) const = 0;

    /// Version of a cached URL, if present. No promotion.
    [[nodiscard]] virtual std::optional<std::uint64_t> cached_version(
        std::string_view url) const = 0;

    /// Copy of the entry for a cached URL, if present. No promotion.
    [[nodiscard]] virtual std::optional<Entry> entry_copy(std::string_view url) const = 0;

    /// Insert (or refresh) a document, evicting as needed. Returns false —
    /// and caches nothing — if the document cannot be admitted.
    virtual bool insert(std::string_view url, std::uint64_t size, std::uint64_t version) = 0;

    /// Promote an entry without a version check (single-copy sharing does
    /// this on remote hits instead of copying).
    virtual void touch(std::string_view url) = 0;

    /// Remove an entry if present. Returns true if something was removed.
    virtual bool erase(std::string_view url) = 0;

    /// Fires for every brand-new directory entry (not refreshes).
    virtual void set_insert_hook(EntryHook hook) = 0;

    /// Fires for every removal (evictions, explicit erase, stale replacement).
    virtual void set_removal_hook(EntryHook hook) = 0;

    /// Visit every directory entry (order is implementation-defined). Runs
    /// under the store's internal lock(s): `fn` must not call back into the
    /// store. This is the warm-restart path — SummaryCacheNode rebuilds its
    /// counting Bloom filter by walking a recovered directory.
    virtual void for_each_entry(const EntryHook& fn) const = 0;

    [[nodiscard]] virtual std::size_t document_count() const = 0;
    [[nodiscard]] virtual std::uint64_t used_bytes() const = 0;
    [[nodiscard]] virtual std::uint64_t capacity_bytes() const = 0;
};

}  // namespace sc

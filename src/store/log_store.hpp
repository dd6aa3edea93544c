// Log-structured persistent CacheStore (docs/STORAGE.md).
//
// The store is a *directory* on disk: append-only segment files carrying
// framed, checksummed insert/erase/touch records (segment_log.hpp), plus a
// RAM hash index + LRU list rebuilt from the log. Document bodies are never
// stored — like the paper's per-proxy directory, what must survive a crash
// is WHICH urls the cache holds (and their version/size), because that is
// exactly what the advertised Bloom summary is derived from. Warm restart
// replays the log, truncates a torn tail at the first bad checksum, and
// hands the recovered entries to SummaryCacheNode::rebuild_from_directory
// so the node re-advertises a truthful summary instead of an empty one.
//
// Locking (two locks, fixed order io_mu_ -> index_mu_):
//   * io_mu_    — segment writer, rotation, compaction, fsync pacing.
//   * index_mu_ — RAM index, LRU list, per-segment live-byte accounting.
// Mutators take io_mu_ then index_mu_; readers (lookup-free probes:
// contains / cached_version / entry_copy / counts) take only index_mu_, so
// a reader never waits behind an fsync. Hooks fire under both locks and
// must only take leaf locks (CacheStore contract).
//
// Compaction: segments seal at segment_target_bytes; a background thread
// rewrites the OLDEST sealed segment's still-live entries into the current
// log and deletes the file once its live ratio drops below
// compact_live_ratio. Oldest-first is what makes dropping tombstones safe:
// no older segment exists whose records an erased-in-this-segment url
// could resurrect through.
#pragma once

#include <cstdint>
#include <list>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>

#include "cache/cache_store.hpp"
#include "obs/metrics.hpp"
#include "store/segment_log.hpp"
#include "util/thread_annotations.hpp"

namespace sc::store {

struct LogStoreConfig {
    std::string dir;                    ///< segment directory (created with its parents)
    std::uint64_t capacity_bytes = 0;   ///< sum of entry sizes, like LruCache
    std::uint64_t max_object_bytes = 250'000;  ///< paper's hit-object cutoff
    std::uint64_t segment_target_bytes = 4ull * 1024 * 1024;
    double compact_live_ratio = 0.5;    ///< compact oldest sealed segment below this
    std::uint64_t fsync_interval_bytes = 1ull * 1024 * 1024;
    bool background_compaction = true;  ///< false = tests drive compact_once()
};

class LogStructuredStore final : public CacheStore {
public:
    /// Opens (creating the directory and its parents if needed) and
    /// recovers the log. Throws std::system_error naming the directory
    /// when it cannot be created.
    explicit LogStructuredStore(LogStoreConfig config);
    ~LogStructuredStore() override;

    // CacheStore ----------------------------------------------------------
    Lookup lookup(std::string_view url, std::uint64_t version) override
        SC_EXCLUDES(io_mu_, index_mu_);
    [[nodiscard]] bool contains(std::string_view url) const override SC_EXCLUDES(index_mu_);
    [[nodiscard]] std::optional<std::uint64_t> cached_version(std::string_view url) const
        override SC_EXCLUDES(index_mu_);
    [[nodiscard]] std::optional<Entry> entry_copy(std::string_view url) const override
        SC_EXCLUDES(index_mu_);
    bool insert(std::string_view url, std::uint64_t size, std::uint64_t version) override
        SC_EXCLUDES(io_mu_, index_mu_);
    void touch(std::string_view url) override SC_EXCLUDES(io_mu_, index_mu_);
    bool erase(std::string_view url) override SC_EXCLUDES(io_mu_, index_mu_);
    void set_insert_hook(EntryHook hook) override SC_EXCLUDES(io_mu_, index_mu_);
    void set_removal_hook(EntryHook hook) override SC_EXCLUDES(io_mu_, index_mu_);
    void for_each_entry(const EntryHook& fn) const override SC_EXCLUDES(index_mu_);
    [[nodiscard]] std::size_t document_count() const override SC_EXCLUDES(index_mu_);
    [[nodiscard]] std::uint64_t used_bytes() const override SC_EXCLUDES(index_mu_);
    [[nodiscard]] std::uint64_t capacity_bytes() const override;

    // Store-specific ------------------------------------------------------

    /// Entries replayed alive from the log at construction.
    [[nodiscard]] std::size_t recovered_entries() const { return recovered_entries_; }

    /// fdatasync the current segment now (shutdown, tests).
    void flush() SC_EXCLUDES(io_mu_, index_mu_);

    /// Compact the oldest sealed segment if its live ratio is below the
    /// threshold (or unconditionally with force=true). Returns true if a
    /// segment was rewritten and deleted.
    bool compact_once(bool force = false) SC_EXCLUDES(io_mu_, index_mu_);

    /// Sealed + current segment count (same value as sc_store_segments).
    [[nodiscard]] std::size_t segment_count() const SC_EXCLUDES(index_mu_);

private:
    struct IndexEntry {
        std::string url;
        std::uint64_t size = 0;
        std::uint64_t version = 0;
        std::uint64_t seq = 0;         ///< winning record's sequence number
        std::uint64_t segment_id = 0;  ///< segment holding the winning record
        std::uint32_t record_bytes = 0;
    };
    using LruList = std::list<IndexEntry>;

    struct SegmentStats {
        std::uint64_t total_bytes = 0;  ///< file bytes incl. header
        std::uint64_t live_bytes = 0;   ///< bytes of winning records of live entries
    };

    void recover() SC_REQUIRES(io_mu_, index_mu_);
    void append_locked(const Record& rec) SC_REQUIRES(io_mu_);
    void rotate_segment_locked() SC_REQUIRES(io_mu_, index_mu_);
    void maybe_rotate_and_sync_locked() SC_REQUIRES(io_mu_, index_mu_);
    /// Log a record for `it` (touch/re-insert), moving its live bytes to
    /// the current segment and stamping a fresh seq.
    void relog_locked(LruList::iterator it, RecordType type) SC_REQUIRES(io_mu_, index_mu_);
    void evict_until_fits_locked(std::uint64_t incoming) SC_REQUIRES(io_mu_, index_mu_);
    void remove_entry_locked(LruList::iterator it) SC_REQUIRES(io_mu_, index_mu_);
    void compaction_main();

    const LogStoreConfig config_;
    std::size_t recovered_entries_ = 0;  // set once in ctor, then read-only

    mutable Mutex io_mu_ SC_ACQUIRED_BEFORE(index_mu_);
    SegmentWriter writer_ SC_GUARDED_BY(io_mu_);
    std::uint64_t next_segment_id_ SC_GUARDED_BY(io_mu_) = 0;
    std::uint64_t unsynced_bytes_ SC_GUARDED_BY(io_mu_) = 0;
    std::string encode_buf_ SC_GUARDED_BY(io_mu_);

    mutable Mutex index_mu_;
    LruList lru_ SC_GUARDED_BY(index_mu_);  // front = MRU
    std::unordered_map<std::string_view, LruList::iterator> index_ SC_GUARDED_BY(index_mu_);
    std::unordered_map<std::uint64_t, SegmentStats> segments_ SC_GUARDED_BY(index_mu_);
    std::uint64_t used_bytes_ SC_GUARDED_BY(index_mu_) = 0;
    std::uint64_t next_seq_ SC_GUARDED_BY(index_mu_) = 1;
    EntryHook insert_hook_ SC_GUARDED_BY(index_mu_);
    EntryHook removal_hook_ SC_GUARDED_BY(index_mu_);

    // Background compaction: kicked after every rotation, exits on stop.
    Mutex compact_mu_;
    CondVar compact_cv_;
    bool compact_kick_ SC_GUARDED_BY(compact_mu_) = false;
    bool stop_ SC_GUARDED_BY(compact_mu_) = false;
    std::thread compactor_;

    obs::Gauge segments_gauge_;
    obs::Counter recovered_total_;
    obs::Counter compactions_total_;
    obs::Histogram fsync_seconds_;
    obs::Histogram recovery_read_seconds_;
};

}  // namespace sc::store

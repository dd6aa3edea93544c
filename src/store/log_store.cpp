#include "store/log_store.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <dirent.h>
#include <filesystem>
#include <system_error>

#include "util/sc_assert.hpp"

namespace sc::store {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/// List segment ids present in `dir`, ascending.
std::vector<std::uint64_t> list_segment_ids(const std::string& dir) {
    std::vector<std::uint64_t> ids;
    DIR* d = ::opendir(dir.c_str());
    if (d == nullptr) return ids;
    while (const dirent* ent = ::readdir(d)) {
        if (const auto id = parse_segment_file_name(ent->d_name)) ids.push_back(*id);
    }
    ::closedir(d);
    std::sort(ids.begin(), ids.end());
    return ids;
}

void truncate_file(const std::string& path, std::uint64_t len) {
    const int fd = ::open(path.c_str(), O_WRONLY | O_CLOEXEC);
    if (fd < 0) return;
    while (::ftruncate(fd, static_cast<off_t>(len)) < 0 && errno == EINTR) {}
    ::close(fd);
}

}  // namespace

LogStructuredStore::LogStructuredStore(LogStoreConfig config) : config_(std::move(config)) {
    SC_ASSERT(!config_.dir.empty());
    SC_ASSERT(config_.capacity_bytes > 0);
    SC_ASSERT(config_.segment_target_bytes > kSegmentHeaderBytes);

    const obs::Labels labels{{"dir", config_.dir}};
    segments_gauge_ = obs::metrics().gauge(
        "sc_store_segments", "Log segments on disk (sealed + current)", labels);
    recovered_total_ = obs::metrics().counter(
        "sc_store_recovered_entries_total",
        "Directory entries replayed alive from the log at warm restart", labels);
    compactions_total_ = obs::metrics().counter(
        "sc_store_compactions_total", "Sealed segments rewritten and deleted", labels);
    fsync_seconds_ = obs::metrics().histogram(
        "sc_store_fsync_seconds", "Segment fdatasync latency",
        obs::default_latency_bounds(), labels);
    recovery_read_seconds_ = obs::metrics().histogram(
        "sc_store_recovery_read_seconds", "Warm-restart sequential segment scan time",
        obs::default_latency_bounds(), labels);

    // Parents too. A path that cannot become a directory fails here, with
    // its name, instead of at the first segment rotation.
    std::error_code ec;
    std::filesystem::create_directories(config_.dir, ec);
    if (ec) throw std::system_error(ec, "cannot create disk directory '" + config_.dir + "'");

    {
        const MutexLock io(io_mu_);
        const MutexLock ix(index_mu_);
        recover();
    }
    if (config_.background_compaction)
        compactor_ = std::thread([this] { compaction_main(); });
}

LogStructuredStore::~LogStructuredStore() {
    if (compactor_.joinable()) {
        {
            const MutexLock lock(compact_mu_);
            stop_ = true;
        }
        compact_cv_.notify_all();
        compactor_.join();
    }
    const MutexLock io(io_mu_);
    if (writer_.is_open()) (void)writer_.sync();
}

void LogStructuredStore::recover() {
    const auto start = Clock::now();
    const std::vector<std::uint64_t> ids = list_segment_ids(config_.dir);

    // Replay state: last-writer-wins by seq (compaction preserves seq, so a
    // crash between "rewrite" and "unlink old segment" leaves the same seq
    // in two files; >= lets the later scan — the rewritten, surviving copy —
    // claim the entry's live bytes).
    struct Replayed {
        RecordType type;
        std::uint64_t seq, size, version, segment_id;
        std::uint32_t record_bytes;
    };
    std::unordered_map<std::string, Replayed> replay;
    std::uint64_t max_seq = 0;

    for (const std::uint64_t id : ids) {
        const std::string path = config_.dir + "/" + segment_file_name(id);
        ScanResult scan = scan_segment(path);
        if (!scan.header_ok) {
            // Missing/foreign/truncated header: no frame is trustworthy.
            ::unlink(path.c_str());
            continue;
        }
        if (scan.torn) truncate_file(path, scan.valid_bytes);
        segments_[id] = SegmentStats{scan.valid_bytes, 0};
        for (Record& rec : scan.records) {
            max_seq = std::max(max_seq, rec.seq);
            const auto bytes =
                static_cast<std::uint32_t>(encoded_record_bytes(rec.url.size()));
            auto [it, inserted] = replay.try_emplace(
                std::move(rec.url),
                Replayed{rec.type, rec.seq, rec.size, rec.version, id, bytes});
            if (!inserted && rec.seq >= it->second.seq)
                it->second = Replayed{rec.type, rec.seq, rec.size, rec.version, id, bytes};
        }
    }

    // Materialize live entries oldest-seq first so the LRU list front ends
    // up at the highest seq (most recently touched before the crash).
    std::vector<std::pair<std::uint64_t, const std::string*>> live;
    for (const auto& [url, rep] : replay)
        if (rep.type != RecordType::erase) live.emplace_back(rep.seq, &url);
    std::sort(live.begin(), live.end());
    for (const auto& [seq, url] : live) {
        const Replayed& rep = replay.at(*url);
        lru_.push_front(IndexEntry{*url, rep.size, rep.version, rep.seq, rep.segment_id,
                                   rep.record_bytes});
        index_.emplace(std::string_view(lru_.front().url), lru_.begin());
        segments_[rep.segment_id].live_bytes += rep.record_bytes;
        used_bytes_ += rep.size;
    }
    recovered_entries_ = live.size();
    recovered_total_.inc(live.size());
    next_seq_ = max_seq + 1;

    // Always start a fresh segment: never append to a possibly-truncated
    // tail, and recovery-time evictions need somewhere to log tombstones.
    next_segment_id_ = ids.empty() ? 0 : ids.back() + 1;
    rotate_segment_locked();

    // Capacity may have shrunk across the restart (or the recovered set may
    // simply exceed it): shed LRU entries now, through the normal logged path.
    evict_until_fits_locked(0);

    recovery_read_seconds_.observe(seconds_since(start));
    segments_gauge_.set(static_cast<double>(segments_.size()));
}

void LogStructuredStore::append_locked(const Record& rec) {
    encode_buf_.clear();
    encode_record(encode_buf_, rec);
    if (!writer_.append(encode_buf_.data(), encode_buf_.size())) {
        // Disk write failed: the RAM index stays authoritative for the
        // running process; recovery after a crash may lose this op.
        return;
    }
    unsynced_bytes_ += encode_buf_.size();
}

void LogStructuredStore::rotate_segment_locked() {
    if (writer_.is_open()) {
        const auto start = Clock::now();
        (void)writer_.sync();
        fsync_seconds_.observe(seconds_since(start));
        unsynced_bytes_ = 0;
    }
    const std::uint64_t id = next_segment_id_++;
    const std::string path = config_.dir + "/" + segment_file_name(id);
    const bool ok = writer_.create(path, id);
    SC_ASSERT(ok);
    segments_[id] = SegmentStats{kSegmentHeaderBytes, 0};
    segments_gauge_.set(static_cast<double>(segments_.size()));
}

void LogStructuredStore::maybe_rotate_and_sync_locked() {
    segments_[writer_.segment_id()].total_bytes = writer_.bytes_written();
    if (writer_.bytes_written() >= config_.segment_target_bytes) {
        rotate_segment_locked();
        {
            const MutexLock lock(compact_mu_);
            compact_kick_ = true;
        }
        compact_cv_.notify_one();
        return;
    }
    if (unsynced_bytes_ >= config_.fsync_interval_bytes) {
        const auto start = Clock::now();
        (void)writer_.sync();
        fsync_seconds_.observe(seconds_since(start));
        unsynced_bytes_ = 0;
    }
}

void LogStructuredStore::relog_locked(LruList::iterator it, RecordType type) {
    Record rec{type, next_seq_++, it->size, it->version, it->url};
    segments_[it->segment_id].live_bytes -= it->record_bytes;
    it->seq = rec.seq;
    it->segment_id = writer_.segment_id();
    it->record_bytes = static_cast<std::uint32_t>(encoded_record_bytes(it->url.size()));
    append_locked(rec);
    segments_[it->segment_id].live_bytes += it->record_bytes;
    maybe_rotate_and_sync_locked();
}

void LogStructuredStore::remove_entry_locked(LruList::iterator it) {
    append_locked(Record{RecordType::erase, next_seq_++, it->size, it->version, it->url});
    segments_[it->segment_id].live_bytes -= it->record_bytes;
    if (removal_hook_) removal_hook_(Entry{it->url, it->size, it->version});
    used_bytes_ -= it->size;
    index_.erase(std::string_view(it->url));
    lru_.erase(it);
    maybe_rotate_and_sync_locked();
}

void LogStructuredStore::evict_until_fits_locked(std::uint64_t incoming) {
    SC_ASSERT(incoming <= config_.capacity_bytes);
    while (used_bytes_ + incoming > config_.capacity_bytes) {
        SC_ASSERT(!lru_.empty());
        remove_entry_locked(std::prev(lru_.end()));
    }
}

CacheStore::Lookup LogStructuredStore::lookup(std::string_view url, std::uint64_t version) {
    const MutexLock io(io_mu_);
    const MutexLock ix(index_mu_);
    const auto it = index_.find(url);
    if (it == index_.end()) return Lookup::miss_absent;
    if (it->second->version != version) {
        remove_entry_locked(it->second);
        return Lookup::miss_changed;
    }
    lru_.splice(lru_.begin(), lru_, it->second);
    relog_locked(lru_.begin(), RecordType::touch);
    return Lookup::hit;
}

bool LogStructuredStore::contains(std::string_view url) const {
    const MutexLock lock(index_mu_);
    return index_.contains(url);
}

std::optional<std::uint64_t> LogStructuredStore::cached_version(std::string_view url) const {
    const MutexLock lock(index_mu_);
    const auto it = index_.find(url);
    if (it == index_.end()) return std::nullopt;
    return it->second->version;
}

std::optional<CacheStore::Entry> LogStructuredStore::entry_copy(std::string_view url) const {
    const MutexLock lock(index_mu_);
    const auto it = index_.find(url);
    if (it == index_.end()) return std::nullopt;
    return Entry{it->second->url, it->second->size, it->second->version};
}

bool LogStructuredStore::insert(std::string_view url, std::uint64_t size,
                                std::uint64_t version) {
    const MutexLock io(io_mu_);
    const MutexLock ix(index_mu_);
    if (size > config_.max_object_bytes || size > config_.capacity_bytes) return false;
    if (const auto it = index_.find(url); it != index_.end()) {
        // Refresh in place: adjust bytes, update version, promote, re-log.
        used_bytes_ -= it->second->size;
        it->second->size = size;
        it->second->version = version;
        lru_.splice(lru_.begin(), lru_, it->second);
        evict_until_fits_locked(size);
        used_bytes_ += size;
        relog_locked(lru_.begin(), RecordType::insert);
        return true;
    }
    evict_until_fits_locked(size);
    lru_.push_front(IndexEntry{std::string(url), size, version, next_seq_++,
                               writer_.segment_id(),
                               static_cast<std::uint32_t>(encoded_record_bytes(url.size()))});
    index_.emplace(std::string_view(lru_.front().url), lru_.begin());
    segments_[writer_.segment_id()].live_bytes += lru_.front().record_bytes;
    used_bytes_ += size;
    append_locked(
        Record{RecordType::insert, lru_.front().seq, size, version, lru_.front().url});
    if (insert_hook_) insert_hook_(Entry{lru_.front().url, size, version});
    maybe_rotate_and_sync_locked();
    return true;
}

void LogStructuredStore::touch(std::string_view url) {
    const MutexLock io(io_mu_);
    const MutexLock ix(index_mu_);
    const auto it = index_.find(url);
    if (it == index_.end()) return;
    lru_.splice(lru_.begin(), lru_, it->second);
    relog_locked(lru_.begin(), RecordType::touch);
}

bool LogStructuredStore::erase(std::string_view url) {
    const MutexLock io(io_mu_);
    const MutexLock ix(index_mu_);
    const auto it = index_.find(url);
    if (it == index_.end()) return false;
    remove_entry_locked(it->second);
    return true;
}

void LogStructuredStore::set_insert_hook(EntryHook hook) {
    const MutexLock io(io_mu_);
    const MutexLock ix(index_mu_);
    insert_hook_ = std::move(hook);
}

void LogStructuredStore::set_removal_hook(EntryHook hook) {
    const MutexLock io(io_mu_);
    const MutexLock ix(index_mu_);
    removal_hook_ = std::move(hook);
}

void LogStructuredStore::for_each_entry(const EntryHook& fn) const {
    const MutexLock lock(index_mu_);
    for (const IndexEntry& e : lru_) fn(Entry{e.url, e.size, e.version});
}

std::size_t LogStructuredStore::document_count() const {
    const MutexLock lock(index_mu_);
    return index_.size();
}

std::uint64_t LogStructuredStore::used_bytes() const {
    const MutexLock lock(index_mu_);
    return used_bytes_;
}

std::uint64_t LogStructuredStore::capacity_bytes() const { return config_.capacity_bytes; }

void LogStructuredStore::flush() {
    const MutexLock io(io_mu_);
    if (!writer_.is_open()) return;
    const auto start = Clock::now();
    (void)writer_.sync();
    fsync_seconds_.observe(seconds_since(start));
    unsynced_bytes_ = 0;
}

std::size_t LogStructuredStore::segment_count() const {
    const MutexLock lock(index_mu_);
    return segments_.size();
}

bool LogStructuredStore::compact_once(bool force) {
    const MutexLock io(io_mu_);
    const MutexLock ix(index_mu_);

    // Oldest sealed segment (never the one being appended to). Oldest-first
    // is the tombstone-safety invariant: an erase record here cannot be
    // shadowing an insert in some even-older segment, so dropping it is safe.
    const std::uint64_t current = writer_.segment_id();
    std::uint64_t victim = current;
    for (const auto& [id, stats] : segments_)
        if (id != current && id < victim) victim = id;
    if (victim == current) return false;

    const SegmentStats stats = segments_.at(victim);
    const double live_ratio =
        stats.total_bytes == 0
            ? 0.0
            : static_cast<double>(stats.live_bytes) / static_cast<double>(stats.total_bytes);
    if (!force && live_ratio >= config_.compact_live_ratio) return false;
    // A fully-live victim would reclaim nothing but its header: skip it
    // unless forced. (Also what lets the drain loop converge at
    // compact_live_ratio = 1.0 — the ratio never reaches 1.0 because the
    // header bytes are never live, so the threshold alone can't say stop.)
    if (!force && stats.live_bytes + kSegmentHeaderBytes >= stats.total_bytes) return false;

    // Rewrite every still-live entry whose winning record sits in the
    // victim into the current segment, PRESERVING seq so replay order and
    // recovered recency are unchanged by compaction.
    for (auto it = lru_.begin(); it != lru_.end(); ++it) {
        if (it->segment_id != victim) continue;
        append_locked(Record{RecordType::insert, it->seq, it->size, it->version, it->url});
        segments_[victim].live_bytes -= it->record_bytes;
        it->segment_id = writer_.segment_id();
        it->record_bytes = static_cast<std::uint32_t>(encoded_record_bytes(it->url.size()));
        segments_[writer_.segment_id()].live_bytes += it->record_bytes;
        segments_[writer_.segment_id()].total_bytes = writer_.bytes_written();
    }

    // The rewrites must be durable before the old copies vanish.
    const auto start = Clock::now();
    (void)writer_.sync();
    fsync_seconds_.observe(seconds_since(start));
    unsynced_bytes_ = 0;

    ::unlink((config_.dir + "/" + segment_file_name(victim)).c_str());
    segments_.erase(victim);
    compactions_total_.inc();
    segments_gauge_.set(static_cast<double>(segments_.size()));

    // The rewrite may have pushed the current segment past its target.
    maybe_rotate_and_sync_locked();
    return true;
}

void LogStructuredStore::compaction_main() {
    using namespace std::chrono_literals;
    for (;;) {
        {
            MutexLock lock(compact_mu_);
            while (!stop_ && !compact_kick_) {
                // Periodic poll: erase-driven live-ratio decay happens
                // without a rotation kick.
                if (compact_cv_.wait_until(lock, Clock::now() + 500ms) ==
                    std::cv_status::timeout)
                    break;
            }
            if (stop_) return;
            compact_kick_ = false;
        }
        // Drain, rechecking stop between segments so shutdown never waits
        // behind a long compaction backlog.
        while (compact_once(false)) {
            const MutexLock lock(compact_mu_);
            if (stop_) return;
        }
    }
}

}  // namespace sc::store

// LogStructuredStore: in-RAM semantics must mirror LruCache exactly, and
// recovery must survive every crash shape the format promises to handle
// (torn tail, truncated header, duplicate insert/erase replay, zero
// segments). Each test opens a fresh temp directory; "crash" is simulated
// by destroying the store (appends hit the fd immediately, so the file
// state equals what a SIGKILL would leave behind, minus the page cache —
// which recovery never depends on).
#include "store/log_store.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <system_error>
#include <vector>

#include "obs/metrics.hpp"
#include "store/segment_log.hpp"

namespace sc::store {
namespace {

namespace fs = std::filesystem;
using Lookup = CacheStore::Lookup;
using Entry = CacheStore::Entry;

class LogStoreTest : public ::testing::Test {
protected:
    void SetUp() override {
        dir_ = fs::temp_directory_path() /
               ("sc_log_store_" + std::to_string(::getpid()) + "_" +
                ::testing::UnitTest::GetInstance()->current_test_info()->name());
        fs::remove_all(dir_);
    }
    void TearDown() override { fs::remove_all(dir_); }

    [[nodiscard]] LogStoreConfig config(std::uint64_t capacity = 10'000) const {
        LogStoreConfig cfg;
        cfg.dir = dir_.string();
        cfg.capacity_bytes = capacity;
        cfg.background_compaction = false;  // tests drive compact_once()
        return cfg;
    }

    [[nodiscard]] static std::unique_ptr<LogStructuredStore> open(LogStoreConfig cfg) {
        return std::make_unique<LogStructuredStore>(std::move(cfg));
    }

    /// URLs in recency order, front = MRU (for_each_entry visits MRU first).
    [[nodiscard]] static std::vector<std::string> recency_order(const LogStructuredStore& s) {
        std::vector<std::string> urls;
        s.for_each_entry([&](const Entry& e) { urls.push_back(e.url); });
        return urls;
    }

    fs::path dir_;
};

// --- LruCache-mirrored semantics -----------------------------------------

TEST_F(LogStoreTest, InsertLookupEraseRoundTrip) {
    auto store = open(config());
    EXPECT_TRUE(store->insert("http://a/1", 100, 7));
    EXPECT_EQ(store->lookup("http://a/1", 7), Lookup::hit);
    EXPECT_EQ(store->lookup("http://a/2", 7), Lookup::miss_absent);
    EXPECT_TRUE(store->contains("http://a/1"));
    EXPECT_EQ(store->cached_version("http://a/1"), 7u);
    const auto copy = store->entry_copy("http://a/1");
    ASSERT_TRUE(copy.has_value());
    EXPECT_EQ(copy->size, 100u);
    EXPECT_TRUE(store->erase("http://a/1"));
    EXPECT_FALSE(store->erase("http://a/1"));
    EXPECT_EQ(store->document_count(), 0u);
    EXPECT_EQ(store->used_bytes(), 0u);
}

TEST_F(LogStoreTest, VersionMismatchEvictsAndReportsChanged) {
    auto store = open(config());
    ASSERT_TRUE(store->insert("http://a/1", 100, 1));
    EXPECT_EQ(store->lookup("http://a/1", 2), Lookup::miss_changed);
    EXPECT_FALSE(store->contains("http://a/1"));  // stale entry removed
}

TEST_F(LogStoreTest, OversizeObjectsAreRefused) {
    auto cfg = config(10'000);
    cfg.max_object_bytes = 500;
    auto store = open(cfg);
    EXPECT_FALSE(store->insert("http://a/big", 501, 1));
    EXPECT_FALSE(store->insert("http://a/huge", 20'000, 1));
    EXPECT_TRUE(store->insert("http://a/ok", 500, 1));
    EXPECT_EQ(store->document_count(), 1u);
}

TEST_F(LogStoreTest, EvictsFromLruTailUnderPressure) {
    auto store = open(config(300));
    ASSERT_TRUE(store->insert("http://a/1", 100, 1));
    ASSERT_TRUE(store->insert("http://a/2", 100, 1));
    ASSERT_TRUE(store->insert("http://a/3", 100, 1));
    EXPECT_EQ(store->lookup("http://a/1", 1), Lookup::hit);  // promote 1
    ASSERT_TRUE(store->insert("http://a/4", 100, 1));        // evicts 2 (LRU)
    EXPECT_FALSE(store->contains("http://a/2"));
    EXPECT_TRUE(store->contains("http://a/1"));
    EXPECT_TRUE(store->contains("http://a/3"));
    EXPECT_TRUE(store->contains("http://a/4"));
    EXPECT_EQ(store->used_bytes(), 300u);
}

TEST_F(LogStoreTest, RefreshUpdatesBytesWithoutInsertHook) {
    auto store = open(config());
    int inserts = 0, removals = 0;
    store->set_insert_hook([&](const Entry&) { ++inserts; });
    store->set_removal_hook([&](const Entry&) { ++removals; });
    ASSERT_TRUE(store->insert("http://a/1", 100, 1));
    EXPECT_EQ(inserts, 1);
    ASSERT_TRUE(store->insert("http://a/1", 250, 2));  // refresh, not new
    EXPECT_EQ(inserts, 1);
    EXPECT_EQ(removals, 0);
    EXPECT_EQ(store->used_bytes(), 250u);
    EXPECT_EQ(store->cached_version("http://a/1"), 2u);
}

TEST_F(LogStoreTest, RemovalHookFiresForEvictionEraseAndStale) {
    auto store = open(config(200));
    std::vector<std::string> removed;
    store->set_removal_hook([&](const Entry& e) { removed.push_back(e.url); });
    ASSERT_TRUE(store->insert("http://a/1", 100, 1));
    ASSERT_TRUE(store->insert("http://a/2", 100, 1));
    ASSERT_TRUE(store->insert("http://a/3", 100, 1));       // evicts 1
    EXPECT_EQ(store->lookup("http://a/2", 9), Lookup::miss_changed);
    EXPECT_TRUE(store->erase("http://a/3"));
    EXPECT_EQ(removed, (std::vector<std::string>{"http://a/1", "http://a/2", "http://a/3"}));
}

TEST_F(LogStoreTest, TouchPromotesWithoutVersionCheck) {
    auto store = open(config(300));
    ASSERT_TRUE(store->insert("http://a/1", 100, 1));
    ASSERT_TRUE(store->insert("http://a/2", 100, 1));
    ASSERT_TRUE(store->insert("http://a/3", 100, 1));
    store->touch("http://a/1");
    ASSERT_TRUE(store->insert("http://a/4", 100, 1));  // evicts 2, not 1
    EXPECT_TRUE(store->contains("http://a/1"));
    EXPECT_FALSE(store->contains("http://a/2"));
}

// --- the directory --------------------------------------------------------

TEST_F(LogStoreTest, MissingParentDirectoriesAreCreated) {
    auto cfg = config(1'000'000);
    cfg.dir = (dir_ / "a" / "b" / "c").string();
    cfg.segment_target_bytes = kSegmentHeaderBytes + 64;  // rotate every few inserts
    {
        auto store = open(cfg);
        for (int i = 0; i < 20; ++i)
            ASSERT_TRUE(store->insert("http://a/" + std::to_string(i), 100, 1));
        EXPECT_GT(store->segment_count(), 1u);
    }
    ASSERT_TRUE(fs::is_directory(cfg.dir));
    EXPECT_EQ(open(cfg)->document_count(), 20u);
}

TEST_F(LogStoreTest, UncreatableDirectoryThrowsNamingIt) {
    fs::create_directories(dir_);
    std::ofstream(dir_ / "file") << "a file, not a directory";
    auto cfg = config();
    cfg.dir = (dir_ / "file" / "segments").string();
    try {
        (void)open(cfg);
        FAIL() << "opened a store under a regular file";
    } catch (const std::system_error& e) {
        EXPECT_NE(std::string(e.what()).find(cfg.dir), std::string::npos) << e.what();
    }
}

// --- recovery -------------------------------------------------------------

TEST_F(LogStoreTest, ZeroSegmentsRecoversEmpty) {
    auto store = open(config());
    EXPECT_EQ(store->recovered_entries(), 0u);
    EXPECT_EQ(store->document_count(), 0u);
    EXPECT_EQ(store->segment_count(), 1u);  // fresh writer segment
}

TEST_F(LogStoreTest, WarmRestartRecoversLiveEntries) {
    {
        auto store = open(config());
        ASSERT_TRUE(store->insert("http://a/1", 100, 1));
        ASSERT_TRUE(store->insert("http://a/2", 200, 2));
        ASSERT_TRUE(store->insert("http://a/3", 300, 3));
        EXPECT_TRUE(store->erase("http://a/2"));
    }  // dtor flushes; on-disk state now has 3 inserts + 1 tombstone

    auto store = open(config());
    EXPECT_EQ(store->recovered_entries(), 2u);
    EXPECT_EQ(store->document_count(), 2u);
    EXPECT_EQ(store->used_bytes(), 400u);
    EXPECT_EQ(store->cached_version("http://a/1"), 1u);
    EXPECT_EQ(store->cached_version("http://a/3"), 3u);
    EXPECT_FALSE(store->contains("http://a/2"));
}

TEST_F(LogStoreTest, RecoveryWithoutFlushSeesUnsyncedAppends) {
    // Appends go straight to the fd; a crash loses at most the page cache,
    // never the process's own writes — reopening without flush() must see
    // everything.
    auto store = open(config());
    ASSERT_TRUE(store->insert("http://a/1", 100, 1));
    store = nullptr;  // destroy without an explicit flush
    store = open(config());
    EXPECT_EQ(store->recovered_entries(), 1u);
}

TEST_F(LogStoreTest, DuplicateInsertReplayKeepsLatestVersion) {
    {
        auto store = open(config());
        ASSERT_TRUE(store->insert("http://a/1", 100, 1));
        ASSERT_TRUE(store->insert("http://a/1", 150, 2));
        ASSERT_TRUE(store->insert("http://a/1", 175, 3));
    }
    auto store = open(config());
    EXPECT_EQ(store->recovered_entries(), 1u);
    EXPECT_EQ(store->cached_version("http://a/1"), 3u);
    EXPECT_EQ(store->used_bytes(), 175u);
}

TEST_F(LogStoreTest, InsertEraseInsertReplaysToLive) {
    {
        auto store = open(config());
        ASSERT_TRUE(store->insert("http://a/1", 100, 1));
        EXPECT_TRUE(store->erase("http://a/1"));
        ASSERT_TRUE(store->insert("http://a/1", 120, 2));
    }
    auto store = open(config());
    EXPECT_EQ(store->recovered_entries(), 1u);
    EXPECT_EQ(store->cached_version("http://a/1"), 2u);
}

TEST_F(LogStoreTest, InsertEraseReplaysToAbsent) {
    {
        auto store = open(config());
        ASSERT_TRUE(store->insert("http://a/1", 100, 1));
        ASSERT_TRUE(store->insert("http://a/2", 100, 1));
        EXPECT_TRUE(store->erase("http://a/1"));
    }
    auto store = open(config());
    EXPECT_EQ(store->recovered_entries(), 1u);
    EXPECT_FALSE(store->contains("http://a/1"));
    EXPECT_TRUE(store->contains("http://a/2"));
}

TEST_F(LogStoreTest, RecoveryPreservesLruOrder) {
    {
        auto store = open(config());
        ASSERT_TRUE(store->insert("http://a/1", 100, 1));
        ASSERT_TRUE(store->insert("http://a/2", 100, 1));
        ASSERT_TRUE(store->insert("http://a/3", 100, 1));
        EXPECT_EQ(store->lookup("http://a/1", 1), Lookup::hit);  // 1 becomes MRU
        EXPECT_EQ(recency_order(*store),
                  (std::vector<std::string>{"http://a/1", "http://a/3", "http://a/2"}));
    }
    auto store = open(config(200));  // shrunk: must evict the recovered LRU tail
    EXPECT_EQ(store->document_count(), 2u);
    EXPECT_EQ(recency_order(*store),
              (std::vector<std::string>{"http://a/1", "http://a/3"}));
    EXPECT_FALSE(store->contains("http://a/2"));  // tail (LRU) went first
}

TEST_F(LogStoreTest, TornFinalRecordIsTruncatedAway) {
    std::string seg_path;
    {
        auto store = open(config());
        ASSERT_TRUE(store->insert("http://a/1", 100, 1));
        ASSERT_TRUE(store->insert("http://a/2", 100, 2));
    }
    // Find the one non-empty segment and append half a record (torn write).
    for (const auto& de : fs::directory_iterator(dir_)) {
        if (fs::file_size(de.path()) > kSegmentHeaderBytes) seg_path = de.path().string();
    }
    ASSERT_FALSE(seg_path.empty());
    const auto before = fs::file_size(seg_path);
    {
        std::string torn;
        encode_record(torn, Record{RecordType::insert, 99, 100, 3, "http://a/torn"});
        torn.resize(torn.size() - 5);
        std::ofstream out(seg_path, std::ios::binary | std::ios::app);
        out.write(torn.data(), static_cast<std::streamsize>(torn.size()));
    }
    ASSERT_GT(fs::file_size(seg_path), before);

    auto store = open(config());
    EXPECT_EQ(store->recovered_entries(), 2u);
    EXPECT_TRUE(store->contains("http://a/1"));
    EXPECT_TRUE(store->contains("http://a/2"));
    EXPECT_FALSE(store->contains("http://a/torn"));
    // Recovery truncated the file back to its last valid frame.
    EXPECT_EQ(fs::file_size(seg_path), before);
}

TEST_F(LogStoreTest, TruncatedHeaderSegmentIsDropped) {
    {
        auto store = open(config());
        ASSERT_TRUE(store->insert("http://a/1", 100, 1));
    }
    // A segment file too short to hold its header (crash during create).
    {
        std::ofstream out(dir_ / segment_file_name(999), std::ios::binary);
        out << "SC";
    }
    auto store = open(config());
    EXPECT_EQ(store->recovered_entries(), 1u);
    EXPECT_TRUE(store->contains("http://a/1"));
    // The unreadable segment was unlinked, not left to rot.
    EXPECT_FALSE(fs::exists(dir_ / segment_file_name(999)));
}

TEST_F(LogStoreTest, ForeignFilesInTheDirectoryAreIgnored) {
    {
        auto store = open(config());
        ASSERT_TRUE(store->insert("http://a/1", 100, 1));
    }
    {
        std::ofstream out(dir_ / "README.txt");
        out << "not a segment";
    }
    auto store = open(config());
    EXPECT_EQ(store->recovered_entries(), 1u);
    EXPECT_TRUE(fs::exists(dir_ / "README.txt"));
}

TEST_F(LogStoreTest, RecoveredStateSurvivesASecondRestart) {
    {
        auto store = open(config());
        ASSERT_TRUE(store->insert("http://a/1", 100, 1));
        EXPECT_TRUE(store->erase("http://a/1"));
        ASSERT_TRUE(store->insert("http://a/2", 100, 1));
    }
    { auto store = open(config()); EXPECT_EQ(store->recovered_entries(), 1u); }
    auto store = open(config());
    EXPECT_EQ(store->recovered_entries(), 1u);
    EXPECT_TRUE(store->contains("http://a/2"));
    EXPECT_FALSE(store->contains("http://a/1"));
}

// --- compaction -----------------------------------------------------------

TEST_F(LogStoreTest, CompactionDropsDeadBytesAndSegments) {
    auto cfg = config(100'000);
    cfg.segment_target_bytes = 512;  // rotate quickly
    auto store = open(cfg);
    for (int i = 0; i < 40; ++i) {
        ASSERT_TRUE(store->insert("http://a/" + std::to_string(i), 50, 1));
    }
    for (int i = 0; i < 40; i += 2) {
        EXPECT_TRUE(store->erase("http://a/" + std::to_string(i)));
    }
    const std::size_t before = store->segment_count();
    ASSERT_GT(before, 2u);
    // Unforced compaction converges: once every sealed segment is mostly
    // live there is nothing left below the threshold and it returns false.
    std::size_t compacted = 0;
    while (store->compact_once(false)) ++compacted;
    EXPECT_GT(compacted, 0u);
    EXPECT_LT(store->segment_count(), before);
    // Live contents are untouched.
    EXPECT_EQ(store->document_count(), 20u);
    for (int i = 1; i < 40; i += 2) {
        EXPECT_TRUE(store->contains("http://a/" + std::to_string(i))) << i;
    }
}

TEST_F(LogStoreTest, TombstonesDoNotResurrectAcrossCompactionAndRestart) {
    auto cfg = config(100'000);
    cfg.segment_target_bytes = 256;
    {
        auto store = open(cfg);
        ASSERT_TRUE(store->insert("http://a/victim", 50, 1));
        // Push the insert and its tombstone into different sealed segments.
        for (int i = 0; i < 20; ++i) {
            ASSERT_TRUE(store->insert("http://b/" + std::to_string(i), 50, 1));
        }
        EXPECT_TRUE(store->erase("http://a/victim"));
        for (int i = 20; i < 40; ++i) {
            ASSERT_TRUE(store->insert("http://b/" + std::to_string(i), 50, 1));
        }
        // Force-cycle every ORIGINAL segment through compaction (forced
        // compaction never runs dry — rewrites keep sealing fresh segments
        // — so bound the rounds by the starting count).
        const std::size_t rounds = store->segment_count();
        for (std::size_t i = 0; i < rounds; ++i) {
            EXPECT_TRUE(store->compact_once(true));
        }
    }
    auto store = open(cfg);
    EXPECT_FALSE(store->contains("http://a/victim"));
    EXPECT_EQ(store->document_count(), 40u);
}

TEST_F(LogStoreTest, CompactedStateRecoversCleanly) {
    auto cfg = config(100'000);
    cfg.segment_target_bytes = 256;
    std::vector<std::string> expect_alive;
    {
        auto store = open(cfg);
        for (int i = 0; i < 30; ++i) {
            const std::string url = "http://a/" + std::to_string(i);
            ASSERT_TRUE(store->insert(url, 60, static_cast<std::uint64_t>(i)));
            if (i % 3 == 0) {
                EXPECT_TRUE(store->erase(url));
            } else {
                expect_alive.push_back(url);
            }
        }
        const std::size_t rounds = store->segment_count();
        for (std::size_t i = 0; i < rounds; ++i) (void)store->compact_once(true);
    }
    auto store = open(cfg);
    EXPECT_EQ(store->recovered_entries(), expect_alive.size());
    for (const auto& url : expect_alive) EXPECT_TRUE(store->contains(url)) << url;
}

TEST_F(LogStoreTest, BackgroundCompactorRunsWithoutExplicitKicks) {
    auto cfg = config(100'000);
    cfg.segment_target_bytes = 256;
    cfg.background_compaction = true;
    cfg.compact_live_ratio = 1.0;  // everything is compactable
    auto store = open(cfg);
    for (int i = 0; i < 60; ++i) {
        ASSERT_TRUE(store->insert("http://a/" + std::to_string(i % 6), 50,
                                  static_cast<std::uint64_t>(i)));
    }
    // Only liveness is asserted here (the compactor owns the timing); the
    // deterministic compaction contract is pinned by the tests above.
    EXPECT_EQ(store->document_count(), 6u);
}

// --- metrics --------------------------------------------------------------

TEST_F(LogStoreTest, MetricsReportRecoveryAndCompaction) {
    const obs::Labels labels{{"dir", dir_.string()}};
    auto cfg = config(100'000);
    cfg.segment_target_bytes = 256;
    {
        auto store = open(cfg);
        for (int i = 0; i < 20; ++i) {
            ASSERT_TRUE(store->insert("http://a/" + std::to_string(i), 50, 1));
        }
    }
    auto store = open(cfg);
    EXPECT_TRUE(store->compact_once(true));

    const auto snap = obs::metrics().snapshot();
    const auto* recovered = snap.find("sc_store_recovered_entries_total", labels);
    ASSERT_NE(recovered, nullptr);
    EXPECT_EQ(recovered->counter, 20u);
    const auto* compactions = snap.find("sc_store_compactions_total", labels);
    ASSERT_NE(compactions, nullptr);
    EXPECT_GE(compactions->counter, 1u);
    const auto* segments = snap.find("sc_store_segments", labels);
    ASSERT_NE(segments, nullptr);
    EXPECT_EQ(static_cast<std::size_t>(segments->gauge), store->segment_count());
    const auto* recovery_read = snap.find("sc_store_recovery_read_seconds", labels);
    ASSERT_NE(recovery_read, nullptr);
    EXPECT_GE(recovery_read->observations, 1u);
}

}  // namespace
}  // namespace sc::store

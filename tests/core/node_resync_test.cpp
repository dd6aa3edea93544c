// Resync machinery details: the delta-vs-full election is pinned at the
// wire-byte crossover (the bug where per-chunk framing was ignored picked
// deltas that were bigger on the wire than the bitmap), and chunked
// full-bitmap reassembly is exercised through loss, restart, and
// interleaving — the DIRREQ answer must survive the same network that
// mangled the deltas it repairs.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/summary_cache_node.hpp"
#include "icp/icp_message.hpp"

namespace sc {
namespace {

SummaryCacheNodeConfig cfg(NodeId id, std::uint64_t expected_docs = 1024) {
    SummaryCacheNodeConfig c;
    c.node_id = id;
    c.expected_docs = expected_docs;
    return c;
}

// --- election arithmetic ---------------------------------------------------

// Framing per chunk: 20-byte ICP header + 12 bytes of hash-spec + count.
constexpr std::size_t kChunkOverhead = kIcpHeaderBytes + 12;

// The helpers the election calls are constexpr: pin the arithmetic at
// compile time so a framing regression cannot even build.
static_assert(dirupdate_delta_wire_bytes(0) == kChunkOverhead);
static_assert(dirupdate_delta_wire_bytes(1) == kChunkOverhead + 4);
static_assert(dirupdate_delta_wire_bytes(kMaxRecordsPerUpdate) ==
              kChunkOverhead + 4 * kMaxRecordsPerUpdate);
// One record past a chunk boundary pays a whole extra chunk of framing.
static_assert(dirupdate_delta_wire_bytes(kMaxRecordsPerUpdate + 1) ==
              2 * kChunkOverhead + 4 * (kMaxRecordsPerUpdate + 1));
static_assert(dirupdate_full_wire_bytes(HashSpec{4, 32, 32}) == kChunkOverhead + 4);
static_assert(dirupdate_full_wire_bytes(HashSpec{4, 32, 33}) == kChunkOverhead + 8);

TEST(NodeResync, WireByteHelpersMatchEncodedBytes) {
    // The helpers must agree with what encode_* actually emits, or the
    // election optimizes the wrong quantity.
    IcpDirUpdate delta;
    delta.spec = HashSpec{4, 32, 65536};
    delta.records = {1, 2, 3};
    EXPECT_EQ(encode_dirupdate(delta).size(), dirupdate_delta_wire_bytes(3));

    IcpDirUpdate full;
    full.spec = HashSpec{4, 32, 1024};
    full.full = true;
    full.bitmap_words.assign(32, 0);
    EXPECT_EQ(encode_dirupdate(full).size(), dirupdate_full_wire_bytes(full.spec));
}

TEST(NodeResync, ElectionFlipsAtTheWireCrossover) {
    // Starting from an empty filter, every pending record is a fresh 0->1
    // flip, so pending records == the local filter's popcount. Drive churn
    // until the popcount crosses the bitmap's word count: below it a delta
    // must be elected (strictly cheaper or tied on the wire), above it the
    // full bitmap must win.
    const std::size_t words =
        (SummaryCacheNode(cfg(0, 64)).hash_spec().table_bits + 31) / 32;

    // Below the crossover: a handful of flips, popcount well under words.
    SummaryCacheNode low(cfg(1, 64));
    low.on_cache_insert("one-doc");
    ASSERT_LE(low.local_bits().popcount(), words);
    const auto low_msgs = low.encode_pending_updates();
    ASSERT_EQ(low_msgs.size(), 1u);
    EXPECT_FALSE(decode_dirupdate(low_msgs[0]).full);

    // Above it: keep inserting until the popcount passes the word count;
    // now delta records alone outweigh the whole bitmap, before framing.
    SummaryCacheNode high(cfg(1, 64));
    for (int i = 0; high.local_bits().popcount() <= words; ++i) {
        ASSERT_LT(i, 10'000);
        high.on_cache_insert("url" + std::to_string(i));
    }
    const auto high_msgs = high.encode_pending_updates();
    ASSERT_EQ(high_msgs.size(), 1u);
    const auto full = decode_dirupdate(high_msgs[0]);
    EXPECT_TRUE(full.full);
    EXPECT_EQ(high_msgs[0].size(), dirupdate_full_wire_bytes(full.spec));
}

TEST(NodeResync, ElectionArithmeticChargesChunkFraming) {
    // Regression pin for the election bug: payload-only accounting
    // (records * 4 vs words * 4) ignores that every chunk repays the
    // 32-byte header+spec framing. The helpers charge it.
    const HashSpec spec{4, 32, 1024};  // 32 words
    EXPECT_EQ(dirupdate_delta_wire_bytes(32), dirupdate_full_wire_bytes(spec));
    // A delta spanning two chunks pays two framings, not one.
    const std::size_t two_chunks = kMaxRecordsPerUpdate + 1;
    EXPECT_EQ(dirupdate_delta_wire_bytes(two_chunks),
              2 * kChunkOverhead + 4 * two_chunks);
    // And a bitmap spanning two chunks likewise.
    const HashSpec big{4, 32,
                       static_cast<std::uint32_t>(32 * (kMaxWordsPerFullChunk + 1))};
    EXPECT_EQ(dirupdate_full_wire_bytes(big),
              2 * kChunkOverhead + 4 * (kMaxWordsPerFullChunk + 1));
}

// --- chunked full-bitmap reassembly ---------------------------------------

// A table big enough that the full bitmap spans several datagrams.
constexpr std::uint64_t kBigDocs = 200'000;

TEST(NodeResync, ChunkedFullReassemblesInOrder) {
    SummaryCacheNode a(cfg(1, kBigDocs));
    for (int i = 0; i < 1000; ++i) a.on_cache_insert("d" + std::to_string(i));
    SummaryCacheNode b(cfg(2));
    const auto chunks = a.encode_full_update_chunks();
    ASSERT_GT(chunks.size(), 1u);
    for (std::size_t i = 0; i < chunks.size(); ++i) {
        const auto r = b.apply_sibling_update(decode_dirupdate(chunks[i]));
        if (i + 1 < chunks.size()) {
            EXPECT_EQ(r, SummaryApplyResult::partial) << i;
            EXPECT_EQ(b.known_siblings(), 0u);  // not visible until committed
        } else {
            EXPECT_EQ(r, SummaryApplyResult::applied);
        }
    }
    EXPECT_EQ(b.known_siblings(), 1u);
    EXPECT_TRUE(b.sibling_may_contain(1, "d0"));
    EXPECT_TRUE(b.sibling_may_contain(1, "d999"));
    EXPECT_FALSE(b.sibling_needs_resync(1));
}

TEST(NodeResync, LostMiddleChunkRecoversOnRestart) {
    SummaryCacheNode a(cfg(1, kBigDocs));
    for (int i = 0; i < 1000; ++i) a.on_cache_insert("d" + std::to_string(i));
    SummaryCacheNode b(cfg(2));
    const auto chunks = a.encode_full_update_chunks();
    ASSERT_GE(chunks.size(), 2u);
    // First transfer loses its middle chunk: the tail chunk no longer
    // continues the reassembly and resets it — reported as partial, and
    // the sibling still reads as needing resync.
    EXPECT_EQ(b.apply_sibling_update(decode_dirupdate(chunks[0])),
              SummaryApplyResult::partial);
    EXPECT_EQ(b.apply_sibling_update(decode_dirupdate(chunks.back())),
              SummaryApplyResult::partial);
    EXPECT_EQ(b.known_siblings(), 0u);
    EXPECT_TRUE(b.sibling_needs_resync(1));
    // The re-requested transfer restarts at offset 0 and completes.
    for (const auto& c : a.encode_full_update_chunks()) {
        const auto r = b.apply_sibling_update(decode_dirupdate(c));
        EXPECT_TRUE(r == SummaryApplyResult::partial || r == SummaryApplyResult::applied);
    }
    EXPECT_EQ(b.known_siblings(), 1u);
    EXPECT_TRUE(b.sibling_may_contain(1, "d999"));
}

TEST(NodeResync, InterleavedTransfersResolveToTheNewerOne) {
    // Two overlapping transfers (a lost answer re-served mid-flight): any
    // offset-0 chunk restarts reassembly, so the SECOND transfer's chunks
    // win and the stale first transfer cannot commit a blended bitmap.
    SummaryCacheNode a(cfg(1, kBigDocs));
    for (int i = 0; i < 500; ++i) a.on_cache_insert("old" + std::to_string(i));
    const auto first = a.encode_full_update_chunks();
    for (int i = 0; i < 500; ++i) a.on_cache_insert("new" + std::to_string(i));
    (void)a.encode_pending_updates();  // drain churn into the filter state
    const auto second = a.encode_full_update_chunks();
    ASSERT_GE(first.size(), 2u);

    SummaryCacheNode b(cfg(2));
    EXPECT_EQ(b.apply_sibling_update(decode_dirupdate(first[0])),
              SummaryApplyResult::partial);
    // Second transfer begins before the first finished.
    for (const auto& c : second) {
        const auto r = b.apply_sibling_update(decode_dirupdate(c));
        EXPECT_TRUE(r == SummaryApplyResult::partial || r == SummaryApplyResult::applied);
    }
    EXPECT_EQ(b.known_siblings(), 1u);
    EXPECT_TRUE(b.sibling_may_contain(1, "new499"));
    EXPECT_TRUE(b.sibling_may_contain(1, "old499"));
}

TEST(NodeResync, NeedsResyncFlagsOnlyUnsyncedPeers) {
    SummaryCacheNode b(cfg(9));
    EXPECT_TRUE(b.sibling_needs_resync(1));  // never heard: bootstrap
    // Two senders: one healthy, one whose delta arrives before any sync.
    SummaryCacheNode healthy(cfg(1));
    for (const auto& c : healthy.encode_full_update_chunks())
        (void)b.apply_sibling_update(decode_dirupdate(c));
    SummaryCacheNode unsynced(cfg(2));
    unsynced.on_cache_insert("x");
    const auto msgs = unsynced.encode_pending_updates();
    ASSERT_FALSE(msgs.empty());
    EXPECT_EQ(b.apply_sibling_update(decode_dirupdate(msgs[0])),
              SummaryApplyResult::need_bootstrap);
    EXPECT_FALSE(b.sibling_needs_resync(1));
    EXPECT_TRUE(b.sibling_needs_resync(2));
}

TEST(NodeResync, KnownSiblingsCountsExactlyTheSyncedSenders) {
    // The repair sweep reads sibling_needs_resync(); a set-up wait reads
    // known_siblings(). Both read one per-sender record, so after every
    // result an update can have they must agree: a sender holds a replica
    // exactly when it needs no resync.
    SummaryCacheNode b(cfg(9));
    SummaryCacheNode steady(cfg(3));
    for (const auto& c : steady.encode_full_update_chunks())
        ASSERT_EQ(b.apply_sibling_update(decode_dirupdate(c)), SummaryApplyResult::applied);
    SummaryCacheNode a(cfg(1, kBigDocs));  // its full spans several chunks
    const auto expect_agreement = [&b](const char* step, std::size_t synced) {
        std::size_t not_waiting = 0;
        for (const NodeId id : {NodeId{1}, NodeId{3}})
            not_waiting += b.sibling_needs_resync(id) ? 0 : 1;
        EXPECT_EQ(not_waiting, synced) << step;
        EXPECT_EQ(b.known_siblings(), not_waiting) << step;
    };
    const auto deliver = [&b](const std::vector<std::uint8_t>& msg) {
        return b.apply_sibling_update(decode_dirupdate(msg));
    };
    expect_agreement("start", 1);

    a.on_cache_insert("first");
    const auto first = a.encode_pending_updates();
    ASSERT_EQ(first.size(), 1u);
    EXPECT_EQ(deliver(first[0]), SummaryApplyResult::need_bootstrap);
    expect_agreement("need_bootstrap", 1);

    const auto old_full = a.encode_full_update_chunks();
    ASSERT_GE(old_full.size(), 2u);
    EXPECT_EQ(deliver(old_full[0]), SummaryApplyResult::partial);
    expect_agreement("partial", 1);
    for (std::size_t i = 1; i + 1 < old_full.size(); ++i) (void)deliver(old_full[i]);
    EXPECT_EQ(deliver(old_full.back()), SummaryApplyResult::applied);
    expect_agreement("applied", 2);

    a.on_cache_insert("second");
    const auto second = a.encode_pending_updates();
    ASSERT_EQ(second.size(), 1u);
    EXPECT_EQ(deliver(second[0]), SummaryApplyResult::applied);
    EXPECT_EQ(deliver(second[0]), SummaryApplyResult::duplicate);
    expect_agreement("duplicate", 2);

    a.on_cache_insert("lost");
    ASSERT_FALSE(a.encode_pending_updates().empty());  // never delivered
    a.on_cache_insert("third");
    const auto third = a.encode_pending_updates();
    ASSERT_EQ(third.size(), 1u);
    EXPECT_EQ(deliver(third[0]), SummaryApplyResult::gap);
    expect_agreement("gap", 1);

    a.on_cache_insert("fourth");
    const auto fourth = a.encode_pending_updates();
    ASSERT_EQ(fourth.size(), 1u);
    EXPECT_EQ(deliver(fourth[0]), SummaryApplyResult::need_resync);
    expect_agreement("need_resync", 1);

    for (const auto& c : a.encode_full_update_chunks()) (void)deliver(c);
    expect_agreement("resynced", 2);
    a.on_cache_insert("fifth");
    const auto fifth = a.encode_pending_updates();
    ASSERT_EQ(fifth.size(), 1u);
    auto respecced = decode_dirupdate(fifth[0]);
    respecced.spec.table_bits /= 2;  // in sequence; the spec is what is wrong
    EXPECT_EQ(b.apply_sibling_update(respecced), SummaryApplyResult::rejected);
    expect_agreement("rejected", 2);

    EXPECT_EQ(deliver(old_full[0]), SummaryApplyResult::stale);
    expect_agreement("stale", 2);

    b.forget_sibling(1);
    expect_agreement("forget_sibling", 1);
}

// --- sequence heartbeat (tail-loss repair) ---------------------------------

TEST(NodeResync, HeartbeatDetectsTailLoss) {
    // Gap detection needs a later datagram: if the LAST delta before a
    // quiet period is lost, the receiver stays "synced" but stale forever.
    // The keepalive-paced heartbeat is that later datagram.
    SummaryCacheNode a(cfg(1));
    SummaryCacheNode b(cfg(9));
    for (const auto& c : a.encode_full_update_chunks())
        (void)b.apply_sibling_update(decode_dirupdate(c));
    ASSERT_FALSE(b.sibling_needs_resync(1));

    // The tail delta vanishes on the wire; b has no way to know yet.
    a.on_cache_insert("lost-doc");
    ASSERT_FALSE(a.encode_pending_updates().empty());
    EXPECT_FALSE(b.sibling_may_contain(1, "lost-doc"));
    EXPECT_FALSE(b.sibling_needs_resync(1));

    // The heartbeat advertises the sequence past the lost delta: gap.
    EXPECT_EQ(b.apply_sibling_update(decode_dirupdate(a.encode_seq_heartbeat())),
              SummaryApplyResult::gap);
    EXPECT_TRUE(b.sibling_needs_resync(1));

    // The resulting DIRREQ resync repairs the replica.
    for (const auto& c : a.encode_full_update_chunks())
        (void)b.apply_sibling_update(decode_dirupdate(c));
    EXPECT_FALSE(b.sibling_needs_resync(1));
    EXPECT_TRUE(b.sibling_may_contain(1, "lost-doc"));
}

TEST(NodeResync, HeartbeatInSyncIsANoOp) {
    SummaryCacheNode a(cfg(1));
    SummaryCacheNode b(cfg(9));
    for (const auto& c : a.encode_full_update_chunks())
        (void)b.apply_sibling_update(decode_dirupdate(c));

    // In-sync heartbeats are dropped without consuming a sequence...
    EXPECT_EQ(b.apply_sibling_update(decode_dirupdate(a.encode_seq_heartbeat())),
              SummaryApplyResult::duplicate);
    EXPECT_EQ(b.apply_sibling_update(decode_dirupdate(a.encode_seq_heartbeat())),
              SummaryApplyResult::duplicate);
    EXPECT_FALSE(b.sibling_needs_resync(1));

    // ...so the next real delta still lands exactly in sequence.
    a.on_cache_insert("after-heartbeat");
    for (const auto& m : a.encode_pending_updates())
        EXPECT_EQ(b.apply_sibling_update(decode_dirupdate(m)),
                  SummaryApplyResult::applied);
    EXPECT_TRUE(b.sibling_may_contain(1, "after-heartbeat"));
}

}  // namespace
}  // namespace sc

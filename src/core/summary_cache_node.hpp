// SummaryCacheNode — the paper's wire state machine (Section VI),
// transport-agnostic. One node per proxy:
//
//   * mirrors the local cache directory into a counting Bloom filter,
//   * encodes pending directory changes as ready-to-send
//     ICP_OP_DIRUPDATE / ICP_OP_DIRFULL datagrams (chunked to fit UDP,
//     cheaper of delta / full bitmap per Section VI-A),
//   * ingests siblings' update datagrams into per-sibling replica filters
//     (self-describing: the hash spec travels in every message), and
//   * answers "which siblings look promising for this URL?" — the probe
//     that replaces ICP's multicast-on-every-miss (it implements
//     core::PeerDirectory, so the ProtocolEngine can drive it).
//
// WHEN to encode is not decided here: the update-delay threshold lives in
// core::DeltaBatcher, shared with the simulators. The mini-proxy in
// src/proto/ drives this node over real sockets.
//
// Thread safety: every public method is safe from any thread. The
// sibling-replica side is RCU-style. Each sibling's Bloom replica is an
// immutable snapshot behind a shared_ptr; the set of replicas is an
// immutable, NodeId-sorted table behind an atomic shared_ptr. Probes
// (`promising_siblings` / `sibling_may_contain` / `sibling_filter`) load
// the current table and never take a lock — they see a complete, untorn
// filter, at worst one update behind. Writers (`apply_sibling_update` /
// `forget_sibling`) serialize on an internal mutex, build the next
// snapshot OFF that publication (clone the affected filter, apply the
// flips, assemble a new table), then publish with one atomic store
// (`sc_node_replica_swaps_total` counts these). The LOCAL directory side
// (the counting filter, its delta log and the delta sequence) sits
// behind its own LEAF mutex, so cache hooks may call `on_cache_insert` /
// `on_cache_erase` under the cache's locks: nothing is called while it
// is held. Callers that need encoded datagrams to leave in sequence order
// serialize encode-and-send themselves (MiniProxy's node_mu_).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "bloom/bloom_filter.hpp"
#include "bloom/counting_bloom_filter.hpp"
#include "core/peer_directory.hpp"
#include "icp/icp_message.hpp"
#include "obs/metrics.hpp"
#include "summary/summary.hpp"
#include "util/thread_annotations.hpp"

namespace sc {

class CacheStore;  // cache/cache_store.hpp

/// Stable identifier for a cooperating proxy (the ICP sender_host field).
using NodeId = std::uint32_t;

struct SummaryCacheNodeConfig {
    NodeId node_id = 0;
    /// Documents the local cache is expected to hold (cache bytes / 8 KB).
    std::uint64_t expected_docs = 1024;
    BloomSummaryConfig bloom;
    /// Per-process incarnation id carried in every outgoing update so
    /// receivers detect restarts (sequence space reset). 0 = pick a random
    /// nonzero id at construction; tests pin explicit values.
    std::uint32_t boot_id = 0;
};

/// What happened to an inbound sibling update (docs/PROTOCOL.md, "Losing
/// and regaining sync"). Only `applied` changed the published replica;
/// everything else tells the transport what repair action — if any — the
/// update calls for.
enum class SummaryApplyResult : std::uint8_t {
    applied,         ///< replica updated (delta in sequence, or full committed)
    partial,         ///< full-bitmap chunk buffered; reassembly not complete yet
    duplicate,       ///< delta sequence already applied — dropped, no action
    stale,           ///< full bitmap older than the replica's sync point — dropped
    gap,             ///< sequence gap or sender reboot: replica dropped + quarantined
    need_bootstrap,  ///< first contact via delta: no replica yet, send DIRREQ
    need_resync,     ///< delta while quarantined/unsynced: still waiting for a full
    rejected,        ///< hash spec mismatches the live replica
};

[[nodiscard]] constexpr bool summary_apply_needs_resync(SummaryApplyResult r) {
    return r == SummaryApplyResult::gap || r == SummaryApplyResult::need_bootstrap ||
           r == SummaryApplyResult::need_resync;
}

class SummaryCacheNode : public core::PeerDirectory {
public:
    explicit SummaryCacheNode(SummaryCacheNodeConfig config);

    [[nodiscard]] NodeId id() const { return config_.node_id; }
    [[nodiscard]] const HashSpec& hash_spec() const { return spec_; }
    [[nodiscard]] std::uint32_t boot_id() const { return boot_id_; }

    // --- local directory events (cache hooks; leaf lock) -----------------
    void on_cache_insert(std::string_view url) SC_EXCLUDES(local_mu_);
    void on_cache_erase(std::string_view url) SC_EXCLUDES(local_mu_);

    /// Warm restart (docs/STORAGE.md): re-derive the counting Bloom filter
    /// from a recovered directory so the node re-advertises a truthful
    /// summary instead of an empty one. Inserts every entry the store
    /// holds, then drops the resulting bit-flip log — the recovered state
    /// is a baseline that siblings fetch whole (a DIRREQ answer), not
    /// churn to be streamed as a (huge) delta. Call before the store's
    /// hooks are wired and before any traffic. Returns the number of
    /// entries folded in.
    std::size_t rebuild_from_directory(const CacheStore& store) SC_EXCLUDES(local_mu_);

    // --- outbound updates -------------------------------------------------
    /// Drain the accumulated bit-flip log and return the encoded datagrams
    /// to broadcast to every sibling (possibly more than one if the delta
    /// needs chunking; possibly a single full-bitmap message if that is
    /// smaller — the Section VI-A cheaper-encoding rule). Empty when the
    /// directory churn netted out. Deciding WHEN to call this is the
    /// DeltaBatcher's job.
    [[nodiscard]] std::vector<std::vector<std::uint8_t>> encode_pending_updates()
        SC_EXCLUDES(local_mu_);

    /// Unconditionally encode a full-bitmap snapshot in one datagram (used
    /// to initialize a freshly (re)started sibling, mirroring Squid's
    /// recovery behaviour). Carries the current delta sequence so the
    /// receiver resumes gap detection exactly where the snapshot leaves
    /// off; does NOT consume a sequence number. Throws WireError if the
    /// bitmap exceeds one datagram — use encode_full_update_chunks then.
    [[nodiscard]] std::vector<std::uint8_t> encode_full_update() SC_EXCLUDES(local_mu_);

    /// Same snapshot, chunked to fit kMaxIcpDatagram (DIRFULL word_offset
    /// reassembly). This is the DIRREQ answer: a bootstrap, recovery or
    /// resync in push mode, and the digest itself in the pull-based Cache
    /// Digest variant, whose periodic DIRREQ is the pull.
    [[nodiscard]] std::vector<std::vector<std::uint8_t>> encode_full_update_chunks()
        SC_EXCLUDES(local_mu_);

    /// Sequence heartbeat: an empty delta advertising the sequence the
    /// next real delta will use (consumes nothing; one datagram, ~32 B).
    /// Closes the tail-loss window — losing the *last* delta before a
    /// quiet period leaves a receiver synced-but-stale forever, since gap
    /// detection needs a later datagram to notice. Broadcast on the
    /// keepalive tick; in-sync receivers drop it, lagging ones quarantine
    /// and resync.
    [[nodiscard]] std::vector<std::uint8_t> encode_seq_heartbeat() SC_EXCLUDES(local_mu_);

    /// Drop the accumulated bit-flip log without emitting it. Pull-based
    /// digest deployments never send deltas, so the log would otherwise
    /// grow without bound. Takes no sequence number.
    void discard_delta() SC_EXCLUDES(local_mu_);

    // --- inbound updates --------------------------------------------------
    /// Apply a sibling's decoded update message, tracking the sender's
    /// per-boot delta sequence. A full bitmap (re)creates the replica and
    /// sets the sync point; an in-sequence delta advances it. Out-of-
    /// sequence deltas, sender reboots, and first contact never corrupt the
    /// replica — they quarantine/withhold it and report what repair the
    /// transport should run (see SummaryApplyResult). Thread-safe against
    /// concurrent probes and other writers (see the RCU note above).
    SummaryApplyResult apply_sibling_update(const IcpDirUpdate& update)
        SC_EXCLUDES(replica_write_mu_);

    /// Drop a sibling's replica and its sequence-tracking state (peer
    /// detected as failed; Section VI-B). A later rejoin starts from the
    /// bootstrap handshake. Thread-safe like apply_sibling_update.
    void forget_sibling(NodeId sibling) SC_EXCLUDES(replica_write_mu_);

    /// True when we cannot currently predict for `sibling` and a DIRREQ is
    /// called for: nothing ever heard, awaiting the bootstrap full, or
    /// quarantined after a gap/reboot. Drives the proxy's resync retries.
    [[nodiscard]] bool sibling_needs_resync(NodeId sibling) const
        SC_EXCLUDES(replica_write_mu_);

    /// The siblings whose streams are unsynced or quarantined right now.
    [[nodiscard]] std::vector<NodeId> siblings_awaiting_resync() const
        SC_EXCLUDES(replica_write_mu_);

    // --- probing (lock-free) ----------------------------------------------
    /// Siblings whose replicated summary says the URL may be cached there,
    /// in ascending NodeId order (the sequential-round probe order).
    /// Takes no lock: probes the atomically published replica snapshot.
    [[nodiscard]] std::vector<NodeId> promising_siblings(std::string_view url) const;

    /// core::PeerDirectory — same answer, engine-facing name.
    [[nodiscard]] std::vector<std::uint32_t> promising_peers(
        std::string_view url) const override {
        return promising_siblings(url);
    }

    [[nodiscard]] bool sibling_may_contain(NodeId sibling, std::string_view url) const;
    [[nodiscard]] std::size_t known_siblings() const {
        return replicas_.load(std::memory_order_acquire)->size();
    }
    /// The sibling's current replica snapshot (immutable), or nullptr.
    /// Safe to keep: a snapshot never changes after publication.
    [[nodiscard]] std::shared_ptr<const BloomFilter> sibling_filter(NodeId sibling) const;

    // --- introspection ----------------------------------------------------
    // The node's counts live in the registry only, labeled node=<id>
    // (docs/OBSERVABILITY.md).

    /// A copy of the local summary's bit array (what a full update carries).
    [[nodiscard]] BloomFilter local_bits() const SC_EXCLUDES(local_mu_);

private:
    /// Immutable, NodeId-sorted set of sibling replicas. A table and every
    /// filter it points at are frozen at publication; updates replace the
    /// whole table (sharing the untouched filters).
    using ReplicaTable = std::vector<std::pair<NodeId, std::shared_ptr<const BloomFilter>>>;

    /// In-flight reassembly of a chunked DIRFULL from one sender. The
    /// decode layer caps table_bits (kMaxWireTableBits), so `words` is a
    /// bounded allocation.
    struct PendingFull {
        std::uint32_t boot_id = 0;
        std::uint32_t seq = 0;  ///< the full's sync point (next expected delta)
        HashSpec spec;
        std::vector<std::uint32_t> words;
        std::size_t filled = 0;  ///< words received so far == next expected offset
    };

    /// Per-sender reliability state, keyed alongside (not inside) the
    /// replica table so dropping a diverged replica keeps the knowledge of
    /// *why* it is gone.
    struct PeerStream {
        std::uint32_t boot_id = 0;
        std::uint32_t expected_seq = 0;  ///< 0 = unsynced (no full applied yet)
        bool quarantined = false;
        std::optional<PendingFull> pending;
    };

    [[nodiscard]] std::vector<std::vector<std::uint8_t>> encode_delta_chunks(
        std::span<const std::uint32_t> records) SC_REQUIRES(local_mu_);
    [[nodiscard]] std::vector<std::uint8_t> encode_full_update_locked()
        SC_REQUIRES(local_mu_);

    SummaryApplyResult apply_full_locked(const IcpDirUpdate& update)
        SC_REQUIRES(replica_write_mu_);
    SummaryApplyResult apply_delta_locked(const IcpDirUpdate& update)
        SC_REQUIRES(replica_write_mu_);

    /// Commit `filter` as the sender's replica snapshot.
    void store_replica_locked(NodeId sibling, std::shared_ptr<BloomFilter> filter)
        SC_REQUIRES(replica_write_mu_);
    /// Drop the replica (if any) and mark the stream quarantined under the
    /// sender's (possibly new) boot id.
    void quarantine_locked(NodeId sibling, PeerStream& stream, std::uint32_t boot_id)
        SC_REQUIRES(replica_write_mu_);

    /// Publish `next` as the current table (writer mutex must be held).
    void publish_replicas(std::shared_ptr<const ReplicaTable> next)
        SC_REQUIRES(replica_write_mu_);

    /// Position of `sibling` in the NodeId-sorted table, or end().
    [[nodiscard]] static ReplicaTable::const_iterator find_replica(const ReplicaTable& table,
                                                                   NodeId sibling);

    SummaryCacheNodeConfig config_;
    /// The local filter's hash spec, fixed at construction: the lock-free
    /// probe and hash_spec() read it without touching counting_.
    const HashSpec spec_;
    /// Leaf lock for the local directory side: cache hooks take it under
    /// the cache's locks, so nothing is called while it is held.
    mutable Mutex local_mu_;
    CountingBloomFilter counting_ SC_GUARDED_BY(local_mu_);
    /// Next delta sequence to assign (per-boot, starts at 1). Each delta
    /// chunk consumes one; an elected full-bitmap broadcast consumes one
    /// slot too, so losing it is detectable as a gap.
    std::uint32_t delta_seq_ SC_GUARDED_BY(local_mu_) = 1;
    mutable Mutex replica_write_mu_;  ///< serializes snapshot builders
    // RCU publication point: readers do lock-free acquire loads, so this
    // is deliberately NOT SC_GUARDED_BY(replica_write_mu_) — only the
    // *store* side is serialized, via publish_replicas' SC_REQUIRES.
    std::atomic<std::shared_ptr<const ReplicaTable>> replicas_;
    /// Per-sender sequence/quarantine state. Guarded by the same writer
    /// mutex as the replica table so the two views can never disagree.
    std::map<NodeId, PeerStream> streams_ SC_GUARDED_BY(replica_write_mu_);
    std::uint32_t boot_id_ = 0;
    // The node's counts, labeled node=<id> (docs/OBSERVABILITY.md).
    obs::Counter metric_updates_sent_;
    obs::Counter metric_updates_applied_;
    obs::Counter metric_updates_rejected_;
    obs::Counter metric_replica_swaps_;
    obs::Counter metric_divergences_;
    obs::Counter metric_resyncs_;
};

}  // namespace sc

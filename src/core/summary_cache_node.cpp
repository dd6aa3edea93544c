#include "core/summary_cache_node.hpp"

#include <algorithm>
#include <random>
#include <string>

#include "cache/cache_store.hpp"
#include "obs/trace_ring.hpp"
#include "summary/bloom_summary.hpp"
#include "util/sc_assert.hpp"

namespace sc {
namespace {

HashSpec spec_for(const SummaryCacheNodeConfig& config) {
    HashSpec spec;
    spec.function_num = config.bloom.hash_functions;
    spec.function_bits = 32;
    spec.table_bits = bloom_table_bits(config.expected_docs, config.bloom.load_factor);
    return spec;
}

std::uint32_t make_boot_id(std::uint32_t configured) {
    if (configured != 0) return configured;
    std::random_device rd;
    std::uint32_t id = 0;
    while (id == 0) id = rd();  // 0 is reserved for "not configured"
    return id;
}

/// Repack the filter's 64-bit words into the wire's big-endian 32-bit words.
std::vector<std::uint32_t> bitmap_words_of(const BloomFilter& filter) {
    const std::size_t n32 = (filter.spec().table_bits + 31) / 32;
    std::vector<std::uint32_t> out(n32, 0);
    const auto words = filter.words();
    for (std::size_t i = 0; i < out.size(); ++i) {
        const std::uint64_t w64 = words[i / 2];
        out[i] = static_cast<std::uint32_t>((i % 2 == 0) ? w64 : (w64 >> 32));
    }
    return out;
}

void apply_bitmap_words(BloomFilter& filter, std::span<const std::uint32_t> words32) {
    std::vector<std::uint64_t> w64((filter.spec().table_bits + 63) / 64, 0);
    for (std::size_t i = 0; i < words32.size(); ++i) {
        if (i % 2 == 0)
            w64[i / 2] |= words32[i];
        else
            w64[i / 2] |= static_cast<std::uint64_t>(words32[i]) << 32;
    }
    filter.assign_words(w64);
}

}  // namespace

SummaryCacheNode::SummaryCacheNode(SummaryCacheNodeConfig config)
    : config_(config),
      spec_(spec_for(config)),
      counting_(spec_, config.bloom.counter_bits),
      boot_id_(make_boot_id(config.boot_id)) {
    replicas_.store(std::make_shared<const ReplicaTable>(), std::memory_order_release);
    const obs::Labels labels{{"node", std::to_string(config_.node_id)}};
    metric_updates_sent_ = obs::metrics().counter(
        "sc_node_updates_sent_total", "SC-ICP update datagrams encoded for broadcast", labels);
    metric_updates_applied_ = obs::metrics().counter(
        "sc_node_updates_applied_total", "Sibling update messages applied", labels);
    metric_updates_rejected_ = obs::metrics().counter(
        "sc_node_updates_rejected_total", "Sibling updates rejected (hash-spec mismatch)",
        labels);
    metric_replica_swaps_ = obs::metrics().counter(
        "sc_node_replica_swaps_total",
        "Sibling replica snapshots atomically published (RCU swaps)", labels);
    metric_divergences_ = obs::metrics().counter(
        "sc_node_replica_divergence_total",
        "Sibling replicas dropped after a sequence gap or sender reboot", labels);
    metric_resyncs_ = obs::metrics().counter(
        "sc_node_resyncs_total",
        "Unsynced or quarantined sibling streams reinitialized by a full bitmap", labels);
}

void SummaryCacheNode::on_cache_insert(std::string_view url) {
    const MutexLock lock(local_mu_);
    counting_.insert(url);
}

void SummaryCacheNode::on_cache_erase(std::string_view url) {
    const MutexLock lock(local_mu_);
    counting_.erase(url);
}

std::size_t SummaryCacheNode::rebuild_from_directory(const CacheStore& store) {
    std::size_t count = 0;
    // The leaf lock is taken per entry, inside the walk: the store's locks
    // come first, as they do when a hook fires.
    store.for_each_entry([this, &count](const CacheStore::Entry& e) {
        on_cache_insert(e.url);
        ++count;
    });
    // The recovered baseline is served whole as a DIRREQ answer, not
    // streamed as a delta — drop the bit-flip log the inserts accumulated.
    discard_delta();
    return count;
}

std::vector<std::vector<std::uint8_t>> SummaryCacheNode::encode_pending_updates() {
    const MutexLock lock(local_mu_);
    DeltaLog delta = counting_.take_delta();
    if (delta.empty()) return {};
    const std::vector<std::uint32_t> records = delta.encode();

    // Delta vs full bitmap: pick the smaller wire encoding (Section VI-A;
    // the Squid cache-digest variant always sends the full array). Both
    // costs include per-chunk header + spec framing — comparing the raw
    // record bytes against a framed full previously mis-elected large
    // chunked deltas.
    const std::size_t delta_bytes = dirupdate_delta_wire_bytes(records.size());
    const std::size_t full_bytes = dirupdate_full_wire_bytes(spec_);
    const bool send_full = full_bytes < delta_bytes && full_bytes <= kMaxIcpDatagram;
    std::vector<std::vector<std::uint8_t>> out;
    if (send_full) {
        // The elected full replaces delta records that were drained from
        // the log, so it must consume a sequence slot: if it is lost, the
        // next delta shows up as a gap and triggers a resync instead of a
        // silent divergence.
        ++delta_seq_;
        out.push_back(encode_full_update_locked());
    } else {
        out = encode_delta_chunks(records);
    }
    metric_updates_sent_.inc(out.size());
    obs::trace(obs::TraceEventType::summary_update_emitted,
               static_cast<std::uint16_t>(config_.node_id), out.size(), send_full ? 1 : 0);
    return out;
}

std::vector<std::vector<std::uint8_t>> SummaryCacheNode::encode_delta_chunks(
    std::span<const std::uint32_t> records) {
    std::vector<std::vector<std::uint8_t>> out;
    for (std::size_t off = 0; off < records.size(); off += kMaxRecordsPerUpdate) {
        const std::size_t count = std::min(kMaxRecordsPerUpdate, records.size() - off);
        IcpDirUpdate msg;
        msg.request_number = delta_seq_++;
        msg.sender_host = config_.node_id;
        msg.boot_id = boot_id_;
        msg.spec = spec_;
        msg.full = false;
        msg.records.assign(records.begin() + static_cast<std::ptrdiff_t>(off),
                           records.begin() + static_cast<std::ptrdiff_t>(off + count));
        out.push_back(encode_dirupdate(msg));
    }
    return out;
}

std::vector<std::uint8_t> SummaryCacheNode::encode_full_update() {
    const MutexLock lock(local_mu_);
    return encode_full_update_locked();
}

std::vector<std::uint8_t> SummaryCacheNode::encode_full_update_locked() {
    IcpDirUpdate msg;
    // A full bitmap is a snapshot, not churn: it advertises the sequence
    // the next delta will carry so the receiver resumes gap detection
    // there. (Flips still sitting unencoded in the delta log are already
    // folded into the bitmap; their later delta records are idempotent.)
    msg.request_number = delta_seq_;
    msg.sender_host = config_.node_id;
    msg.boot_id = boot_id_;
    msg.spec = spec_;
    msg.full = true;
    msg.bitmap_words = bitmap_words_of(counting_.bits());
    return encode_dirupdate(msg);
}

std::vector<std::uint8_t> SummaryCacheNode::encode_seq_heartbeat() {
    IcpDirUpdate msg;
    // An empty delta advertising the sequence the next real delta will
    // use, consuming nothing. A receiver in sync drops it; one that lost
    // the tail of the stream sees the gap and quarantines/resyncs.
    {
        const MutexLock lock(local_mu_);
        msg.request_number = delta_seq_;
    }
    msg.sender_host = config_.node_id;
    msg.boot_id = boot_id_;
    msg.spec = spec_;
    return encode_dirupdate(msg);
}

std::vector<std::vector<std::uint8_t>> SummaryCacheNode::encode_full_update_chunks() {
    // Snapshot under the leaf lock, encode outside it: a large bitmap must
    // not stall the cache hooks waiting on the lock.
    std::vector<std::uint32_t> words;
    std::uint32_t seq = 0;
    {
        const MutexLock lock(local_mu_);
        words = bitmap_words_of(counting_.bits());
        seq = delta_seq_;
    }
    std::vector<std::vector<std::uint8_t>> out;
    for (std::size_t off = 0; off < words.size(); off += kMaxWordsPerFullChunk) {
        const std::size_t count = std::min(kMaxWordsPerFullChunk, words.size() - off);
        IcpDirUpdate msg;
        msg.request_number = seq;
        msg.sender_host = config_.node_id;
        msg.boot_id = boot_id_;
        msg.word_offset = static_cast<std::uint32_t>(off);
        msg.spec = spec_;
        msg.full = true;
        msg.bitmap_words.assign(words.begin() + static_cast<std::ptrdiff_t>(off),
                                words.begin() + static_cast<std::ptrdiff_t>(off + count));
        out.push_back(encode_dirupdate(msg));
    }
    return out;
}

void SummaryCacheNode::discard_delta() {
    const MutexLock lock(local_mu_);
    (void)counting_.take_delta();
}

BloomFilter SummaryCacheNode::local_bits() const {
    const MutexLock lock(local_mu_);
    return counting_.bits();
}

SummaryCacheNode::ReplicaTable::const_iterator SummaryCacheNode::find_replica(
    const ReplicaTable& table, NodeId sibling) {
    const auto pos =
        std::lower_bound(table.begin(), table.end(), sibling,
                         [](const auto& entry, NodeId id) { return entry.first < id; });
    return (pos != table.end() && pos->first == sibling) ? pos : table.end();
}

SummaryApplyResult SummaryCacheNode::apply_sibling_update(const IcpDirUpdate& update) {
    // RCU writer: build the successor snapshot off the published table,
    // then swap it in. Readers keep probing the old snapshot meanwhile.
    const MutexLock lock(replica_write_mu_);
    return update.full ? apply_full_locked(update) : apply_delta_locked(update);
}

void SummaryCacheNode::store_replica_locked(NodeId sibling,
                                            std::shared_ptr<BloomFilter> filter) {
    const auto current = replicas_.load(std::memory_order_acquire);
    auto pos = std::lower_bound(current->begin(), current->end(), sibling,
                                [](const auto& entry, NodeId id) { return entry.first < id; });
    const bool known = pos != current->end() && pos->first == sibling;
    auto next = std::make_shared<ReplicaTable>(*current);
    if (known)
        (*next)[static_cast<std::size_t>(pos - current->begin())].second = std::move(filter);
    else
        next->insert(next->begin() + (pos - current->begin()), {sibling, std::move(filter)});
    publish_replicas(std::move(next));
}

void SummaryCacheNode::quarantine_locked(NodeId sibling, PeerStream& stream,
                                         std::uint32_t boot_id) {
    const auto current = replicas_.load(std::memory_order_acquire);
    const auto pos = find_replica(*current, sibling);
    if (pos != current->end()) {
        auto next = std::make_shared<ReplicaTable>(*current);
        next->erase(next->begin() + (pos - current->begin()));
        publish_replicas(std::move(next));
    }
    obs::trace(obs::TraceEventType::replica_quarantined,
               static_cast<std::uint16_t>(config_.node_id), sibling, stream.expected_seq);
    stream.boot_id = boot_id;
    stream.expected_seq = 0;
    stream.quarantined = true;
    stream.pending.reset();
    metric_divergences_.inc();
}

SummaryApplyResult SummaryCacheNode::apply_delta_locked(const IcpDirUpdate& update) {
    const NodeId sender = update.sender_host;
    const auto it = streams_.find(sender);
    if (it == streams_.end()) {
        // First contact via delta. The old behaviour fabricated an empty
        // replica here, which in push mode under-predicts indefinitely
        // (bits set before we joined never arrive). Instead: record the
        // sender's boot and ask the transport to bootstrap via DIRREQ —
        // the replica only exists once a full bitmap has seeded it.
        PeerStream stream;
        stream.boot_id = update.boot_id;
        streams_.emplace(sender, stream);
        return SummaryApplyResult::need_bootstrap;
    }
    PeerStream& stream = it->second;
    if (stream.boot_id != update.boot_id) {
        // The sender restarted: its sequence space reset and our replica
        // describes the previous incarnation's cache.
        quarantine_locked(sender, stream, update.boot_id);
        return SummaryApplyResult::gap;
    }
    const auto current = replicas_.load(std::memory_order_acquire);
    const auto pos = find_replica(*current, sender);
    if (pos != current->end() && pos->second->spec() != update.spec) {
        metric_updates_rejected_.inc();
        obs::trace(obs::TraceEventType::summary_update_rejected,
                   static_cast<std::uint16_t>(config_.node_id), sender);
        return SummaryApplyResult::rejected;
    }
    if (stream.quarantined || stream.expected_seq == 0 || pos == current->end())
        return SummaryApplyResult::need_resync;
    if (update.request_number < stream.expected_seq) return SummaryApplyResult::duplicate;
    if (update.request_number > stream.expected_seq) {
        // One or more deltas were lost (or reordered beyond repair): the
        // replica has silently missed flips, so stop predicting from it.
        quarantine_locked(sender, stream, update.boot_id);
        return SummaryApplyResult::gap;
    }
    if (update.records.empty()) {
        // Sequence heartbeat: the broadcast path never emits an empty
        // delta, so zero records means the sender is advertising its
        // next sequence without consuming it. Matching our sync point
        // means we are current — nothing to do (a receiver that missed
        // the stream's tail took the gap branch above instead).
        return SummaryApplyResult::duplicate;
    }

    auto next_filter = std::make_shared<BloomFilter>(*pos->second);
    for (const std::uint32_t rec : update.records) {
        const BitFlip flip = decode_bit_flip(rec);
        next_filter->set_bit(flip.index, flip.value);
    }
    store_replica_locked(sender, std::move(next_filter));
    stream.expected_seq = update.request_number + 1;

    metric_updates_applied_.inc();
    obs::trace(obs::TraceEventType::summary_update_applied,
               static_cast<std::uint16_t>(config_.node_id), sender, 0);
    return SummaryApplyResult::applied;
}

SummaryApplyResult SummaryCacheNode::apply_full_locked(const IcpDirUpdate& update) {
    const NodeId sender = update.sender_host;
    PeerStream& stream = streams_[sender];  // fulls may arrive before any delta
    const bool was_unsynced = stream.quarantined || stream.expected_seq == 0;
    if (!was_unsynced && stream.boot_id == update.boot_id &&
        update.request_number < stream.expected_seq)
        return SummaryApplyResult::stale;  // snapshot older than our sync point

    const std::size_t total_words = (update.spec.table_bits + 31) / 32;
    std::span<const std::uint32_t> words;
    if (update.word_offset == 0 && update.bitmap_words.size() == total_words) {
        // Single-datagram fast path (and the final state of a one-chunk
        // "chunked" encoding).
        stream.pending.reset();
        words = update.bitmap_words;
    } else {
        if (update.word_offset == 0) {
            PendingFull pending;
            pending.boot_id = update.boot_id;
            pending.seq = update.request_number;
            pending.spec = update.spec;
            pending.words.assign(total_words, 0);
            stream.pending = std::move(pending);
        } else if (!stream.pending || stream.pending->boot_id != update.boot_id ||
                   stream.pending->seq != update.request_number ||
                   stream.pending->spec != update.spec ||
                   stream.pending->filled != update.word_offset) {
            // A chunk was lost, reordered, or belongs to a different
            // snapshot: abandon the reassembly. The resync retry loop will
            // request a fresh one.
            stream.pending.reset();
            return SummaryApplyResult::partial;
        }
        PendingFull& pending = *stream.pending;
        std::copy(update.bitmap_words.begin(), update.bitmap_words.end(),
                  pending.words.begin() + static_cast<std::ptrdiff_t>(update.word_offset));
        pending.filled = update.word_offset + update.bitmap_words.size();
        if (pending.filled < total_words) return SummaryApplyResult::partial;
        words = pending.words;
    }

    auto next_filter = std::make_shared<BloomFilter>(update.spec);
    apply_bitmap_words(*next_filter, words);
    store_replica_locked(sender, std::move(next_filter));
    stream.boot_id = update.boot_id;
    stream.expected_seq = update.request_number;
    stream.quarantined = false;
    stream.pending.reset();
    if (was_unsynced) metric_resyncs_.inc();

    metric_updates_applied_.inc();
    obs::trace(obs::TraceEventType::summary_update_applied,
               static_cast<std::uint16_t>(config_.node_id), sender, 1);
    return SummaryApplyResult::applied;
}

void SummaryCacheNode::forget_sibling(NodeId sibling) {
    const MutexLock lock(replica_write_mu_);
    streams_.erase(sibling);
    const auto current = replicas_.load(std::memory_order_acquire);
    const auto pos = find_replica(*current, sibling);
    if (pos == current->end()) return;
    auto next = std::make_shared<ReplicaTable>(*current);
    next->erase(next->begin() + (pos - current->begin()));
    publish_replicas(std::move(next));
}

bool SummaryCacheNode::sibling_needs_resync(NodeId sibling) const {
    const MutexLock lock(replica_write_mu_);
    const auto it = streams_.find(sibling);
    if (it == streams_.end()) return true;  // never heard a thing: bootstrap
    return it->second.quarantined || it->second.expected_seq == 0;
}

std::vector<NodeId> SummaryCacheNode::siblings_awaiting_resync() const {
    const MutexLock lock(replica_write_mu_);
    std::vector<NodeId> out;
    for (const auto& [id, stream] : streams_)
        if (stream.quarantined || stream.expected_seq == 0) out.push_back(id);
    return out;
}

void SummaryCacheNode::publish_replicas(std::shared_ptr<const ReplicaTable> next) {
    replicas_.store(std::move(next), std::memory_order_release);
    metric_replica_swaps_.inc();
}

std::vector<NodeId> SummaryCacheNode::promising_siblings(std::string_view url) const {
    const auto table = replicas_.load(std::memory_order_acquire);
    std::vector<NodeId> out;
    // Hash once per distinct spec (normally all siblings share ours),
    // into the inline buffer — no heap traffic on the probe path.
    BloomIndexes own_indexes;
    bloom_indexes(url, spec_, own_indexes);
    for (const auto& [id, filter] : *table) {
        const bool promising = (filter->spec() == spec_)
                                   ? filter->may_contain(own_indexes.span())
                                   : filter->may_contain(url);
        if (promising) out.push_back(id);
    }
    return out;
}

SC_HOT_PATH bool SummaryCacheNode::sibling_may_contain(NodeId sibling,
                                                       std::string_view url) const {
    const auto table = replicas_.load(std::memory_order_acquire);
    const auto pos = find_replica(*table, sibling);
    return pos != table->end() && pos->second->may_contain(url);
}

std::shared_ptr<const BloomFilter> SummaryCacheNode::sibling_filter(NodeId sibling) const {
    const auto table = replicas_.load(std::memory_order_acquire);
    const auto pos = find_replica(*table, sibling);
    return pos == table->end() ? nullptr : pos->second;
}

}  // namespace sc

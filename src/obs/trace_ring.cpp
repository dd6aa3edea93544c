#include "obs/trace_ring.hpp"

#include <algorithm>
#include <chrono>

#include "util/thread_annotations.hpp"

namespace sc::obs {

const char* trace_event_name(TraceEventType t) {
    switch (t) {
        case TraceEventType::none: return "none";
        case TraceEventType::summary_update_emitted: return "summary_update_emitted";
        case TraceEventType::summary_update_applied: return "summary_update_applied";
        case TraceEventType::summary_update_rejected: return "summary_update_rejected";
        case TraceEventType::false_positive_probe: return "false_positive_probe";
        case TraceEventType::remote_hit: return "remote_hit";
        case TraceEventType::icp_timeout: return "icp_timeout";
        case TraceEventType::sibling_dead: return "sibling_dead";
        case TraceEventType::sibling_recovered: return "sibling_recovered";
        case TraceEventType::replica_quarantined: return "replica_quarantined";
        case TraceEventType::resync_requested: return "resync_requested";
        case TraceEventType::resync_served: return "resync_served";
        case TraceEventType::sibling_joined: return "sibling_joined";
        case TraceEventType::session_idle_closed: return "session_idle_closed";
    }
    return "?";
}

namespace {

std::uint64_t monotonic_ns() {
    return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                          std::chrono::steady_clock::now().time_since_epoch())
                                          .count());
}

std::uint64_t next_ring_id() {
    static std::atomic<std::uint64_t> counter{1};
    return counter.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

/// One thread's events, or the retired ring: slot i % capacity holds event
/// i. Slots are allocated a page at a time as events arrive, so a thread
/// that records a handful of events holds one page, not `capacity` slots,
/// and growing never copies events.
struct TraceRing::Buffer {
    static constexpr std::size_t kPageSlots = 128;  ///< 4 KiB of events

    explicit Buffer(std::size_t cap) : capacity(cap) {}

    const std::size_t capacity;
    Mutex mu;
    std::vector<std::unique_ptr<TraceEvent[]>> pages SC_GUARDED_BY(mu);
    std::uint64_t next SC_GUARDED_BY(mu) = 0;     ///< total events ever recorded
    std::uint64_t drained SC_GUARDED_BY(mu) = 0;  ///< events consumed by drain()

    [[nodiscard]] TraceEvent& slot(std::uint64_t i) SC_REQUIRES(mu) {
        const std::size_t s = i % capacity;
        return pages[s / kPageSlots][s % kPageSlots];
    }

    /// The slot for event `next`, allocating its page on first use.
    TraceEvent& next_slot() SC_REQUIRES(mu) {
        const std::size_t s = next % capacity;
        if (s / kPageSlots == pages.size())
            pages.push_back(std::make_unique<TraceEvent[]>(std::min(kPageSlots, capacity - s)));
        return slot(next);
    }

    [[nodiscard]] std::size_t allocated_slots() const SC_REQUIRES(mu) {
        return std::min(pages.size() * kPageSlots, capacity);
    }

    /// Oldest undrained event still held (older ones were overwritten).
    [[nodiscard]] std::uint64_t first_undrained() const SC_REQUIRES(mu) {
        return std::max(drained, next > capacity ? next - capacity : 0);
    }
};

/// The ring proper. The TraceRing owns it; recording threads hold it
/// weakly so their exit can retire into it only while it exists.
struct TraceRing::Shared {
    explicit Shared(std::size_t capacity) : retired(capacity) {}

    Mutex mu;
    std::vector<std::shared_ptr<Buffer>> live SC_GUARDED_BY(mu);
    Buffer retired;  ///< exited threads' undrained events

    /// Move `buf`'s undrained events into the retired ring (oldest
    /// overwritten first) and unregister it, so it dies with its thread.
    void retire(const std::shared_ptr<Buffer>& buf) SC_EXCLUDES(mu) {
        {
            const MutexLock from(buf->mu);
            const MutexLock to(retired.mu);
            for (std::uint64_t i = buf->first_undrained(); i < buf->next; ++i) {
                retired.next_slot() = buf->slot(i);
                ++retired.next;
            }
            buf->drained = buf->next;
        }
        const MutexLock lock(mu);
        std::erase(live, buf);
    }
};

/// The calling thread's buffers, one per ring it has recorded into.
/// Destroyed at thread exit, which retires each into its ring.
struct TraceRing::ThreadBuffers {
    struct Entry {
        std::uint64_t ring_id;
        std::weak_ptr<Shared> ring;
        std::shared_ptr<Buffer> buffer;
    };
    std::vector<Entry> entries;

    ThreadBuffers() = default;
    ThreadBuffers(const ThreadBuffers&) = delete;
    ThreadBuffers& operator=(const ThreadBuffers&) = delete;
    ~ThreadBuffers() {
        for (const Entry& e : entries)
            if (const auto ring = e.ring.lock()) ring->retire(e.buffer);
    }
};

TraceRing::TraceRing(std::size_t capacity_per_thread)
    : id_(next_ring_id()),
      capacity_(capacity_per_thread == 0 ? 1 : capacity_per_thread),
      shared_(std::make_shared<Shared>(capacity_)) {}

TraceRing& TraceRing::global() {
    static TraceRing* instance = new TraceRing();  // leaked: outlives every thread
    return *instance;
}

TraceRing::Buffer& TraceRing::local_buffer() {
    thread_local ThreadBuffers mine;
    // Keyed by ring id, not address: a test-scoped ring destroyed and
    // another allocated at the same address must not inherit its buffer.
    for (const auto& e : mine.entries)
        if (e.ring_id == id_) return *e.buffer;
    // First event of this thread into this ring. Forget rings that died
    // since the last registration, freeing their buffers.
    std::erase_if(mine.entries, [](const auto& e) { return e.ring.expired(); });
    auto buffer = std::make_shared<Buffer>(capacity_);
    {
        const MutexLock lock(shared_->mu);
        shared_->live.push_back(buffer);
    }
    mine.entries.push_back({id_, shared_, buffer});
    return *buffer;
}

void TraceRing::record(TraceEventType type, std::uint16_t node, std::uint64_t a,
                       std::uint64_t b) {
    if (!enabled_.load(std::memory_order_relaxed)) return;
    Buffer& buf = local_buffer();
    const MutexLock lock(buf.mu);
    TraceEvent& slot = buf.next_slot();
    slot.ns = monotonic_ns();
    slot.type = type;
    slot.node = node;
    slot.seq = static_cast<std::uint32_t>(buf.next);
    slot.a = a;
    slot.b = b;
    ++buf.next;
}

std::vector<TraceEvent> TraceRing::drain() {
    std::vector<std::shared_ptr<Buffer>> buffers;
    {
        const MutexLock lock(shared_->mu);
        buffers = shared_->live;
    }
    std::vector<TraceEvent> out;
    const auto take = [&out](Buffer& buf) {
        const MutexLock lock(buf.mu);
        for (std::uint64_t i = buf.first_undrained(); i < buf.next; ++i)
            out.push_back(buf.slot(i));
        buf.drained = buf.next;
    };
    for (const auto& buf : buffers) take(*buf);
    // Retired events last: a thread exiting mid-drain moves its events
    // under both its buffer's lock and the retired ring's, so each event
    // is taken exactly once, by this drain or the next.
    take(shared_->retired);
    std::sort(out.begin(), out.end(), [](const TraceEvent& x, const TraceEvent& y) {
        return x.ns != y.ns ? x.ns < y.ns : x.seq < y.seq;
    });
    return out;
}

void TraceRing::clear() { (void)drain(); }

std::size_t TraceRing::retained_slots() const {
    const MutexLock lock(shared_->mu);
    std::size_t slots = 0;
    for (const auto& buf : shared_->live) {
        const MutexLock buf_lock(buf->mu);
        slots += buf->allocated_slots();
    }
    const MutexLock retired_lock(shared_->retired.mu);
    return slots + shared_->retired.allocated_slots();
}

std::string trace_to_json(const std::vector<TraceEvent>& events) {
    std::string out = "[";
    bool first = true;
    for (const TraceEvent& e : events) {
        if (!first) out += ',';
        first = false;
        out += "{\"ns\":" + std::to_string(e.ns) + ",\"type\":\"";
        out += trace_event_name(e.type);
        out += "\",\"node\":" + std::to_string(e.node) + ",\"a\":" + std::to_string(e.a) +
               ",\"b\":" + std::to_string(e.b) + '}';
    }
    out += ']';
    return out;
}

}  // namespace sc::obs

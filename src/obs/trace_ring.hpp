// sc::obs — per-thread event-trace ring buffers whose memory follows use.
//
// Records protocol events (summary update emitted/applied/rejected,
// false-positive probe, remote hit, ICP timeout, liveness transitions)
// with monotonic nanosecond timestamps. Each thread writes into its own
// buffer, so recording never contends with other recorders; when a buffer
// is full the oldest events are overwritten (tracing must never block or
// grow the protocol path). drain() collects and clears every thread's
// undrained events, merged in timestamp order.
//
// Memory bound: a thread's buffer grows with the events it records, up to
// the per-thread capacity, and is freed when the thread exits. Its
// undrained events move into one retired ring of the same capacity
// (oldest overwritten first), so drain() still returns them. A ring
// therefore holds at most (live recording threads + 1) x capacity slots,
// however many threads come and go.
//
// Recording takes the buffer's per-thread mutex, which is uncontended
// except while a drain is copying that same buffer — a deliberate trade:
// ~20 ns on an event that already reads the monotonic clock, in exchange
// for race-free drains from any thread.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace sc::obs {

/// Protocol trace points (docs/OBSERVABILITY.md catalogues the payloads).
enum class TraceEventType : std::uint16_t {
    none = 0,
    summary_update_emitted,   ///< a = datagrams encoded, b = full bitmap? 1 : 0
    summary_update_applied,   ///< a = sender node, b = full? 1 : 0
    summary_update_rejected,  ///< a = sender node (spec mismatch)
    false_positive_probe,     ///< a = sibling that replied MISS after the summary said hit
    remote_hit,               ///< a = sibling that served the document
    icp_timeout,              ///< a = replies missing when the wait expired
    sibling_dead,             ///< a = sibling declared dead (liveness)
    sibling_recovered,        ///< a = sibling heard from again
    replica_quarantined,      ///< a = sender whose replica diverged, b = expected seq
    resync_requested,         ///< a = peer we sent DIRREQ to
    resync_served,            ///< a = peer whose DIRREQ we answered with a full bitmap
    sibling_joined,           ///< a = sibling learned at runtime (dynamic membership)
    session_idle_closed,      ///< a = session id reaped by the idle keep-alive sweep
};

[[nodiscard]] const char* trace_event_name(TraceEventType t);

struct TraceEvent {
    std::uint64_t ns = 0;   ///< steady_clock nanoseconds (monotonic)
    TraceEventType type = TraceEventType::none;
    std::uint16_t node = 0; ///< reporting node id (0 when not applicable)
    std::uint32_t seq = 0;  ///< per-thread sequence number (drain ordering)
    std::uint64_t a = 0;    ///< type-specific payload
    std::uint64_t b = 0;
};

class TraceRing {
public:
    explicit TraceRing(std::size_t capacity_per_thread = 4096);

    TraceRing(const TraceRing&) = delete;
    TraceRing& operator=(const TraceRing&) = delete;

    /// Process-wide ring (leaked singleton, capacity 4096 per thread).
    [[nodiscard]] static TraceRing& global();

    void record(TraceEventType type, std::uint16_t node = 0, std::uint64_t a = 0,
                std::uint64_t b = 0);

    /// Collect (and mark as consumed) every thread's undrained events,
    /// exited threads' included, merged by timestamp. Events overwritten
    /// before a drain are lost — that is the ring semantics.
    [[nodiscard]] std::vector<TraceEvent> drain();

    /// Drop all undrained events.
    void clear();

    void set_enabled(bool enabled) { enabled_.store(enabled, std::memory_order_relaxed); }
    [[nodiscard]] bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
    [[nodiscard]] std::size_t capacity_per_thread() const { return capacity_; }

    /// Event slots allocated right now: live threads' buffers plus the
    /// retired ring. Never above (live recording threads + 1) x capacity.
    [[nodiscard]] std::size_t retained_slots() const;

private:
    struct Buffer;
    struct Shared;
    struct ThreadBuffers;

    [[nodiscard]] Buffer& local_buffer();

    const std::uint64_t id_;  ///< distinguishes rings across reuse of addresses
    const std::size_t capacity_;
    std::atomic<bool> enabled_{true};
    /// Threads hold this weakly: one that exits after the ring is gone
    /// finds nothing to retire into and leaves it alone.
    std::shared_ptr<Shared> shared_;
};

/// Shorthand: record into the global ring.
inline void trace(TraceEventType type, std::uint16_t node = 0, std::uint64_t a = 0,
                  std::uint64_t b = 0) {
    TraceRing::global().record(type, node, a, b);
}

/// JSON array rendering of drained events (admin endpoint / tools).
[[nodiscard]] std::string trace_to_json(const std::vector<TraceEvent>& events);

}  // namespace sc::obs

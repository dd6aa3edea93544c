// DeltaBatcher — when to turn directory churn into one wire update.
//
// Owns the paper's Section V-A update-delay decision (threshold fraction
// or time interval) plus the Section VI-B "enough changes to fill an IP
// packet" batching floor, and makes that decision safe to drive from many
// worker threads at once: an epoch-based compare-and-swap elects exactly
// one flusher per threshold crossing, so concurrent inserts coalesce into
// a single delta/full-bitmap flush instead of a per-insert broadcast.
//
// It decides WHEN, never WHAT: the cache hooks write each directory
// change straight into the summary (the simulators' BloomSummary, the
// proxy's SummaryCacheNode), and the elected flusher encodes whatever
// that summary holds. The batcher takes no lock, so a flush callback may
// call back into the cache (document_count, even insert) — see
// tests/core/delta_batcher_test.cpp.
//
// Single-threaded callers (the simulators) use the same object; the
// atomics cost nothing there and the decision logic is shared, which is
// the point — one implementation of the §V-A rules for sim and proxy.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>

#include "obs/metrics.hpp"

namespace sc::core {

struct DeltaBatcherConfig {
    /// Fraction of cached documents that must be unreflected before a
    /// flush is due (0 = flush after every change). Ignored when
    /// update_interval_seconds > 0.
    double update_threshold = 0.01;
    /// > 0 switches to the time-based policy: a flush is due when this
    /// many seconds passed since the last one (and something changed).
    double update_interval_seconds = 0.0;
    /// Also require this many pending summary changes before flushing —
    /// the prototype "sends updates whenever there are enough changes to
    /// fill an IP packet" (Section VI-B). 0 disables the floor. The floor
    /// does NOT reset the unreflected count; the flush stays due.
    std::uint64_t min_update_changes = 0;
};

class DeltaBatcher {
public:
    explicit DeltaBatcher(DeltaBatcherConfig config);

    // --- update-delay accounting -----------------------------------------
    /// A document entered the directory that the published summary does
    /// not reflect yet.
    void on_new_document() { unreflected_.fetch_add(1, std::memory_order_relaxed); }

    [[nodiscard]] std::uint64_t unreflected() const {
        return unreflected_.load(std::memory_order_relaxed);
    }

    /// Is a flush due? Exactly the UpdateThresholdPolicy /
    /// TimeIntervalPolicy criterion, keyed by config.
    [[nodiscard]] bool due(std::uint64_t cached_docs, double now) const;

    /// Try to become THE flusher for the current epoch. Returns the batch
    /// size (documents coalesced into this flush) if this caller won, or
    /// nullopt when no flush is due, the floor blocks it, or another
    /// thread already holds the flush. `pending_changes` feeds the
    /// min_update_changes floor (pass 0 when unused).
    [[nodiscard]] std::optional<std::uint64_t> try_begin_flush(std::uint64_t cached_docs,
                                                               double now,
                                                               std::uint64_t pending_changes);

    /// Complete the flush begun by try_begin_flush: stamps the publish
    /// time (time mode) and records the batch size histogram.
    void finish_flush(double now, std::uint64_t batch_size);

    /// Flush epochs completed (each coalesces >= 1 insert).
    [[nodiscard]] std::uint64_t epoch() const {
        return epoch_.load(std::memory_order_relaxed);
    }

    [[nodiscard]] const DeltaBatcherConfig& config() const { return config_; }

private:
    DeltaBatcherConfig config_;
    std::atomic<std::uint64_t> unreflected_{0};
    std::atomic<std::uint64_t> epoch_{0};
    std::atomic<bool> flushing_{false};
    std::atomic<double> last_publish_{0.0};

    obs::Histogram metric_batch_size_;
};

}  // namespace sc::core

#include "core/delta_batcher.hpp"

#include "util/sc_assert.hpp"

namespace sc::core {

DeltaBatcher::DeltaBatcher(DeltaBatcherConfig config) : config_(config) {
    SC_ASSERT(config_.update_threshold >= 0.0 && config_.update_threshold <= 1.0);
    SC_ASSERT(config_.update_interval_seconds >= 0.0);
    metric_batch_size_ = obs::metrics().histogram(
        "sc_core_delta_batch_size", "Documents coalesced into one directory-update flush",
        {1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096});
}

bool DeltaBatcher::due(std::uint64_t cached_docs, double now) const {
    const std::uint64_t unreflected = unreflected_.load(std::memory_order_relaxed);
    if (unreflected == 0) return false;
    if (config_.update_interval_seconds > 0.0)
        return now - last_publish_.load(std::memory_order_relaxed) >=
               config_.update_interval_seconds;
    if (config_.update_threshold == 0.0) return true;
    return static_cast<double>(unreflected) >=
           config_.update_threshold * static_cast<double>(cached_docs);
}

std::optional<std::uint64_t> DeltaBatcher::try_begin_flush(std::uint64_t cached_docs,
                                                           double now,
                                                           std::uint64_t pending_changes) {
    if (!due(cached_docs, now)) return std::nullopt;
    if (config_.min_update_changes > 0 && pending_changes < config_.min_update_changes)
        return std::nullopt;  // batch until the update fills an IP packet
    bool expected = false;
    if (!flushing_.compare_exchange_strong(expected, true, std::memory_order_acq_rel))
        return std::nullopt;  // another worker owns this epoch; coalesced
    const std::uint64_t batch = unreflected_.exchange(0, std::memory_order_acq_rel);
    if (batch == 0) {
        // The owning thread of the previous epoch drained the counter
        // between our due() check and the exchange; nothing left to flush.
        flushing_.store(false, std::memory_order_release);
        return std::nullopt;
    }
    epoch_.fetch_add(1, std::memory_order_relaxed);
    return batch;
}

void DeltaBatcher::finish_flush(double now, std::uint64_t batch_size) {
    SC_ASSERT(flushing_.load(std::memory_order_relaxed));
    last_publish_.store(now, std::memory_order_relaxed);
    metric_batch_size_.observe(static_cast<double>(batch_size));
    flushing_.store(false, std::memory_order_release);
}

}  // namespace sc::core

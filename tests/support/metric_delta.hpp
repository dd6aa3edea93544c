// Reading proxy counts in tests.
//
// Every proxy count lives in the process-wide obs registry, keyed by
// (name, labels). A series outlives the proxy that bumped it, so a node id
// reused in one process — a restarted proxy, a repeated or shuffled test —
// starts from whatever its predecessors counted. Tests therefore read a
// series' growth since a baseline taken right after the proxies they
// measure are constructed, and wait on it with a deadline, never a sleep.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <thread>

#include "obs/metrics.hpp"

namespace sc::test {

/// Registry growth since construction.
class MetricDelta {
public:
    MetricDelta() : base_(obs::metrics().snapshot()) {}

    /// Growth of `name` summed over every series whose labels include
    /// `subset`: a counter's value, or a histogram's observation count.
    [[nodiscard]] std::uint64_t operator()(std::string_view name,
                                           const obs::Labels& subset = {}) const {
        return total(obs::metrics().snapshot(), name, subset) - total(base_, name, subset);
    }

    /// Growth of `name` for one node (every series labelled node=<id>).
    [[nodiscard]] std::uint64_t operator()(std::string_view name, std::uint32_t node) const {
        return (*this)(name, obs::Labels{{"node", std::to_string(node)}});
    }

private:
    static std::uint64_t total(const obs::MetricsSnapshot& snap, std::string_view name,
                               const obs::Labels& subset) {
        std::uint64_t sum = 0;
        for (const auto& s : snap.series) {
            const bool match = s.name == name && std::ranges::all_of(subset, [&](const auto& l) {
                return std::ranges::find(s.labels, l) != s.labels.end();
            });
            if (match) sum += s.kind == obs::MetricKind::histogram ? s.observations : s.counter;
        }
        return sum;
    }

    obs::MetricsSnapshot base_;
};

/// Poll `pred` until it holds or `deadline` passes; false on timeout.
[[nodiscard]] inline bool eventually(const std::function<bool()>& pred,
                                     std::chrono::milliseconds deadline = std::chrono::seconds(5)) {
    const auto until = std::chrono::steady_clock::now() + deadline;
    while (!pred()) {
        if (std::chrono::steady_clock::now() >= until) return false;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return true;
}

}  // namespace sc::test

// Single-threaded layer replay for the traced run: the warm-up and the
// measured request stream of one run, fed through each layer's public
// entry points with no sockets and no other threads, timing every call.
// Multiplied by the live run's calls per request (from the registry),
// these per-call costs attribute the client latency to layers.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "workload.hpp"

namespace sc::bench {

struct LayerCost {
    std::string metric;   ///< per_layer metric name, e.g. "cache.lookup_ns"
    std::string entry;    ///< the timed entry point
    double mean_ns = 0;   ///< mean self time per call, timer overhead removed
    std::uint64_t calls = 0;
};

/// Replays each client's warm-up and then the `measured[c]` requests it
/// sent in the window, round-robin across clients, capped at `max_requests`
/// in all.
/// The replay builds 4 nodes like the mesh's (same cache, disk tier and
/// Bloom config) and always exercises the summary and ICP codecs, so every
/// layer has a measured per-call cost on every workload. A disk tier is
/// reached only through the nodes' TieredCacheStore, so its cost is part of
/// cache.lookup_ns and cache.admit_ns. `dir` holds the nodes' disk tiers
/// and is unused without one.
[[nodiscard]] std::vector<LayerCost> replay_layers(const Workload& w, const Streams& s,
                                                   const std::vector<std::uint64_t>& measured,
                                                   std::uint64_t max_requests,
                                                   const std::filesystem::path& dir);

}  // namespace sc::bench

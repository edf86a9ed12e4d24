#pragma once
/// \file inference.hpp
/// \brief Request-driven inference serving over the partitioned devices —
///        the `serve` half of the Scenario API (DESIGN.md §14).
///
/// An open-loop stream of "embed node v" queries arrives at a configured
/// QPS and is routed to the partition owning v. Serving one query needs
/// the L-hop neighborhood of v; the remote part of that neighborhood is
/// resolved into *halo units* — one per touched semantic group (any
/// member's arrival serves the whole group, the serving-side payoff of
/// the paper's fused-row compression) or one per raw boundary row — and
/// only the units missing from the device's halo cache cross the fabric.
/// Queries are micro-batched per device under a latency deadline; the
/// whole simulation is modelled time (no wall-clock reads), so a serving
/// run is bitwise reproducible at any thread count.

#include <cstdint>
#include <vector>

#include "scgnn/comm/fabric.hpp"
#include "scgnn/core/semantic_compressor.hpp"
#include "scgnn/dist/context.hpp"
#include "scgnn/graph/dataset.hpp"
#include "scgnn/partition/partition.hpp"

namespace scgnn::runtime {

/// Serving-scenario configuration.
struct ServeConfig {
    double qps = 2000.0;          ///< open-loop arrival rate (queries/s)
    std::uint32_t queries = 2000; ///< stream length
    std::uint64_t seed = 23;      ///< query-node stream seed
    /// Micro-batch budget per dispatch: a batch closes when it holds
    /// `batch_max` queries or its deadline expires, whichever first.
    /// 1 = the naive per-query path (no batching).
    std::uint32_t batch_max = 8;
    double deadline_ms = 2.0;  ///< batching window anchored at head arrival
    /// Keep fetched halo units resident per device; off = every unit is
    /// re-fetched on every touch (the naive path bench_serving compares
    /// against).
    bool halo_cache = true;
    /// Cache/fetch at semantic-group granularity (one fused row per
    /// group serves every member). Off = raw per-row units.
    bool semantic = true;
    std::uint32_t layers = 2;     ///< aggregation hops a query resolves
    std::uint32_t embed_dim = 64; ///< served embedding width (fetch bytes)
    /// Modelled service-time components (per dispatch / per touched node).
    double dispatch_overhead_ms = 0.05;
    double compute_ms_per_node = 0.0005;
    /// Latency histogram shape (quantiles are exact within one bin width).
    double hist_max_ms = 50.0;
    std::size_t hist_bins = 2048;
    comm::CostModel cost{};  ///< α–β pricing of the halo fetches
    /// Semantic grouping knobs (only read when `semantic` is on).
    core::SemanticCompressorConfig compressor{};
};

/// Outcome of one serving run (all modelled, all deterministic).
struct ServeResult {
    std::uint64_t queries = 0;
    std::uint64_t batches = 0;
    double mean_batch = 0.0;  ///< mean queries per dispatch
    double p50_ms = 0.0;
    double p99_ms = 0.0;
    double p999_ms = 0.0;
    double mean_ms = 0.0;
    double max_ms = 0.0;
    std::uint64_t cache_hits = 0;
    std::uint64_t cache_misses = 0;
    double hit_rate = 0.0;  ///< hits / (hits + misses), 0 when no touches
    double halo_mb = 0.0;   ///< fetched halo bytes / 1e6
    /// Latencies at or above ServeConfig::hist_max_ms. The histogram folds
    /// them into its top bin, so when this is non-zero the quantiles are
    /// lower bounds (mean_ms and max_ms stay exact).
    std::uint64_t clamped = 0;
};

/// Deterministic open-loop serving simulator. Build once per dataset +
/// partitioning (the static setup: DistContext and, under `semantic`,
/// the per-plan groupings), then run() any number of identical streams.
class InferenceServer {
public:
    InferenceServer(const graph::Dataset& data,
                    const partition::Partitioning& parts, ServeConfig cfg);

    /// Serve the configured query stream; pure function of the config.
    [[nodiscard]] ServeResult run() const;

    [[nodiscard]] const ServeConfig& config() const noexcept { return cfg_; }
    [[nodiscard]] const dist::DistContext& context() const noexcept {
        return ctx_;
    }

private:
    /// The public constructor, recording its own span ("serve.server_setup")
    /// from `t0_ns` on the trace clock; 0 records nothing (obs off).
    InferenceServer(const graph::Dataset& data,
                    const partition::Partitioning& parts, ServeConfig cfg,
                    std::uint64_t t0_ns);

    /// Halo-unit table of home device `home`: `unit_of[u]` is the dense
    /// unit id of remote node u (members of one semantic group share it;
    /// ~0 for nodes `home` owns) and `unit_owner[id]` the device it is
    /// fetched from. Built once per device per run().
    void unit_table(std::uint32_t home, std::vector<std::uint32_t>& unit_of,
                    std::vector<std::uint32_t>& unit_owner) const;

    /// The L-hop neighborhood of query node `v` in BFS discovery order
    /// (v first), written to `visited`. `seen` is the per-node membership
    /// stamp array; `stamp` must be fresh for each query.
    void ball(std::uint32_t v, std::uint32_t stamp,
              std::vector<std::uint32_t>& visited,
              std::vector<std::uint32_t>& seen) const;

    ServeConfig cfg_;
    dist::DistContext ctx_;
    graph::Graph graph_;  ///< the dataset's CSR (BFS edges)
    /// Per plan: the first row of each row's semantic group (the row
    /// itself when raw), empty when !semantic.
    std::vector<std::vector<std::uint32_t>> lead_row_;
};

} // namespace scgnn::runtime

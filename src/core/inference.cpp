/// \file inference.cpp
/// \brief Deterministic open-loop serving simulation (DESIGN.md §14).

#include "scgnn/runtime/inference.hpp"

#include <algorithm>

#include "scgnn/common/rng.hpp"
#include "scgnn/common/stats.hpp"
#include "scgnn/gnn/adjacency.hpp"
#include "scgnn/obs/ledger.hpp"
#include "scgnn/obs/metrics.hpp"
#include "scgnn/obs/obs.hpp"

namespace scgnn::runtime {

namespace {

/// unit_of entry of a node the home device owns (no halo unit); also the
/// "no row yet" mark while group leaders are found.
constexpr std::uint32_t kLocal = ~std::uint32_t{0};

} // namespace

InferenceServer::InferenceServer(const graph::Dataset& data,
                                 const partition::Partitioning& parts,
                                 ServeConfig cfg)
    : cfg_(std::move(cfg)),
      ctx_(data, parts, gnn::AdjNorm::kSymmetric),
      adj_(gnn::normalized_adjacency(data.graph, gnn::AdjNorm::kSymmetric)),
      num_nodes_(data.graph.num_nodes()) {
    SCGNN_CHECK(cfg_.qps > 0.0, "qps must be positive");
    SCGNN_CHECK(cfg_.queries >= 1, "need at least one query");
    SCGNN_CHECK(cfg_.batch_max >= 1, "batch_max must be at least 1");
    SCGNN_CHECK(cfg_.deadline_ms >= 0.0, "deadline must be non-negative");
    SCGNN_CHECK(cfg_.layers >= 1, "a query resolves at least one hop");
    SCGNN_CHECK(cfg_.embed_dim >= 1, "embed_dim must be at least 1");
    SCGNN_CHECK(cfg_.hist_max_ms > 0.0 && cfg_.hist_bins >= 1,
                "latency histogram needs a positive range and >= 1 bins");

    if (cfg_.semantic) {
        // One static grouping pass (the same Fig. 8 setup step training
        // runs); only the group membership survives, as each row's group
        // leader, so one fused-row fetch serves every member.
        core::SemanticCompressor comp(cfg_.compressor);
        comp.setup(ctx_);
        lead_row_.resize(ctx_.plans().size());
        std::vector<std::uint32_t> first_row;
        for (std::size_t pi = 0; pi < ctx_.plans().size(); ++pi) {
            const core::Grouping& g = comp.grouping(pi);
            first_row.assign(g.groups.size(), kLocal);
            std::vector<std::uint32_t>& lead = lead_row_[pi];
            lead.resize(g.group_of_row.size());
            for (std::uint32_t row = 0; row < lead.size(); ++row) {
                const std::int32_t gid = g.group_of_row[row];
                if (gid < 0) {
                    lead[row] = row;
                    continue;
                }
                std::uint32_t& first = first_row[static_cast<std::size_t>(gid)];
                if (first == kLocal) first = row;
                lead[row] = first;
            }
        }
    }
}

void InferenceServer::unit_table(std::uint32_t home,
                                 std::vector<std::uint32_t>& unit_of,
                                 std::vector<std::uint32_t>& unit_owner) const {
    unit_of.assign(num_nodes_, kLocal);
    unit_owner.clear();
    auto new_unit = [&](std::uint32_t owner) {
        unit_owner.push_back(owner);
        return static_cast<std::uint32_t>(unit_owner.size() - 1);
    };
    // Boundary rows into `home`: one unit per semantic group (members take
    // their leader's id; the leader is the group's first row) or per raw
    // row.
    for (std::size_t pi = 0; pi < ctx_.plans().size(); ++pi) {
        const dist::PairPlan& plan = ctx_.plans()[pi];
        if (plan.dst_part != home) continue;
        const std::vector<std::uint32_t>& src = plan.dbg.src_nodes;
        for (std::uint32_t row = 0; row < src.size(); ++row) {
            const std::uint32_t lead =
                lead_row_.empty() ? row : lead_row_[pi][row];
            unit_of[src[row]] =
                lead == row ? new_unit(plan.src_part) : unit_of[src[lead]];
        }
    }
    // Multi-hop remote nodes without a direct boundary row still cost one
    // per-node unit (fetched through their owner).
    for (std::uint32_t u = 0; u < num_nodes_; ++u) {
        if (unit_of[u] != kLocal) continue;
        const std::uint32_t o = ctx_.owner(u);
        if (o != home) unit_of[u] = new_unit(o);
    }
}

void InferenceServer::ball(std::uint32_t v, std::uint32_t stamp,
                           std::vector<std::uint32_t>& visited,
                           std::vector<std::uint32_t>& seen) const {
    // Serial BFS over the normalised adjacency, depth = layers. Nodes are
    // listed in discovery order; `seen[w] == stamp` marks membership for
    // this query only, so the array is never cleared between queries.
    visited.clear();
    visited.push_back(v);
    seen[v] = stamp;
    std::size_t frontier_lo = 0;
    for (std::uint32_t hop = 0; hop < cfg_.layers; ++hop) {
        const std::size_t frontier_hi = visited.size();
        for (std::size_t fi = frontier_lo; fi < frontier_hi; ++fi) {
            for (const std::uint32_t w : adj_.row_cols(visited[fi])) {
                if (seen[w] == stamp) continue;
                seen[w] = stamp;
                visited.push_back(w);
            }
        }
        frontier_lo = frontier_hi;
    }
}

ServeResult InferenceServer::run() const {
    const std::uint32_t p = ctx_.num_parts();
    struct Query {
        double arrival_ms;
        std::uint32_t node;
    };
    // Open-loop arrivals at fixed spacing; the node stream is one seeded
    // sequence drawn before routing, so it is independent of P. Each
    // device's list is sized before it is filled, so the run's heap
    // allocations do not grow with the stream length.
    std::vector<std::vector<Query>> per_device(p);
    {
        std::vector<std::uint32_t> stream(cfg_.queries);
        std::vector<std::size_t> count(p, 0);
        Rng rng(cfg_.seed);
        for (std::uint32_t& v : stream) {
            v = static_cast<std::uint32_t>(rng.uniform_u64(num_nodes_));
            ++count[ctx_.owner(v)];
        }
        for (std::uint32_t d = 0; d < p; ++d) per_device[d].reserve(count[d]);
        const double gap_ms = 1e3 / cfg_.qps;
        for (std::uint32_t i = 0; i < cfg_.queries; ++i)
            per_device[ctx_.owner(stream[i])].push_back(
                {i * gap_ms, stream[i]});
    }

    comm::Fabric fabric(p, cfg_.cost);
    Histogram hist(0.0, cfg_.hist_max_ms, cfg_.hist_bins);
    RunningStat lat;
    ServeResult res;
    res.queries = cfg_.queries;
    std::uint64_t fetched_bytes = 0;
    const std::uint64_t unit_bytes =
        static_cast<std::uint64_t>(cfg_.embed_dim) * sizeof(float);

    // Hot-loop state, all flat arrays sized once (a device has fewer
    // units than nodes): the BFS list and its per-node query stamp, the
    // per-unit batch stamp (batch dedupe) and cached flag (the device's
    // halo cache), and the per-owner bytes of one dispatch.
    std::vector<std::uint32_t> unit_of, unit_owner, visited, in_batch;
    std::vector<std::uint8_t> cached;
    unit_owner.reserve(num_nodes_);
    visited.reserve(num_nodes_);
    in_batch.reserve(num_nodes_);
    cached.reserve(num_nodes_);
    std::vector<std::uint32_t> seen(num_nodes_, 0);
    std::vector<std::uint64_t> fetch_bytes(p, 0);
    std::uint32_t query_stamp = 0, batch_stamp = 0;
    for (std::uint32_t d = 0; d < p; ++d) {
        const std::vector<Query>& q = per_device[d];
        if (q.empty()) continue;
        unit_table(d, unit_of, unit_owner);
        in_batch.assign(unit_owner.size(), 0);
        cached.assign(unit_owner.size(), 0);
        double busy_until_ms = 0.0;
        std::size_t i = 0;
        while (i < q.size()) {
            // The batch window is anchored at the head arrival: members
            // are the (≤ batch_max) queries arriving within deadline_ms,
            // and dispatch happens when the batch fills or the window
            // closes — never before the device frees up.
            const double t0 = q[i].arrival_ms;
            std::size_t j = i + 1;
            while (j < q.size() && j - i < cfg_.batch_max &&
                   q[j].arrival_ms <= t0 + cfg_.deadline_ms)
                ++j;
            const double close_ms =
                j - i == cfg_.batch_max
                    ? q[j - 1].arrival_ms
                    : std::min(t0 + cfg_.deadline_ms,
                               q.back().arrival_ms);
            const double dispatch_ms = std::max(busy_until_ms, close_ms);

            // Each remote unit counts once per batch, at its first touch:
            // a cache hit, or a miss fetched from its owner (and cached).
            ++batch_stamp;
            std::size_t touched = 0;
            for (std::size_t k = i; k < j; ++k) {
                ball(q[k].node, ++query_stamp, visited, seen);
                touched += visited.size();
                for (const std::uint32_t u : visited) {
                    const std::uint32_t id = unit_of[u];
                    if (id == kLocal || in_batch[id] == batch_stamp) continue;
                    in_batch[id] = batch_stamp;
                    if (cfg_.halo_cache && cached[id] != 0) {
                        ++res.cache_hits;
                        continue;
                    }
                    ++res.cache_misses;
                    fetch_bytes[unit_owner[id]] += unit_bytes;
                    cached[id] = 1;
                }
            }
            // Fetches go out in ascending owner order.
            double fetch_ms = 0.0;
            for (std::uint32_t o = 0; o < p; ++o) {
                if (fetch_bytes[o] == 0) continue;
                fetch_ms += fabric.send(o, d, fetch_bytes[o]).modelled_ms;
                fetched_bytes += fetch_bytes[o];
                fetch_bytes[o] = 0;
            }

            const double service_ms =
                cfg_.dispatch_overhead_ms +
                cfg_.compute_ms_per_node * static_cast<double>(touched) +
                fetch_ms;
            const double done_ms = dispatch_ms + service_ms;
            busy_until_ms = done_ms;
            for (std::size_t k = i; k < j; ++k) {
                const double l = done_ms - q[k].arrival_ms;
                hist.add(l);
                lat.add(l);
                if (l >= cfg_.hist_max_ms) ++res.clamped;
                if (obs::enabled())
                    obs::registry()
                        .histogram("serve.latency_ms", 0.0, cfg_.hist_max_ms,
                                   cfg_.hist_bins)
                        .observe(l);
            }
            ++res.batches;
            i = j;
        }
    }

    res.mean_batch = res.batches > 0
                         ? static_cast<double>(res.queries) /
                               static_cast<double>(res.batches)
                         : 0.0;
    res.p50_ms = hist.quantile(0.50);
    res.p99_ms = hist.quantile(0.99);
    res.p999_ms = hist.quantile(0.999);
    res.mean_ms = lat.mean();
    res.max_ms = lat.max();
    const std::uint64_t touches = res.cache_hits + res.cache_misses;
    res.hit_rate = touches > 0 ? static_cast<double>(res.cache_hits) /
                                     static_cast<double>(touches)
                               : 0.0;
    res.halo_mb = static_cast<double>(fetched_bytes) / 1e6;

    if (obs::enabled()) {
        obs::Registry& reg = obs::registry();
        reg.counter("serve.queries").add(res.queries);
        reg.counter("serve.batches").add(res.batches);
        reg.counter("serve.cache_hits").add(res.cache_hits);
        reg.counter("serve.cache_misses").add(res.cache_misses);
        obs::record_final("serve.p50_ms", res.p50_ms);
        obs::record_final("serve.p99_ms", res.p99_ms);
        obs::record_final("serve.p999_ms", res.p999_ms);
        obs::record_final("serve.mean_ms", res.mean_ms);
        obs::record_final("serve.hit_rate", res.hit_rate);
        obs::record_final("serve.halo_mb", res.halo_mb);
        obs::record_final("serve.clamped", static_cast<double>(res.clamped));
    }
    return res;
}

} // namespace scgnn::runtime

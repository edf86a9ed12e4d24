#include "scgnn/partition/partition.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <queue>

#include "scgnn/obs/trace.hpp"

namespace scgnn::partition {
namespace {

constexpr std::uint32_t kUnassigned = ~std::uint32_t{0};

/// BFS visit order over the whole graph (multiple components handled),
/// starting from a random root per component. Streaming partitioners are
/// sensitive to visit order; BFS keeps neighbourhoods together.
std::vector<std::uint32_t> bfs_order(const graph::Graph& g, Rng& rng) {
    const std::uint32_t n = g.num_nodes();
    std::vector<std::uint32_t> order;
    order.reserve(n);
    std::vector<char> seen(n, 0);
    std::vector<std::uint32_t> roots(n);
    std::iota(roots.begin(), roots.end(), 0u);
    rng.shuffle(roots);
    std::queue<std::uint32_t> q;
    for (std::uint32_t root : roots) {
        if (seen[root]) continue;
        seen[root] = 1;
        q.push(root);
        while (!q.empty()) {
            const std::uint32_t u = q.front();
            q.pop();
            order.push_back(u);
            for (std::uint32_t v : g.neighbors(u)) {
                if (!seen[v]) {
                    seen[v] = 1;
                    q.push(v);
                }
            }
        }
    }
    return order;
}

/// Shared streaming-greedy skeleton for edge-cut and node-cut. The
/// `count_boundary_only` flag switches the affinity score: edge-cut counts
/// every assigned neighbour, node-cut counts only neighbours that are not
/// yet boundary nodes (placing next to them avoids minting new boundary
/// nodes, which is exactly what BNS-style node-cut minimises).
Partitioning streaming_greedy(const graph::Graph& g, std::uint32_t num_parts,
                              Rng& rng, bool count_boundary_only) {
    SCGNN_CHECK(num_parts >= 1, "need at least one partition");
    const std::uint32_t n = g.num_nodes();
    Partitioning part;
    part.num_parts = num_parts;
    part.part_of.assign(n, kUnassigned);

    const double capacity =
        std::ceil(static_cast<double>(n) / num_parts * 1.05) + 1.0;
    std::vector<double> size(num_parts, 0.0);
    std::vector<char> is_boundary(n, 0);
    std::vector<double> score(num_parts, 0.0);

    for (std::uint32_t u : bfs_order(g, rng)) {
        std::fill(score.begin(), score.end(), 0.0);
        for (std::uint32_t v : g.neighbors(u)) {
            const std::uint32_t pv = part.part_of[v];
            if (pv == kUnassigned) continue;
            if (count_boundary_only)
                score[pv] += is_boundary[v] ? 0.25 : 1.0;
            else
                score[pv] += 1.0;
        }
        // LDG balance term: scale by the remaining capacity fraction. The
        // scan starts at a random offset so full ties break uniformly.
        std::uint32_t best = kUnassigned;
        double best_score = -1.0;
        const std::uint32_t tie_base =
            static_cast<std::uint32_t>(rng.uniform_u64(num_parts));
        for (std::uint32_t i = 0; i < num_parts; ++i) {
            const std::uint32_t p = (i + tie_base) % num_parts;
            if (size[p] >= capacity) continue;
            const double s = (score[p] + 1e-3) * (1.0 - size[p] / capacity);
            if (s > best_score) {
                best_score = s;
                best = p;
            }
        }
        if (best == kUnassigned) {
            // Every part at capacity (can only happen from rounding): fall
            // back to the least-loaded partition.
            best = static_cast<std::uint32_t>(
                std::min_element(size.begin(), size.end()) - size.begin());
        }
        part.part_of[u] = best;
        size[best] += 1.0;
        // Update boundary flags for u and its assigned neighbours.
        for (std::uint32_t v : g.neighbors(u)) {
            const std::uint32_t pv = part.part_of[v];
            if (pv == kUnassigned) continue;
            if (pv != best) {
                is_boundary[v] = 1;
                is_boundary[u] = 1;
            }
        }
    }

    // Refinement sweeps (label-propagation with a balance cap): move a node
    // to its majority-neighbour partition when that strictly improves the
    // affinity score. A few sweeps sharply reduce the cut left behind by
    // the single streaming pass.
    std::vector<std::uint32_t> order(n);
    std::iota(order.begin(), order.end(), 0u);
    for (int sweep = 0; sweep < 3; ++sweep) {
        rng.shuffle(order);
        bool moved = false;
        for (std::uint32_t u : order) {
            std::fill(score.begin(), score.end(), 0.0);
            for (std::uint32_t v : g.neighbors(u)) {
                if (count_boundary_only)
                    score[part.part_of[v]] += is_boundary[v] ? 0.25 : 1.0;
                else
                    score[part.part_of[v]] += 1.0;
            }
            const std::uint32_t cur = part.part_of[u];
            std::uint32_t best = cur;
            for (std::uint32_t p = 0; p < num_parts; ++p) {
                if (p == cur || size[p] + 1.0 > capacity) continue;
                if (score[p] > score[best]) best = p;
            }
            if (best != cur) {
                part.part_of[u] = best;
                size[cur] -= 1.0;
                size[best] += 1.0;
                moved = true;
            }
        }
        if (count_boundary_only) {
            // Recompute boundary flags so the node-cut score stays honest.
            std::fill(is_boundary.begin(), is_boundary.end(), 0);
            for (std::uint32_t u = 0; u < n; ++u)
                for (std::uint32_t v : g.neighbors(u))
                    if (part.part_of[u] != part.part_of[v]) is_boundary[u] = 1;
        }
        if (!moved) break;
    }
    return part;
}

} // namespace

std::vector<std::vector<std::uint32_t>> Partitioning::members() const {
    std::vector<std::vector<std::uint32_t>> out(num_parts);
    for (std::uint32_t u = 0; u < part_of.size(); ++u) {
        SCGNN_CHECK(part_of[u] < num_parts, "partition id out of range");
        out[part_of[u]].push_back(u);
    }
    return out;
}

std::uint32_t Partitioning::part_size(std::uint32_t p) const {
    SCGNN_CHECK(p < num_parts, "partition id out of range");
    std::uint32_t c = 0;
    for (std::uint32_t q : part_of)
        if (q == p) ++c;
    return c;
}

const char* to_string(PartitionAlgo algo) noexcept {
    switch (algo) {
        case PartitionAlgo::kRandomCut: return "random-cut";
        case PartitionAlgo::kEdgeCut: return "edge-cut";
        case PartitionAlgo::kNodeCut: return "node-cut";
        case PartitionAlgo::kMultilevel: return "multilevel";
    }
    return "?";
}

Partitioning random_cut(const graph::Graph& g, std::uint32_t num_parts,
                        Rng& rng) {
    SCGNN_CHECK(num_parts >= 1, "need at least one partition");
    const std::uint32_t n = g.num_nodes();
    std::vector<std::uint32_t> order(n);
    std::iota(order.begin(), order.end(), 0u);
    rng.shuffle(order);
    Partitioning part;
    part.num_parts = num_parts;
    part.part_of.assign(n, 0);
    for (std::uint32_t i = 0; i < n; ++i)
        part.part_of[order[i]] = i % num_parts;
    return part;
}

Partitioning edge_cut(const graph::Graph& g, std::uint32_t num_parts, Rng& rng) {
    return streaming_greedy(g, num_parts, rng, /*count_boundary_only=*/false);
}

Partitioning node_cut(const graph::Graph& g, std::uint32_t num_parts, Rng& rng) {
    return streaming_greedy(g, num_parts, rng, /*count_boundary_only=*/true);
}

Partitioning make_partitioning(PartitionAlgo algo, const graph::Graph& g,
                               std::uint32_t num_parts, std::uint64_t seed) {
    SCGNN_TRACE_SPAN("partition.make");
    Rng rng(seed);
    switch (algo) {
        case PartitionAlgo::kRandomCut: return random_cut(g, num_parts, rng);
        case PartitionAlgo::kEdgeCut: return edge_cut(g, num_parts, rng);
        case PartitionAlgo::kNodeCut: return node_cut(g, num_parts, rng);
        case PartitionAlgo::kMultilevel:
            return multilevel_edge_cut(g, num_parts, rng);
    }
    throw Error("unknown partition algorithm");
}

PartitionQuality evaluate(const graph::Graph& g, const Partitioning& p) {
    SCGNN_CHECK(p.part_of.size() == g.num_nodes(),
                "partitioning does not cover the graph");
    PartitionQuality q;
    std::vector<char> boundary(g.num_nodes(), 0);
    for (std::uint32_t u = 0; u < g.num_nodes(); ++u)
        for (std::uint32_t v : g.neighbors(u)) {
            if (v <= u) continue;
            if (p.part_of[u] != p.part_of[v]) {
                ++q.cut_edges;
                boundary[u] = 1;
                boundary[v] = 1;
            }
        }
    for (char b : boundary) q.boundary_nodes += b;
    const double e = static_cast<double>(g.num_edges());
    q.cut_fraction = e == 0.0 ? 0.0 : static_cast<double>(q.cut_edges) / e;
    q.boundary_fraction =
        g.num_nodes() == 0
            ? 0.0
            : static_cast<double>(q.boundary_nodes) / g.num_nodes();
    std::uint32_t largest = 0;
    for (std::uint32_t part_id = 0; part_id < p.num_parts; ++part_id)
        largest = std::max(largest, p.part_size(part_id));
    const double ideal =
        static_cast<double>(g.num_nodes()) / std::max(1u, p.num_parts);
    q.balance = ideal == 0.0 ? 0.0 : static_cast<double>(largest) / ideal;
    return q;
}

} // namespace scgnn::partition

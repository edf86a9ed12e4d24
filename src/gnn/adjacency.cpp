#include "scgnn/gnn/adjacency.hpp"

#include <algorithm>
#include <cmath>

namespace scgnn::gnn {

tensor::SparseMatrix normalized_adjacency(const graph::Graph& g, AdjNorm norm,
                                          SelfLoop self) {
    const std::uint32_t n = g.num_nodes();
    std::vector<tensor::Triplet> trips;
    trips.reserve(2 * g.num_edges() + n);

    const bool with_self =
        self == SelfLoop::kAdd ||
        (self == SelfLoop::kAuto && norm != AdjNorm::kSum);

    std::vector<double> deg(n);
    for (std::uint32_t u = 0; u < n; ++u)
        deg[u] = static_cast<double>(g.degree(u)) + (with_self ? 1.0 : 0.0);

    auto weight = [&](std::uint32_t r, std::uint32_t c) -> float {
        if (norm == AdjNorm::kSum) return 1.0f;
        if (norm == AdjNorm::kSymmetric)
            return static_cast<float>(1.0 / std::sqrt(deg[r] * deg[c]));
        return static_cast<float>(1.0 / deg[r]);
    };
    // Each row is emitted in column order — the self-loop sits between the
    // lower and the higher neighbours — so assembly needs no sort.
    for (std::uint32_t u = 0; u < n; ++u) {
        const auto nb = g.neighbors(u);
        const auto mid = std::lower_bound(nb.begin(), nb.end(), u);
        for (auto it = nb.begin(); it != mid; ++it)
            trips.push_back({u, *it, weight(u, *it)});
        if (with_self) trips.push_back({u, u, weight(u, u)});
        for (auto it = mid; it != nb.end(); ++it)
            trips.push_back({u, *it, weight(u, *it)});
    }
    return tensor::SparseMatrix(n, n, std::move(trips));
}

} // namespace scgnn::gnn

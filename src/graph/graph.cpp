#include "scgnn/graph/graph.hpp"

#include <algorithm>
#include <unordered_map>

namespace scgnn::graph {

Graph::Graph(std::uint32_t num_nodes, std::span<const Edge> edges) : n_(num_nodes) {
    // Counting sort by row: count both directions of every edge, scatter
    // them through per-row cursors, then sort and deduplicate each row in
    // place while compacting the rows to the front of adj_.
    ptr_.assign(static_cast<std::size_t>(n_) + 1, 0);
    for (const Edge& e : edges) {
        SCGNN_CHECK(e.u < n_ && e.v < n_, "edge endpoint out of range");
        SCGNN_CHECK(e.u != e.v, "self-loops are not allowed");
        ++ptr_[e.u + 1];
        ++ptr_[e.v + 1];
    }
    for (std::uint32_t u = 0; u < n_; ++u) ptr_[u + 1] += ptr_[u];
    adj_.resize(ptr_[n_]);
    std::vector<std::uint64_t> cursor(ptr_.begin(), ptr_.end() - 1);
    for (const Edge& e : edges) {
        adj_[cursor[e.u]++] = e.v;
        adj_[cursor[e.v]++] = e.u;
    }
    std::uint64_t lo = 0, out = 0;
    for (std::uint32_t u = 0; u < n_; ++u) {
        const std::uint64_t hi = ptr_[u + 1];
        const auto first = adj_.begin() + static_cast<std::ptrdiff_t>(lo);
        const auto last = adj_.begin() + static_cast<std::ptrdiff_t>(hi);
        std::sort(first, last);
        const auto kept = std::unique(first, last);
        if (out != lo)
            std::copy(first, kept, adj_.begin() + static_cast<std::ptrdiff_t>(out));
        out += static_cast<std::uint64_t>(kept - first);
        ptr_[u + 1] = out;
        lo = hi;
    }
    if (out != adj_.size()) {
        adj_.resize(out);
        adj_.shrink_to_fit();
    }
}

bool Graph::has_edge(std::uint32_t u, std::uint32_t v) const {
    SCGNN_CHECK(u < n_ && v < n_, "node id out of range");
    const auto nb = neighbors(u);
    return std::binary_search(nb.begin(), nb.end(), v);
}

double Graph::average_degree() const noexcept {
    if (n_ == 0) return 0.0;
    return static_cast<double>(adj_.size()) / static_cast<double>(n_);
}

double Graph::density() const noexcept {
    if (n_ < 2) return 0.0;
    return static_cast<double>(adj_.size()) /
           (static_cast<double>(n_) * static_cast<double>(n_ - 1));
}

std::vector<Edge> Graph::edge_list() const {
    std::vector<Edge> out;
    out.reserve(num_edges());
    for (std::uint32_t u = 0; u < n_; ++u)
        for (std::uint32_t v : neighbors(u))
            if (u < v) out.push_back({u, v});
    return out;
}

std::uint32_t Graph::max_degree() const noexcept {
    std::uint32_t best = 0;
    for (std::uint32_t u = 0; u < n_; ++u)
        best = std::max(best,
                        static_cast<std::uint32_t>(ptr_[u + 1] - ptr_[u]));
    return best;
}

std::pair<Graph, std::vector<std::uint32_t>> induced_subgraph(
    const Graph& g, std::span<const std::uint32_t> nodes) {
    std::vector<std::uint32_t> locals(nodes.begin(), nodes.end());
    std::sort(locals.begin(), locals.end());
    locals.erase(std::unique(locals.begin(), locals.end()), locals.end());

    std::unordered_map<std::uint32_t, std::uint32_t> to_local;
    to_local.reserve(locals.size());
    for (std::uint32_t i = 0; i < locals.size(); ++i) to_local[locals[i]] = i;

    std::vector<Edge> edges;
    for (std::uint32_t lu = 0; lu < locals.size(); ++lu) {
        const std::uint32_t gu = locals[lu];
        for (std::uint32_t gv : g.neighbors(gu)) {
            if (gv <= gu) continue;
            const auto it = to_local.find(gv);
            if (it != to_local.end()) edges.push_back({lu, it->second});
        }
    }
    return {Graph(static_cast<std::uint32_t>(locals.size()), edges),
            std::move(locals)};
}

} // namespace scgnn::graph

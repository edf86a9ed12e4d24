#include "scgnn/graph/bipartite.hpp"

#include <algorithm>
#include <unordered_map>

namespace scgnn::graph {

std::span<const std::uint32_t> Dbg::out_neighbors(std::uint32_t lu) const {
    SCGNN_CHECK(lu < num_src(), "local source index out of range");
    return {adj.data() + ptr[lu],
            static_cast<std::size_t>(ptr[lu + 1] - ptr[lu])};
}

std::uint32_t Dbg::out_degree(std::uint32_t lu) const {
    SCGNN_CHECK(lu < num_src(), "local source index out of range");
    return static_cast<std::uint32_t>(ptr[lu + 1] - ptr[lu]);
}

std::vector<std::uint32_t> Dbg::in_degrees() const {
    std::vector<std::uint32_t> deg(num_dst(), 0);
    for (std::uint32_t lv : adj) ++deg[lv];
    return deg;
}

std::vector<float> Dbg::dense_row(std::uint32_t lu) const {
    std::vector<float> row(num_dst(), 0.0f);
    for (std::uint32_t lv : out_neighbors(lu)) row[lv] = 1.0f;
    return row;
}

Dbg extract_dbg(const Graph& g, std::span<const std::uint32_t> part_of,
                std::uint32_t src_part, std::uint32_t dst_part) {
    SCGNN_CHECK(part_of.size() == g.num_nodes(),
                "one partition id per node required");
    SCGNN_CHECK(src_part != dst_part, "DBG requires two distinct partitions");

    Dbg dbg;
    dbg.src_part = src_part;
    dbg.dst_part = dst_part;

    // Pass 1: collect boundary nodes on both sides.
    std::vector<std::uint32_t> dst_set;
    for (std::uint32_t u = 0; u < g.num_nodes(); ++u) {
        if (part_of[u] != src_part) continue;
        bool is_src = false;
        for (std::uint32_t v : g.neighbors(u)) {
            if (part_of[v] == dst_part) {
                is_src = true;
                dst_set.push_back(v);
            }
        }
        if (is_src) dbg.src_nodes.push_back(u);
    }
    std::sort(dst_set.begin(), dst_set.end());
    dst_set.erase(std::unique(dst_set.begin(), dst_set.end()), dst_set.end());
    dbg.dst_nodes = std::move(dst_set);

    std::unordered_map<std::uint32_t, std::uint32_t> dst_local;
    dst_local.reserve(dbg.dst_nodes.size());
    for (std::uint32_t i = 0; i < dbg.dst_nodes.size(); ++i)
        dst_local[dbg.dst_nodes[i]] = i;

    // Pass 2: CSR rows (neighbors() is sorted by global id, and dst_nodes is
    // sorted by global id, so local sink indices come out ascending).
    dbg.ptr.assign(dbg.src_nodes.size() + 1, 0);
    for (std::uint32_t i = 0; i < dbg.src_nodes.size(); ++i) {
        const std::uint32_t u = dbg.src_nodes[i];
        for (std::uint32_t v : g.neighbors(u))
            if (part_of[v] == dst_part) dbg.adj.push_back(dst_local.at(v));
        dbg.ptr[i + 1] = dbg.adj.size();
    }
    return dbg;
}

std::vector<Dbg> extract_all_dbgs(const Graph& g,
                                  std::span<const std::uint32_t> part_of,
                                  std::uint32_t num_parts) {
    SCGNN_CHECK(num_parts >= 2, "need at least two partitions");
    SCGNN_CHECK(part_of.size() == g.num_nodes(),
                "one partition id per node required");
    // Two sweeps over the graph build every pair at once; the result equals
    // extract_dbg() pair by pair. Nodes with a partition id outside
    // [0, num_parts) belong to no pair, as in extract_dbg().
    const std::uint32_t n = g.num_nodes();
    const std::size_t np = num_parts;
    constexpr std::uint32_t kNone = ~std::uint32_t{0};
    std::vector<Dbg> pair(np * np);  // pair[p * np + q] is the DBG p → q

    // Sweep 1: u is a source of (p → q) when one of its neighbours lives in
    // q ≠ p. Ascending u keeps every source list sorted.
    std::vector<std::uint32_t> last(np, kNone);  // last u listed for (·, q)
    std::vector<std::uint32_t> by_part(np + 1, 0);
    for (std::uint32_t u = 0; u < n; ++u) {
        const std::uint32_t p = part_of[u];
        if (p >= num_parts) continue;
        ++by_part[p + 1];
        for (const std::uint32_t v : g.neighbors(u)) {
            const std::uint32_t q = part_of[v];
            if (q == p || q >= num_parts || last[q] == u) continue;
            last[q] = u;
            pair[p * np + q].src_nodes.push_back(u);
        }
    }
    // The sinks of (p → q) are the nodes of q with a neighbour in p: exactly
    // the sources of (q → p).
    for (std::uint32_t p = 0; p < num_parts; ++p)
        for (std::uint32_t q = 0; q < num_parts; ++q) {
            Dbg& d = pair[p * np + q];
            d.src_part = p;
            d.dst_part = q;
            if (p != q) d.dst_nodes = pair[q * np + p].src_nodes;
        }

    // Nodes grouped by partition, ascending within each (counting sort).
    for (std::size_t p = 0; p < np; ++p) by_part[p + 1] += by_part[p];
    std::vector<std::uint32_t> nodes(by_part[np]);
    {
        std::vector<std::uint32_t> cursor(by_part.begin(), by_part.end() - 1);
        for (std::uint32_t u = 0; u < n; ++u)
            if (part_of[u] < num_parts) nodes[cursor[part_of[u]]++] = u;
    }

    // Sweep 2, one source partition p at a time: `local[v]` is v's index
    // among the sinks of (p → owner(v)); each remote v has one owner, so a
    // single array serves every q. Neighbour lists ascend by global id, and
    // so do the sink lists, so each CSR row comes out ascending.
    std::vector<std::uint32_t> local(n, 0);
    std::vector<std::uint32_t> touched;
    std::fill(last.begin(), last.end(), kNone);
    for (std::uint32_t p = 0; p < num_parts; ++p) {
        for (std::uint32_t q = 0; q < num_parts; ++q) {
            const std::vector<std::uint32_t>& sinks = pair[p * np + q].dst_nodes;
            for (std::uint32_t i = 0; i < sinks.size(); ++i) local[sinks[i]] = i;
        }
        for (std::uint32_t k = by_part[p]; k < by_part[p + 1]; ++k) {
            const std::uint32_t u = nodes[k];
            touched.clear();
            for (const std::uint32_t v : g.neighbors(u)) {
                const std::uint32_t q = part_of[v];
                if (q == p || q >= num_parts) continue;
                if (last[q] != u) {
                    last[q] = u;
                    touched.push_back(q);
                }
                pair[p * np + q].adj.push_back(local[v]);
            }
            for (const std::uint32_t q : touched) {
                Dbg& d = pair[p * np + q];
                d.ptr.push_back(d.adj.size());
            }
        }
    }

    std::vector<Dbg> out;
    for (Dbg& d : pair)
        if (d.num_edges() > 0) out.push_back(std::move(d));
    return out;
}

const char* to_string(ConnectionType t) noexcept {
    switch (t) {
        case ConnectionType::kO2O: return "O2O";
        case ConnectionType::kO2M: return "O2M";
        case ConnectionType::kM2O: return "M2O";
        case ConnectionType::kM2M: return "M2M";
    }
    return "?";
}

std::vector<ConnectionType> classify_edges(const Dbg& dbg) {
    const auto in_deg = dbg.in_degrees();
    std::vector<ConnectionType> types;
    types.reserve(dbg.num_edges());
    for (std::uint32_t lu = 0; lu < dbg.num_src(); ++lu) {
        const bool fan_out = dbg.out_degree(lu) > 1;
        for (std::uint32_t lv : dbg.out_neighbors(lu)) {
            const bool fan_in = in_deg[lv] > 1;
            if (!fan_out && !fan_in)
                types.push_back(ConnectionType::kO2O);
            else if (fan_out && !fan_in)
                types.push_back(ConnectionType::kO2M);
            else if (!fan_out && fan_in)
                types.push_back(ConnectionType::kM2O);
            else
                types.push_back(ConnectionType::kM2M);
        }
    }
    return types;
}

ConnectionMix connection_mix(const Dbg& dbg) {
    ConnectionMix mix;
    for (ConnectionType t : classify_edges(dbg))
        ++mix.count[static_cast<int>(t)];
    return mix;
}

ConnectionMix connection_mix(const Graph& g,
                             std::span<const std::uint32_t> part_of,
                             std::uint32_t num_parts) {
    ConnectionMix mix;
    for (const Dbg& dbg : extract_all_dbgs(g, part_of, num_parts))
        mix.merge(connection_mix(dbg));
    return mix;
}

} // namespace scgnn::graph

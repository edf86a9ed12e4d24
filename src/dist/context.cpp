#include "scgnn/dist/context.hpp"

#include "scgnn/obs/trace.hpp"

namespace scgnn::dist {

DistContext::DistContext(const graph::Dataset& data,
                         const partition::Partitioning& parts,
                         gnn::AdjNorm norm)
    : p_(parts.num_parts),
      feat_dim_(static_cast<std::uint32_t>(data.features.cols())) {
    SCGNN_TRACE_SPAN("dist.context");
    const graph::Graph& g = data.graph;
    SCGNN_CHECK(parts.part_of.size() == g.num_nodes(),
                "partitioning does not cover the graph");
    SCGNN_CHECK(p_ >= 2, "distributed context needs at least two partitions");

    const std::uint32_t n = g.num_nodes();
    owner_.assign(parts.part_of.begin(), parts.part_of.end());
    local_nodes_.resize(p_);
    for (std::uint32_t u = 0; u < n; ++u) {
        SCGNN_CHECK(owner_[u] < p_, "partition id out of range");
        local_nodes_[owner_[u]].push_back(u);  // ascending since u ascends
    }
    local_index_.assign(n, 0);
    for (std::uint32_t p = 0; p < p_; ++p)
        for (std::uint32_t i = 0; i < local_nodes_[p].size(); ++i)
            local_index_[local_nodes_[p][i]] = i;

    // Halo: u is a remote neighbour of every partition q ≠ owner(u) that
    // holds one of its neighbours. One ascending sweep lists each halo
    // sorted and unique by global id.
    halo_.resize(p_);
    halo_owner_.resize(p_);
    {
        std::vector<std::uint32_t> last(p_, ~std::uint32_t{0});
        for (std::uint32_t u = 0; u < n; ++u) {
            const std::uint32_t p = owner_[u];
            for (std::uint32_t v : g.neighbors(u)) {
                const std::uint32_t q = owner_[v];
                if (q == p || last[q] == u) continue;
                last[q] = u;
                halo_[q].push_back(u);
                halo_owner_[q].push_back(p);
            }
        }
    }

    for (graph::Dbg& dbg : graph::extract_all_dbgs(g, owner_, p_)) {
        PairPlan plan;
        plan.src_part = dbg.src_part;
        plan.dst_part = dbg.dst_part;
        plan.src_local_rows.reserve(dbg.src_nodes.size());
        for (std::uint32_t gu : dbg.src_nodes)
            plan.src_local_rows.push_back(local_index_[gu]);
        plan.dbg = std::move(dbg);
        plans_.push_back(std::move(plan));
    }

    // Local aggregation matrices, rows/cols in local index space, one
    // partition at a time. `slot[v]` is v's halo slot in the partition at
    // hand. Local and halo indices both ascend with the global id and every
    // halo column lies past the local ones, so a row lists its local
    // columns, then its halo columns, and comes out sorted.
    const tensor::SparseMatrix global_adj = gnn::normalized_adjacency(g, norm);
    local_adj_.reserve(p_);
    std::vector<std::uint32_t> slot(n, 0);
    for (std::uint32_t p = 0; p < p_; ++p) {
        for (std::uint32_t i = 0; i < halo_[p].size(); ++i) slot[halo_[p][i]] = i;
        const auto n_local = static_cast<std::uint32_t>(local_nodes_[p].size());
        std::vector<tensor::Triplet> trips;
        for (std::uint32_t i = 0; i < n_local; ++i) {
            const std::uint32_t gu = local_nodes_[p][i];
            const auto cols = global_adj.row_cols(gu);
            const auto vals = global_adj.row_vals(gu);
            for (std::size_t e = 0; e < cols.size(); ++e)
                if (owner_[cols[e]] == p)
                    trips.push_back({i, local_index_[cols[e]], vals[e]});
            for (std::size_t e = 0; e < cols.size(); ++e)
                if (owner_[cols[e]] != p)
                    trips.push_back({i, n_local + slot[cols[e]], vals[e]});
        }
        local_adj_.emplace_back(
            n_local, n_local + static_cast<std::uint32_t>(halo_[p].size()),
            std::move(trips));
        for (PairPlan& plan : plans_) {
            if (plan.dst_part != p) continue;
            plan.dst_halo_slots.reserve(plan.dbg.src_nodes.size());
            for (std::uint32_t gu : plan.dbg.src_nodes)
                plan.dst_halo_slots.push_back(slot[gu]);
        }
    }
}

std::span<const std::uint32_t> DistContext::local_nodes(std::uint32_t p) const {
    SCGNN_CHECK(p < p_, "partition id out of range");
    return local_nodes_[p];
}

std::span<const std::uint32_t> DistContext::halo(std::uint32_t p) const {
    SCGNN_CHECK(p < p_, "partition id out of range");
    return halo_[p];
}

std::span<const std::uint32_t> DistContext::halo_owner(std::uint32_t p) const {
    SCGNN_CHECK(p < p_, "partition id out of range");
    return halo_owner_[p];
}

const tensor::SparseMatrix& DistContext::local_adj(std::uint32_t p) const {
    SCGNN_CHECK(p < p_, "partition id out of range");
    return local_adj_[p];
}

std::uint32_t DistContext::local_index(std::uint32_t g) const {
    SCGNN_CHECK(g < local_index_.size(), "node id out of range");
    return local_index_[g];
}

std::uint32_t DistContext::owner(std::uint32_t g) const {
    SCGNN_CHECK(g < owner_.size(), "node id out of range");
    return owner_[g];
}

std::uint64_t DistContext::total_cross_edges() const noexcept {
    std::uint64_t total = 0;
    for (const PairPlan& plan : plans_) total += plan.num_edges();
    return total;
}

} // namespace scgnn::dist
